// The outside delivery checker must flag every kind of broken delivery
// stream, and accept a correct one.
#include <gtest/gtest.h>

#include "checker.hpp"

namespace fdgm::perf {
namespace {

/// Three processes, three broadcasts: (0,1) @10, (1,1) @11, (0,2) @12.
DeliveryChecker three_broadcasts() {
  DeliveryChecker c(3);
  c.on_broadcast(0, 1, 10.0);
  c.on_broadcast(1, 1, 11.0);
  c.on_broadcast(0, 2, 12.0);
  return c;
}

void deliver_all_in_order(DeliveryChecker& c, int p, double t) {
  c.on_deliver(p, 0, 1, 10.0, t);
  c.on_deliver(p, 1, 1, 11.0, t + 1);
  c.on_deliver(p, 0, 2, 12.0, t + 2);
}

const std::vector<bool> kAllCorrect{true, true, true};

TEST(DeliveryChecker, AcceptsUniformTotalOrder) {
  DeliveryChecker c = three_broadcasts();
  for (int p = 0; p < 3; ++p) deliver_all_in_order(c, p, 20.0 + p);
  const Verdict v = c.verdict(kAllCorrect);
  EXPECT_TRUE(v.safe) << v.first_violation;
  EXPECT_EQ(v.attempted, 3u);
  EXPECT_EQ(v.failed, 0u);
  EXPECT_EQ(c.latencies(0.0, 100.0), (std::vector<double>{10.0, 10.0, 10.0}));
}

TEST(DeliveryChecker, FlagsReorderedDelivery) {
  // p1 delivers an already established message at the wrong position.
  DeliveryChecker c = three_broadcasts();
  deliver_all_in_order(c, 0, 20.0);
  c.on_deliver(1, 1, 1, 11.0, 30.0);
  Verdict v = c.verdict(kAllCorrect);
  EXPECT_FALSE(v.safe);
  EXPECT_NE(v.first_violation.find("as #1, established #2"), std::string::npos)
      << v.first_violation;
  EXPECT_EQ(v.failed, v.attempted);  // a safety violation fails every broadcast

  // p1 delivers a not yet established message where another one stands.
  DeliveryChecker d = three_broadcasts();
  d.on_deliver(0, 0, 1, 10.0, 20.0);
  d.on_deliver(1, 0, 2, 12.0, 21.0);
  v = d.verdict(kAllCorrect);
  EXPECT_FALSE(v.safe);
  EXPECT_NE(v.first_violation.find("established #1 is (0,1)"), std::string::npos)
      << v.first_violation;
}

TEST(DeliveryChecker, FlagsDuplicateDelivery) {
  DeliveryChecker c = three_broadcasts();
  deliver_all_in_order(c, 0, 20.0);
  c.on_deliver(0, 1, 1, 11.0, 40.0);
  const Verdict v = c.verdict(kAllCorrect);
  EXPECT_FALSE(v.safe);
  EXPECT_NE(v.first_violation.find("twice"), std::string::npos) << v.first_violation;
}

TEST(DeliveryChecker, FlagsMissingDeliveryAtCorrectProcess) {
  DeliveryChecker c = three_broadcasts();
  deliver_all_in_order(c, 0, 20.0);
  deliver_all_in_order(c, 1, 20.0);
  c.on_deliver(2, 0, 1, 10.0, 25.0);  // p2 stops after one delivery
  Verdict v = c.verdict(kAllCorrect);
  EXPECT_TRUE(v.safe);  // a liveness failure, not a safety one
  EXPECT_EQ(v.failed, 2u);
  EXPECT_EQ(v.shortest_correct_log, 1u);
  // A crashed process is not held to agreement.
  v = c.verdict({true, true, false});
  EXPECT_EQ(v.failed, 0u);
}

TEST(DeliveryChecker, CountsBroadcastDeliveredNowhereAsFailed) {
  DeliveryChecker c = three_broadcasts();
  for (int p = 0; p < 3; ++p) {
    c.on_deliver(p, 0, 1, 10.0, 20.0);
    c.on_deliver(p, 1, 1, 11.0, 21.0);
  }
  const Verdict v = c.verdict(kAllCorrect);
  EXPECT_TRUE(v.safe);
  EXPECT_EQ(v.failed, 1u);
  EXPECT_EQ(c.latencies(0.0, 100.0).size(), 2u);
}

TEST(DeliveryChecker, FlagsMessageThatWasNeverBroadcast) {
  DeliveryChecker c = three_broadcasts();
  c.on_deliver(0, 2, 1, 10.0, 20.0);
  EXPECT_FALSE(c.verdict(kAllCorrect).safe);
}

TEST(DeliveryChecker, FlagsWrongBroadcastStamp) {
  DeliveryChecker c = three_broadcasts();
  c.on_deliver(0, 0, 1, 9.5, 20.0);
  EXPECT_FALSE(c.verdict(kAllCorrect).safe);
}

TEST(DeliveryChecker, RecoveredProcessMustContinueItsPrefix) {
  // p2 delivers #1, crashes, recovers and re-delivers #1 from scratch: the
  // log-prefix property is broken, which shows as a duplicate.
  DeliveryChecker c = three_broadcasts();
  deliver_all_in_order(c, 0, 20.0);
  c.on_deliver(2, 0, 1, 10.0, 21.0);
  c.on_deliver(2, 0, 1, 10.0, 50.0);
  EXPECT_FALSE(c.verdict(kAllCorrect).safe);
}

TEST(DeliveryChecker, DigestDependsOnEveryDeliveryField) {
  auto digest = [](int p, double t) {
    DeliveryChecker c = three_broadcasts();
    c.on_deliver(p, 0, 1, 10.0, t);
    return c.digest();
  };
  EXPECT_EQ(digest(0, 20.0), digest(0, 20.0));
  EXPECT_NE(digest(0, 20.0), digest(1, 20.0));
  EXPECT_NE(digest(0, 20.0), digest(0, 20.5));
}

}  // namespace
}  // namespace fdgm::perf
