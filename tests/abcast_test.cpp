// Tests of the A-delivery record the abcast base class keeps for both
// stacks: log, exact per-(origin, seq) duplicate filter, the notification
// a fresh delivery ends in, and survival across a restart.
#include <gtest/gtest.h>

#include <vector>

#include "abcast/abcast.hpp"
#include "net/system.hpp"

namespace fdgm::abcast {
namespace {

/// Ordering stub: collects submissions; each test records deliveries.
class Recorder final : public AtomicBroadcastProcess, public DeliverSink {
 public:
  explicit Recorder(net::System& sys)
      : AtomicBroadcastProcess(sys, 0, BatchConfig{.enabled = true}) {
    set_deliver_sink(this);
  }
  using AtomicBroadcastProcess::delivered;
  using AtomicBroadcastProcess::record_delivery;
  AppMessagePtr make(net::ProcessId origin, std::uint64_t seq) {
    return sys_->arena().make<AppMessage>(MsgId{origin, seq}, 0.0);
  }
  void on_deliver(const AppMessage& /*m*/) override { ++sink_calls; }

  std::vector<AppMessagePtr> submitted;
  int sink_calls = 0;

 protected:
  void submit_now(AppMessagePtr msg) override { submitted.push_back(msg); }
  void flush_batch(const AppMessagePtr* msgs, std::size_t count) override {
    submitted.insert(submitted.end(), msgs, msgs + count);
  }
};

TEST(AbcastRecord, OutOfOrderSeqsAreAcceptedAndBothReadDelivered) {
  net::System sys(3, {}, 1);
  Recorder p(sys);
  EXPECT_TRUE(p.record_delivery(p.make(1, 3)));
  EXPECT_FALSE(p.delivered(MsgId{1, 2}));
  EXPECT_TRUE(p.record_delivery(p.make(1, 2)));
  EXPECT_TRUE(p.delivered(MsgId{1, 2}));
  EXPECT_TRUE(p.delivered(MsgId{1, 3}));
  // The gap below stays open; other origins and later seqs are unaffected.
  EXPECT_FALSE(p.delivered(MsgId{1, 1}));
  EXPECT_FALSE(p.delivered(MsgId{2, 3}));
  EXPECT_FALSE(p.delivered(MsgId{1, 1000}));
  ASSERT_EQ(p.log().size(), 2u);
  EXPECT_EQ(p.log()[0]->id, (MsgId{1, 3}));
  EXPECT_EQ(p.log()[1]->id, (MsgId{1, 2}));
  EXPECT_EQ(p.sink_calls, 2);
}

TEST(AbcastRecord, RepeatIsRefusedWithoutSideEffects) {
  net::System sys(3, {}, 1);
  Recorder p(sys);
  p.a_broadcast();  // idle system: flushed at once, credit held until delivery
  p.a_broadcast();
  ASSERT_EQ(p.submitted.size(), 2u);
  const AppMessagePtr own = p.submitted[0];
  EXPECT_TRUE(p.record_delivery(own));
  EXPECT_EQ(p.in_flight(), 1u);
  EXPECT_FALSE(p.record_delivery(own));
  EXPECT_FALSE(p.record_delivery(p.make(own->id.origin, own->id.seq)));  // a copy
  EXPECT_EQ(p.log().size(), 1u);
  EXPECT_EQ(p.sink_calls, 1);
  EXPECT_EQ(p.in_flight(), 1u);
}

TEST(AbcastRecord, SurvivesRestart) {
  net::System sys(3, {}, 1);
  Recorder p(sys);
  ASSERT_TRUE(p.record_delivery(p.make(2, 1)));
  sys.crash(0);
  sys.restart(0);
  p.on_restart();
  EXPECT_TRUE(p.delivered(MsgId{2, 1}));
  EXPECT_EQ(p.log().size(), 1u);
  EXPECT_FALSE(p.record_delivery(p.make(2, 1)));
  EXPECT_TRUE(p.record_delivery(p.make(2, 2)));
}

TEST(AbcastRecord, DeliveredCountIsTheLogLength) {
  net::System sys(3, {}, 1);
  Recorder p(sys);
  for (const std::uint64_t seq : {5u, 1u, 5u, 2u, 1u}) {
    p.record_delivery(p.make(1, seq));
    EXPECT_EQ(p.delivered_count(), p.log().size());
  }
  EXPECT_EQ(p.delivered_count(), 3u);
}

}  // namespace
}  // namespace fdgm::abcast
