// Tests of the reliable broadcast layer: one multicast per broadcast,
// local-first delivery, loopback suppression, client-tag routing, and
// at-most-once delivery under frame loss and a crash/restart.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "net/system.hpp"
#include "rbcast/reliable_broadcast.hpp"
#include "transport/transport.hpp"

namespace fdgm::rbcast {
namespace {

constexpr int kTag = 1;

class Body final : public net::Payload {
 public:
  static constexpr net::ProtocolId kProto = net::ProtocolId::kApplication;
  static constexpr std::uint8_t kKind = 33;
  explicit Body(int v) : Payload(kProto, kKind), value(v) {}
  int value;
};

struct Fixture {
  explicit Fixture(int n, transport::Config tcfg = {}) : sys(n, {}, 1, {}, tcfg) {
    deliveries.reserve(static_cast<std::size_t>(n));  // lambdas keep pointers
    for (int i = 0; i < n; ++i) {
      stacks.push_back(std::make_unique<ReliableBroadcast>(sys, i));
      auto* log = &deliveries.emplace_back();
      stacks.back()->register_client(kTag, [log](net::PayloadPtr p) {
        const Body* b = net::payload_cast<Body>(p);
        log->push_back(b != nullptr ? b->value : -1);
      });
    }
  }

  net::System sys;
  std::vector<std::unique_ptr<ReliableBroadcast>> stacks;
  std::vector<std::vector<int>> deliveries;
};

TEST(Rbcast, EveryoneDeliversOnce) {
  Fixture f(4);
  f.stacks[0]->broadcast(kTag, f.sys.arena().make<Body>(7));
  f.sys.scheduler().run();
  for (int p = 0; p < 4; ++p) {
    ASSERT_EQ(f.deliveries[static_cast<std::size_t>(p)].size(), 1u) << p;
    EXPECT_EQ(f.deliveries[static_cast<std::size_t>(p)][0], 7);
  }
}

TEST(Rbcast, FailureFreeCostsOneWireSlot) {
  Fixture f(5);
  f.stacks[2]->broadcast(kTag, f.sys.arena().make<Body>(1));
  f.sys.scheduler().run();
  EXPECT_EQ(f.sys.network().network_uses(), 1u);
}

TEST(Rbcast, SenderDeliversLocallyImmediately) {
  Fixture f(3);
  f.stacks[0]->broadcast(kTag, f.sys.arena().make<Body>(5));
  // Before running the scheduler at all: local delivery already happened.
  EXPECT_EQ(f.deliveries[0].size(), 1u);
  f.sys.scheduler().run();
  EXPECT_EQ(f.deliveries[0].size(), 1u);  // self copy deduplicated
}

TEST(Rbcast, OrderPreservedPerOrigin) {
  Fixture f(3);
  for (int i = 0; i < 5; ++i) f.stacks[0]->broadcast(kTag, f.sys.arena().make<Body>(i));
  f.sys.scheduler().run();
  for (int p = 0; p < 3; ++p) {
    ASSERT_EQ(f.deliveries[static_cast<std::size_t>(p)].size(), 5u);
    for (int i = 0; i < 5; ++i)
      EXPECT_EQ(f.deliveries[static_cast<std::size_t>(p)][static_cast<std::size_t>(i)], i);
  }
}

TEST(Rbcast, GroupBroadcastReachesGroupOnly) {
  Fixture f(4);
  f.stacks[0]->broadcast_group(kTag, {0, 1, 2}, f.sys.arena().make<Body>(1));
  f.sys.scheduler().run();
  EXPECT_EQ(f.deliveries[0].size(), 1u);
  EXPECT_EQ(f.deliveries[1].size(), 1u);
  EXPECT_EQ(f.deliveries[2].size(), 1u);
  EXPECT_TRUE(f.deliveries[3].empty());
}

TEST(Rbcast, DistinctClientTagsAreIsolated) {
  Fixture f(2);
  std::vector<int> tag2;
  f.stacks[0]->register_client(2, [](net::PayloadPtr) {});
  f.stacks[1]->register_client(2, [&](net::PayloadPtr p) {
    tag2.push_back(net::payload_cast<Body>(p)->value);
  });
  f.stacks[0]->broadcast(2, f.sys.arena().make<Body>(77));
  f.sys.scheduler().run();
  EXPECT_EQ(tag2, (std::vector<int>{77}));
  EXPECT_TRUE(f.deliveries[1].empty());  // kTag client saw nothing
}

TEST(Rbcast, DuplicateClientTagRejected) {
  Fixture f(2);
  EXPECT_THROW(f.stacks[0]->register_client(kTag, [](net::PayloadPtr) {}), std::logic_error);
}

TEST(Rbcast, CrashedReceiverDoesNotDeliver) {
  Fixture f(3);
  f.sys.crash(2);
  f.stacks[0]->broadcast(kTag, f.sys.arena().make<Body>(4));
  f.sys.scheduler().run();
  EXPECT_TRUE(f.deliveries[2].empty());
  EXPECT_EQ(f.deliveries[1].size(), 1u);
}

TEST(Rbcast, ManyOriginsInterleaved) {
  Fixture f(3);
  for (int round = 0; round < 10; ++round)
    for (int p = 0; p < 3; ++p)
      f.stacks[static_cast<std::size_t>(p)]->broadcast(kTag, f.sys.arena().make<Body>(round));
  f.sys.scheduler().run();
  for (int p = 0; p < 3; ++p) EXPECT_EQ(f.deliveries[static_cast<std::size_t>(p)].size(), 30u);
}

// The loopback drop is the only duplicate suppression rbcast does, so it
// rests on the channels never handing a process the same frame twice: the
// transport recovers lost frames exactly once, also across a restart.
TEST(Rbcast, LossAndRestartDeliverEachBroadcastAtMostOnce) {
  constexpr int kN = 4;
  constexpr int kRounds = 60;
  Fixture f(kN, transport::Config{.enabled = true});
  sim::Rng loss_rng(11);
  f.sys.network().set_loss(0.2, &loss_rng);
  f.sys.crash_at(3, 40.0);
  f.sys.restart_at(3, 150.0);
  std::set<int> sent;
  for (int round = 0; round < kRounds; ++round) {
    f.sys.scheduler().schedule_at(5.0 * round, [&f, &sent, round] {
      for (int p = 0; p < kN; ++p) {
        if (f.sys.node(p).crashed()) continue;
        sent.insert(round * kN + p);
        f.stacks[static_cast<std::size_t>(p)]->broadcast(
            kTag, f.sys.arena().make<Body>(round * kN + p));
      }
    });
  }
  f.sys.scheduler().run_until(5.0 * kRounds);
  f.sys.network().clear_loss();
  f.sys.scheduler().run_until(f.sys.now() + 5000.0);

  EXPECT_GT(f.sys.network().lost_deliveries(), 0u);
  for (int p = 0; p < kN; ++p) {
    const std::vector<int>& got = f.deliveries[static_cast<std::size_t>(p)];
    const std::set<int> unique(got.begin(), got.end());
    EXPECT_EQ(unique.size(), got.size()) << "p" << p << " delivered a value twice";
    if (p != 3) {
      EXPECT_EQ(unique, sent) << "p" << p;
    }
  }
}

}  // namespace
}  // namespace fdgm::rbcast
