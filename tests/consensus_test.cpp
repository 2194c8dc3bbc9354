// Tests of the Chandra-Toueg ◇S consensus: agreement / validity /
// termination in failure-free runs, coordinator crash handling, wrong
// suspicions, message-pattern checks (Fig. 1), the re-numbering offset,
// and randomized property sweeps over crash/suspicion schedules.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "consensus/chandra_toueg.hpp"
#include "fd/qos_model.hpp"
#include "net/system.hpp"
#include "rbcast/reliable_broadcast.hpp"

namespace fdgm::consensus {
namespace {

class Value final : public net::Payload {
 public:
  static constexpr net::ProtocolId kProto = net::ProtocolId::kApplication;
  static constexpr std::uint8_t kKind = 34;
  explicit Value(int v) : Payload(kProto, kKind), v(v) {}
  int v;
};

int value_of(net::PayloadPtr p) {
  const Value* v = net::payload_cast<Value>(p);
  return v != nullptr ? v->v : -1;
}

constexpr std::uint32_t kCtx = 0;

struct Fixture {
  explicit Fixture(int n, fd::QosParams qp = {}, std::uint64_t seed = 1)
      : sys(n, {}, seed), fd(sys, qp) {
    decisions.assign(static_cast<std::size_t>(n), {});
    for (int i = 0; i < n; ++i) {
      rbs.push_back(std::make_unique<rbcast::ReliableBroadcast>(sys, i));
      services.push_back(std::make_unique<ConsensusService>(sys, i, fd.at(i), *rbs.back()));
      auto* slot = &decisions[static_cast<std::size_t>(i)];
      services.back()->register_context(
          kCtx, ConsensusService::ContextConfig{
                    .join = [this, i](const InstanceKey&) -> std::optional<StartInfo> {
                      // Late joiners propose their process id by default.
                      return StartInfo{&sys.all(), 0, sys.arena().make<Value>(100 + i)};
                    },
                    .on_decide =
                        [slot](const InstanceKey& key, const net::PayloadPtr& v) {
                          slot->emplace(key.number, value_of(v));
                        },
                });
    }
    fd.start();
  }

  /// Every process proposes `base + its id` for instance k.
  void propose_all(std::uint64_t k, int base = 0, int offset = 0) {
    for (int i = 0; i < sys.n(); ++i) {
      if (sys.node(i).crashed()) continue;
      services[static_cast<std::size_t>(i)]->start(
          InstanceKey{kCtx, k},
          StartInfo{&sys.all(), offset, sys.arena().make<Value>(base + i)});
    }
  }

  /// Checks uniform agreement for instance k among processes that decided;
  /// returns the decided value.
  int check_agreement(std::uint64_t k) {
    std::optional<int> decided;
    for (int i = 0; i < sys.n(); ++i) {
      auto it = decisions[static_cast<std::size_t>(i)].find(k);
      if (it == decisions[static_cast<std::size_t>(i)].end()) continue;
      if (!decided)
        decided = it->second;
      else
        EXPECT_EQ(*decided, it->second) << "disagreement at process " << i;
    }
    EXPECT_TRUE(decided.has_value()) << "nobody decided instance " << k;
    return decided.value_or(-1);
  }

  [[nodiscard]] std::size_t deciders(std::uint64_t k) const {
    std::size_t c = 0;
    for (const auto& d : decisions) c += d.contains(k);
    return c;
  }

  net::System sys;
  fd::QosFailureDetectorModel fd;
  std::vector<std::unique_ptr<rbcast::ReliableBroadcast>> rbs;
  std::vector<std::unique_ptr<ConsensusService>> services;
  std::vector<std::map<std::uint64_t, int>> decisions;
};

TEST(Consensus, FailureFreeDecidesCoordinatorValue) {
  Fixture f(3);
  f.propose_all(1);
  f.sys.scheduler().run();
  // Round-1 coordinator with offset 0 is p0; its value must win (validity:
  // it proposes its own initial value in the optimized first round).
  EXPECT_EQ(f.check_agreement(1), 0);
  EXPECT_EQ(f.deciders(1), 3u);
}

TEST(Consensus, AllDecideForVariousN) {
  for (int n : {1, 2, 3, 4, 5, 7, 9}) {
    Fixture f(n);
    f.propose_all(1);
    f.sys.scheduler().run();
    EXPECT_EQ(f.deciders(1), static_cast<std::size_t>(n)) << "n=" << n;
    f.check_agreement(1);
  }
}

TEST(Consensus, OffsetSelectsRoundOneCoordinator) {
  Fixture f(5);
  f.propose_all(1, 0, /*offset=*/3);
  f.sys.scheduler().run();
  EXPECT_EQ(f.check_agreement(1), 3);
}

TEST(Consensus, FailureFreeMessagePattern) {
  // Fig. 1: one proposal multicast, n-1 unicast acks, one decision
  // multicast (the initial data dissemination belongs to abcast, not
  // consensus).  Total wire slots: 2 multicasts + (n-1) unicasts.
  Fixture f(5);
  f.propose_all(1);
  f.sys.scheduler().run();
  EXPECT_EQ(f.sys.network().network_uses(), 2u + 4u);
}

TEST(Consensus, CoordinatorCrashBeforeProposeTriggersRoundTwo) {
  fd::QosParams qp;
  qp.detection_time = 20.0;
  Fixture f(3, qp);
  f.sys.crash(0);  // round-1 coordinator dead from the start
  f.propose_all(1);
  f.sys.scheduler().run();
  EXPECT_EQ(f.deciders(1), 2u);
  // Round 2's coordinator is p1; its estimate (its own initial, since no
  // value was locked) must win.
  EXPECT_EQ(f.check_agreement(1), 1);
}

TEST(Consensus, CoordinatorCrashAfterProposeStillDecides) {
  fd::QosParams qp;
  qp.detection_time = 50.0;
  Fixture f(5, qp);
  f.propose_all(1);
  // Let the proposal go out (it is on the CPU/wire within ~3ms), then
  // crash the coordinator before it can collect acks.
  f.sys.scheduler().run_until(2.0);
  f.sys.crash(0);
  f.sys.scheduler().run();
  ASSERT_EQ(f.deciders(1), 4u);
  // Agreement must hold regardless of which round decided.
  f.check_agreement(1);
}

TEST(Consensus, DecisionReachesLateJoiner) {
  // p2 never proposes explicitly; it joins when consensus traffic arrives,
  // and must still learn the decision.
  Fixture f(3);
  for (int i : {0, 1})
    f.services[static_cast<std::size_t>(i)]->start(
        InstanceKey{kCtx, 1}, StartInfo{&f.sys.all(), 0, f.sys.arena().make<Value>(i)});
  f.sys.scheduler().run();
  EXPECT_EQ(f.deciders(1), 3u);
  f.check_agreement(1);
}

TEST(Consensus, SingleWrongSuspicionDoesNotKillTheRound) {
  // One process nacks (wrong suspicion of the coordinator) but the
  // coordinator still gathers a majority of acks and decides in round 1.
  Fixture f(5);
  f.propose_all(1);
  // Inject a wrong suspicion at p4 right after the proposal is sent.
  f.sys.scheduler().schedule_at(4.0, [&] {
    f.fd.at(4).set_suspected(0, true);
    f.fd.at(4).set_suspected(0, false);
  });
  f.sys.scheduler().run();
  EXPECT_EQ(f.deciders(1), 5u);
  EXPECT_EQ(f.check_agreement(1), 0);
}

TEST(Consensus, MajorityWrongSuspicionsStillAgree) {
  Fixture f(5);
  f.propose_all(1);
  f.sys.scheduler().schedule_at(4.0, [&] {
    for (int q = 1; q < 5; ++q) {
      f.fd.at(q).set_suspected(0, true);
      f.fd.at(q).set_suspected(0, false);
    }
  });
  f.sys.scheduler().run();
  EXPECT_GE(f.deciders(1), 5u);
  f.check_agreement(1);
}

TEST(Consensus, ConcurrentInstancesAreIndependent) {
  Fixture f(3);
  f.propose_all(1, 10);
  f.propose_all(2, 20);
  f.propose_all(3, 30);
  f.sys.scheduler().run();
  EXPECT_EQ(f.check_agreement(1), 10);
  EXPECT_EQ(f.check_agreement(2), 20);
  EXPECT_EQ(f.check_agreement(3), 30);
}

TEST(Consensus, TwoProcessSystemToleratesNoCrashButDecides) {
  Fixture f(2);
  f.propose_all(1);
  f.sys.scheduler().run();
  EXPECT_EQ(f.deciders(1), 2u);
  EXPECT_EQ(f.check_agreement(1), 0);
}

TEST(Consensus, DecidedInstanceIgnoresStragglers) {
  Fixture f(3);
  f.propose_all(1);
  f.sys.scheduler().run();
  EXPECT_TRUE(f.services[0]->decided(InstanceKey{kCtx, 1}));
  EXPECT_FALSE(f.services[0]->running(InstanceKey{kCtx, 1}));
  // Restarting a decided instance is a no-op.
  f.services[0]->start(InstanceKey{kCtx, 1},
                       StartInfo{&f.sys.all(), 0, f.sys.arena().make<Value>(99)});
  f.sys.scheduler().run();
  EXPECT_EQ(f.decisions[0].at(1), 0);
}

TEST(Consensus, ValidityDecisionIsSomeProposal) {
  // Under arbitrary wrong suspicions the decided value must still be one
  // of the proposed values.
  fd::QosParams qp;
  qp.wrong_suspicions = true;
  qp.mistake_recurrence = 30.0;
  qp.mistake_duration = 5.0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    Fixture f(5, qp, seed);
    f.propose_all(1, 10);
    f.sys.scheduler().run_until(20000.0);
    if (f.deciders(1) == 0) continue;  // extreme schedules may stall; safety only
    const int v = f.check_agreement(1);
    EXPECT_GE(v, 10);
    EXPECT_LT(v, 15);
  }
}

// ---------------------------------------------------------------- property

struct PropertyParam {
  int n;
  std::uint64_t seed;
  int crashes;        // crashed during the run (minority)
  bool suspicions;    // wrong suspicions enabled
};

class ConsensusProperty : public ::testing::TestWithParam<PropertyParam> {};

TEST_P(ConsensusProperty, UniformAgreementValidityTermination) {
  const PropertyParam p = GetParam();
  fd::QosParams qp;
  qp.detection_time = 15.0;
  if (p.suspicions) {
    qp.wrong_suspicions = true;
    qp.mistake_recurrence = 60.0;
    qp.mistake_duration = 2.0;
  }
  Fixture f(p.n, qp, p.seed);
  f.propose_all(1, 10);
  // Crash a minority at staggered random-ish times derived from the seed.
  sim::Rng rng(p.seed);
  for (int c = 0; c < p.crashes; ++c) {
    const auto victim = static_cast<net::ProcessId>(c);  // includes coordinator p0
    f.sys.crash_at(victim, 1.0 + rng.uniform(0.0, 25.0));
  }
  f.sys.scheduler().run_until(20000.0);

  // Termination: every correct process decides (with a live majority).
  std::size_t correct = 0;
  for (int i = 0; i < p.n; ++i) correct += !f.sys.node(i).crashed();
  ASSERT_GT(correct * 2, static_cast<std::size_t>(p.n));
  std::size_t correct_deciders = 0;
  for (int i = 0; i < p.n; ++i)
    if (!f.sys.node(i).crashed() && f.decisions[static_cast<std::size_t>(i)].contains(1))
      ++correct_deciders;
  EXPECT_EQ(correct_deciders, correct);

  // Uniform agreement (includes decisions at processes that later crashed)
  // and validity.
  const int v = f.check_agreement(1);
  EXPECT_GE(v, 10);
  EXPECT_LT(v, 10 + p.n);
}

std::vector<PropertyParam> property_grid() {
  std::vector<PropertyParam> out;
  for (int n : {3, 5, 7})
    for (std::uint64_t seed : {1ULL, 2ULL, 3ULL, 4ULL, 5ULL})
      for (int crashes : {0, 1, (n - 1) / 2})
        for (bool susp : {false, true})
          out.push_back({n, seed * 17 + static_cast<std::uint64_t>(crashes), crashes, susp});
  return out;
}

INSTANTIATE_TEST_SUITE_P(Sweep, ConsensusProperty, ::testing::ValuesIn(property_grid()),
                         [](const ::testing::TestParamInfo<PropertyParam>& info) {
                           const auto& p = info.param;
                           return "i" + std::to_string(info.index) + "_n" + std::to_string(p.n) +
                                  "_c" + std::to_string(p.crashes) +
                                  (p.suspicions ? "_susp" : "_clean");
                         });

}  // namespace
}  // namespace fdgm::consensus
