// Tests of the Chandra-Toueg (FD) atomic broadcast: the uniform atomic
// broadcast properties — validity, uniform agreement, uniform integrity,
// uniform total order — in failure-free runs, under crashes, and under
// wrong suspicions; plus aggregation, message-pattern and re-numbering
// behaviour.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "abcast/fd_abcast.hpp"
#include "abcast_testing.hpp"
#include "fd/qos_model.hpp"
#include "net/system.hpp"

namespace fdgm::abcast {
namespace {

using Fixture = StackFixture<FdAbcastProcess, FdAbcastConfig>;

TEST(FdAbcast, SingleMessageDeliveredEverywhere) {
  Fixture f(3);
  const MsgId id = f.procs[1]->a_broadcast();
  f.sys.scheduler().run();
  f.check_safety({id});
  for (const auto& p : f.procs) EXPECT_EQ(p->delivered_count(), 1u);
}

TEST(FdAbcast, FailureFreeMessagePattern) {
  // Fig. 1: data multicast + proposal multicast + (n-1) acks + decision
  // multicast = 3 multicasts and n-1 unicasts on the wire.
  Fixture f(5);
  f.procs[0]->a_broadcast();
  f.sys.scheduler().run();
  EXPECT_EQ(f.sys.network().network_uses(), 3u + 4u);
}

TEST(FdAbcast, ManyMessagesTotalOrder) {
  Fixture f(3);
  std::vector<MsgId> ids;
  for (int round = 0; round < 20; ++round)
    for (auto& p : f.procs) ids.push_back(p->a_broadcast());
  f.sys.scheduler().run();
  f.check_safety(ids);
  EXPECT_EQ(f.procs[0]->log().size(), 60u);
}

TEST(FdAbcast, InterleavedBroadcastsOverTime) {
  Fixture f(5);
  std::vector<MsgId> ids;
  for (int i = 0; i < 50; ++i) {
    f.sys.scheduler().schedule_at(i * 2.0, [&f, &ids, i] {
      ids.push_back(f.procs[static_cast<std::size_t>(i % 5)]->a_broadcast());
    });
  }
  f.sys.scheduler().run();
  f.check_safety(ids);
  EXPECT_EQ(f.procs[2]->log().size(), 50u);
}

TEST(FdAbcast, AggregationUnderBurst) {
  // A burst of messages broadcast at the same instant must be ordered by
  // far fewer consensus instances than messages (aggregation, §4.1).
  Fixture f(3);
  for (int i = 0; i < 30; ++i) f.procs[0]->a_broadcast();
  f.sys.scheduler().run();
  f.check_safety();
  EXPECT_EQ(f.procs[0]->log().size(), 30u);
  EXPECT_LE(f.procs[0]->decided_instances(), 6u);
}

TEST(FdAbcast, DeliveryOrderWithinDecisionIsById) {
  Fixture f(3);
  // Three messages from distinct origins, same instant: they ride the
  // same consensus and must come out ordered by (origin, seq).
  const MsgId a = f.procs[2]->a_broadcast();
  const MsgId b = f.procs[0]->a_broadcast();
  const MsgId c = f.procs[1]->a_broadcast();
  f.sys.scheduler().run();
  f.check_safety({a, b, c});
  // All three in one decision: check relative order b < c < a.
  const auto& log = f.procs[0]->log();
  std::map<MsgId, std::size_t> pos;
  for (std::size_t i = 0; i < log.size(); ++i) pos[log[i]->id] = i;
  if (f.procs[0]->decided_instances() == 1) {
    EXPECT_LT(pos[b], pos[c]);
    EXPECT_LT(pos[c], pos[a]);
  }
}

TEST(FdAbcast, CrashedProcessBroadcastIsNoop) {
  Fixture f(3);
  f.sys.crash(1);
  const MsgId id = f.procs[1]->a_broadcast();
  EXPECT_EQ(id.seq, 0u);  // null id
  f.sys.scheduler().run();
  EXPECT_EQ(f.procs[0]->delivered_count(), 0u);
}

TEST(FdAbcast, SurvivesCoordinatorCrash) {
  fd::QosParams qp;
  qp.detection_time = 20.0;
  Fixture f(3, qp);
  const MsgId id = f.procs[1]->a_broadcast();
  f.sys.crash(0);  // round-1 coordinator dies immediately
  f.sys.scheduler().run();
  f.check_safety({id});
  EXPECT_GE(f.procs[1]->delivered_count(), 1u);
  EXPECT_GE(f.procs[2]->delivered_count(), 1u);
}

TEST(FdAbcast, SurvivesCoordinatorCrashMidConsensus) {
  fd::QosParams qp;
  qp.detection_time = 20.0;
  Fixture f(5, qp);
  const MsgId id = f.procs[1]->a_broadcast();
  f.sys.crash_at(0, 4.5);  // after the proposal is out
  f.sys.scheduler().run();
  f.check_safety({id});
}

TEST(FdAbcast, ContinuesAfterCrashSteadyState) {
  fd::QosParams qp;
  qp.detection_time = 10.0;
  Fixture f(5, qp);
  f.sys.crash(3);
  f.sys.crash(4);
  std::vector<MsgId> ids;
  for (int i = 0; i < 30; ++i) {
    f.sys.scheduler().schedule_at(50.0 + i * 3.0, [&f, &ids, i] {
      ids.push_back(f.procs[static_cast<std::size_t>(i % 3)]->a_broadcast());
    });
  }
  f.sys.scheduler().run();
  f.check_safety(ids);
  EXPECT_EQ(f.procs[0]->log().size(), 30u);
}

TEST(FdAbcast, RenumberingMovesCoordinatorAwayFromCrashed) {
  // With re-numbering, after the first decision the crashed p0 stops being
  // the round-1 coordinator, so later messages decide in round 1 without
  // waiting for suspicion.  Compare the delivery time of a late message
  // with and without the optimization.
  struct LateDeliverySink final : DeliverSink {
    net::System* sys = nullptr;
    double delivered_at = -1;
    void on_deliver(const AppMessage& m) override {
      if (m.sent_at >= 500.0 && delivered_at < 0) delivered_at = sys->now();
    }
  };
  auto late_latency = [](bool renumber) {
    fd::QosParams qp;
    qp.detection_time = 100.0;
    FdAbcastConfig fc;
    fc.renumbering = renumber;
    Fixture f(3, qp, 1, fc);
    f.sys.crash(0);
    // Several early messages let the winner anchor move past the pipeline
    // window; then measure a message in the re-numbered steady state.
    for (int i = 0; i < 5; ++i)
      f.sys.scheduler().schedule_at(150.0 + 50.0 * i, [&] { f.procs[1]->a_broadcast(); });
    LateDeliverySink sink;
    sink.sys = &f.sys;
    f.sys.scheduler().schedule_at(500.0, [&] {
      f.procs[1]->a_broadcast();
      f.procs[1]->set_deliver_sink(&sink);
    });
    f.sys.scheduler().run();
    return sink.delivered_at - 500.0;
  };
  const double with = late_latency(true);
  const double without = late_latency(false);
  EXPECT_GT(with, 0.0);
  // Without re-numbering every consensus pays an extra round (nack the
  // permanently suspected p0, estimates to p1, ...); with it, the
  // steady-state latency is the failure-free one (paper §7: "the
  // steady-state latency is the same regardless of which processes we
  // forced to crash ... the optimization incurs no cost").
  EXPECT_LT(with, 12.0);
  EXPECT_GT(without, with + 2.0);
}

TEST(FdAbcast, WrongSuspicionsDoNotBreakSafety) {
  fd::QosParams qp;
  qp.wrong_suspicions = true;
  qp.mistake_recurrence = 40.0;
  qp.mistake_duration = 3.0;
  for (std::uint64_t seed : {1, 2, 3, 4, 5}) {
    Fixture f(3, qp, seed);
    std::vector<MsgId> ids;
    for (int i = 0; i < 40; ++i) {
      f.sys.scheduler().schedule_at(i * 5.0, [&f, &ids, i] {
        ids.push_back(f.procs[static_cast<std::size_t>(i % 3)]->a_broadcast());
      });
    }
    f.sys.scheduler().run_until(5000.0);
    f.check_safety(ids);
  }
}

TEST(FdAbcast, UniformAgreementIncludesCrashedDeliveries) {
  // Whatever a process delivered before crashing must be (eventually)
  // delivered by the correct processes, in the same order — guaranteed
  // here by prefix-checking logs of crashed processes too.
  fd::QosParams qp;
  qp.detection_time = 15.0;
  Fixture f(5, qp, 3);
  std::vector<MsgId> ids;
  for (int i = 0; i < 20; ++i) {
    f.sys.scheduler().schedule_at(i * 2.0, [&f, &ids, i] {
      ids.push_back(f.procs[static_cast<std::size_t>(i % 5)]->a_broadcast());
    });
  }
  f.sys.crash_at(2, 17.0);
  f.sys.crash_at(0, 23.0);
  f.sys.scheduler().run();
  f.check_safety();
  // Correct processes must have delivered everything broadcast by correct
  // processes.
  std::vector<MsgId> from_correct;
  for (const MsgId& id : ids)
    if (id.seq != 0 && id.origin != 0 && id.origin != 2) from_correct.push_back(id);
  f.check_safety(from_correct);
}

TEST(FdAbcast, DeterministicGivenSeed) {
  auto run_once = [](std::uint64_t seed) {
    Fixture f(3, {}, seed);
    for (int i = 0; i < 10; ++i)
      f.sys.scheduler().schedule_at(i * 3.0,
                                    [&f, i] { f.procs[static_cast<std::size_t>(i % 3)]->a_broadcast(); });
    f.sys.scheduler().run();
    return log_ids(*f.procs[0]);
  };
  EXPECT_EQ(run_once(7), run_once(7));
}

// ------------------------------------------------------------- property

class FdAbcastProperty : public ::testing::TestWithParam<SweepParam> {};

TEST_P(FdAbcastProperty, SafetyUnderRandomFaultSchedules) {
  const SweepParam p = GetParam();
  fd::QosParams qp;
  qp.detection_time = 12.0;
  if (p.suspicions) {
    qp.wrong_suspicions = true;
    qp.mistake_recurrence = 80.0;
    qp.mistake_duration = 4.0;
  }
  Fixture f(p.n, qp, p.seed);
  sim::Rng rng(p.seed * 31 + 7);
  f.random_load(rng, p.crashes);
  f.sys.scheduler().run_until(20000.0);
  f.check_safety();
  // Liveness: messages from never-crashed senders delivered at correct
  // processes.
  f.check_safety(f.from_correct);
}

INSTANTIATE_TEST_SUITE_P(Sweep, FdAbcastProperty, ::testing::ValuesIn(sweep_grid()), sweep_name);

}  // namespace
}  // namespace fdgm::abcast
