// Golden-seed determinism: one FD and one GM steady-state run (n = 5,
// wrong suspicions on, fixed seed) must reproduce the exact delivery
// sequence — process, message id, broadcast time and delivery time of
// every local A-delivery, in global event order — that the pre-refactor
// event core produced.  The committed hashes were captured from the PR-2
// core; any accidental change to event ordering (scheduler FIFO ties,
// network pipeline stage order, payload handling) shows up here long
// before it would surface as a drifting results CSV.
#include <gtest/gtest.h>

#include <cstdint>

#include "core/experiment.hpp"
#include "delivery_hash.hpp"
#include "fault/fault_schedule.hpp"

namespace fdgm::core {
namespace {

/// The golden-seed configuration: n = 5, wrong suspicions on, fixed seed.
SimConfig golden_config(Algorithm algo) {
  SimConfig cfg;
  cfg.algorithm = algo;
  cfg.n = 5;
  cfg.seed = 424242;
  cfg.fd_params.detection_time = 30.0;
  cfg.fd_params.wrong_suspicions = true;
  cfg.fd_params.mistake_recurrence = 2000.0;
  cfg.fd_params.mistake_duration = 50.0;
  return cfg;
}

/// Runs `cfg` for 3 s at T = 200/s and hashes every local A-delivery plus
/// the executed-event count.
std::uint64_t run_hash(const SimConfig& cfg) {
  SimRun run(cfg, WorkloadConfig{.throughput = 200.0});
  DeliveryHash hash(run);
  run.start();
  run.run_until(3000.0);
  hash.mix(run.system().scheduler().executed());
  return hash.value();
}

std::uint64_t delivery_hash(Algorithm algo,
                            sim::SchedulerBackend backend = sim::SchedulerBackend::kHeap,
                            bool transport = false, bool batching = false,
                            bool observed = false, int threads = 0) {
  SimConfig cfg = golden_config(algo);
  cfg.scheduler.backend = backend;
  cfg.scheduler.threads = threads;
  cfg.transport.enabled = transport;
  cfg.batching.enabled = batching;
  cfg.obs.enabled = observed;
  return run_hash(cfg);
}

/// The golden configuration with the first coordinator / sequencer p0
/// crashing and recovering: covers the FD stack's SYNC-REQ/RESP catch-up
/// and the GM stack's restart, exclusion, rejoin and state transfer.
std::uint64_t crash_recovery_hash(Algorithm algo,
                                  sim::SchedulerBackend backend = sim::SchedulerBackend::kHeap) {
  SimConfig cfg = golden_config(algo);
  cfg.scheduler.backend = backend;
  cfg.faults = fault::FaultSchedule::parse("crash p0 @1000; recover p0 @1800");
  return run_hash(cfg);
}

// Captured from the pre-refactor (PR-2) core at the same config; see the
// file comment.  If a change legitimately alters event ordering, recapture
// both constants and say so loudly in the PR.
constexpr std::uint64_t kGoldenFd = 0xbe21fd2abfc47b91ULL;
constexpr std::uint64_t kGoldenGm = 0x04be61f21cc65d6eULL;

TEST(GoldenSeed, FdDeliverySequenceMatchesPreRefactorCore) {
  EXPECT_EQ(delivery_hash(Algorithm::kFd), kGoldenFd);
}

TEST(GoldenSeed, GmDeliverySequenceMatchesPreRefactorCore) {
  EXPECT_EQ(delivery_hash(Algorithm::kGm), kGoldenGm);
}

// Crash-recovery goldens: no other golden crashes a process, so these pin
// the recovery paths of both stacks (log catch-up, view changes, state
// transfer) the same way the steady-state goldens pin the data plane.
constexpr std::uint64_t kGoldenFdCrashRecovery = 0x3565e0935f6c484cULL;
constexpr std::uint64_t kGoldenGmCrashRecovery = 0x6f10d41b13c97f6dULL;

TEST(GoldenSeed, FdCrashRecoveryDeliverySequence) {
  EXPECT_EQ(crash_recovery_hash(Algorithm::kFd), kGoldenFdCrashRecovery);
}

TEST(GoldenSeed, GmCrashRecoveryDeliverySequence) {
  EXPECT_EQ(crash_recovery_hash(Algorithm::kGm), kGoldenGmCrashRecovery);
}

TEST(GoldenSeed, WheelBackendMatchesHeapCrashRecovery) {
  EXPECT_EQ(crash_recovery_hash(Algorithm::kFd, sim::SchedulerBackend::kWheel),
            kGoldenFdCrashRecovery);
  EXPECT_EQ(crash_recovery_hash(Algorithm::kGm, sim::SchedulerBackend::kWheel),
            kGoldenGmCrashRecovery);
}

// The hash must also be invariant to repetition within one process (no
// hidden global state in the refactored core).
TEST(GoldenSeed, HashIsStableAcrossRepeatedRuns) {
  EXPECT_EQ(delivery_hash(Algorithm::kFd), delivery_hash(Algorithm::kFd));
}

// The timing-wheel scheduler backend must reproduce the heap backend's
// delivery sequences bit-for-bit — same golden constants, not merely
// self-consistency.  This is the protocol-stack-level proof that the two
// backends order events identically (the scheduler unit tests fuzz the
// same property on synthetic loads).
TEST(GoldenSeed, WheelBackendMatchesHeapGoldenFd) {
  EXPECT_EQ(delivery_hash(Algorithm::kFd, sim::SchedulerBackend::kWheel), kGoldenFd);
}

TEST(GoldenSeed, WheelBackendMatchesHeapGoldenGm) {
  EXPECT_EQ(delivery_hash(Algorithm::kGm, sim::SchedulerBackend::kWheel), kGoldenGm);
}

// The armed retransmission transport must be invisible on loss-free
// channels: with nothing to recover it stamps frames (counter arithmetic
// in the existing wire-completion events) but schedules no timers and
// sends no control frames, so the delivery sequence AND the executed
// event count reproduce the same golden constants — the strongest form
// of the "bit-identical when loss is off" guarantee, checked for both
// scheduler backends.
TEST(GoldenSeed, TransportArmedMatchesGoldenFd) {
  EXPECT_EQ(delivery_hash(Algorithm::kFd, sim::SchedulerBackend::kHeap, true), kGoldenFd);
}

TEST(GoldenSeed, TransportArmedMatchesGoldenGm) {
  EXPECT_EQ(delivery_hash(Algorithm::kGm, sim::SchedulerBackend::kHeap, true), kGoldenGm);
}

TEST(GoldenSeed, TransportArmedWheelMatchesGoldenFd) {
  EXPECT_EQ(delivery_hash(Algorithm::kFd, sim::SchedulerBackend::kWheel, true), kGoldenFd);
}

TEST(GoldenSeed, TransportArmedWheelMatchesGoldenGm) {
  EXPECT_EQ(delivery_hash(Algorithm::kGm, sim::SchedulerBackend::kWheel, true), kGoldenGm);
}

// Batching armed: the delivery sequence legitimately differs from the
// unbatched goldens (submissions ride flush timers and batch payloads),
// but it must be just as deterministic — its own golden constants,
// reproduced bit-for-bit by both scheduler backends and across repeats.
constexpr std::uint64_t kGoldenFdBatch = 0x811dfe8fedd5b845ULL;
constexpr std::uint64_t kGoldenGmBatch = 0x37617f72e9f8c429ULL;

TEST(GoldenSeed, BatchingArmedGoldenFd) {
  EXPECT_EQ(delivery_hash(Algorithm::kFd, sim::SchedulerBackend::kHeap, false, true),
            kGoldenFdBatch);
}

TEST(GoldenSeed, BatchingArmedGoldenGm) {
  EXPECT_EQ(delivery_hash(Algorithm::kGm, sim::SchedulerBackend::kHeap, false, true),
            kGoldenGmBatch);
}

TEST(GoldenSeed, BatchingArmedWheelMatchesHeapGoldenFd) {
  EXPECT_EQ(delivery_hash(Algorithm::kFd, sim::SchedulerBackend::kWheel, false, true),
            kGoldenFdBatch);
}

TEST(GoldenSeed, BatchingArmedWheelMatchesHeapGoldenGm) {
  EXPECT_EQ(delivery_hash(Algorithm::kGm, sim::SchedulerBackend::kWheel, false, true),
            kGoldenGmBatch);
}

// Observability armed: the observer is strictly passive — it never
// schedules events and never draws from the RNG — so arming it must
// reproduce the *same* golden constants (delivery sequence AND executed
// event count), not merely a self-consistent one.  This is stronger than
// "off is free": tracing a run cannot perturb it.  Checked across both
// scheduler backends, with the transport armed, and with batching on.
TEST(GoldenSeed, ObserverArmedMatchesGoldenFd) {
  EXPECT_EQ(delivery_hash(Algorithm::kFd, sim::SchedulerBackend::kHeap, false, false, true),
            kGoldenFd);
}

TEST(GoldenSeed, ObserverArmedMatchesGoldenGm) {
  EXPECT_EQ(delivery_hash(Algorithm::kGm, sim::SchedulerBackend::kHeap, false, false, true),
            kGoldenGm);
}

TEST(GoldenSeed, ObserverArmedWheelMatchesGoldenFd) {
  EXPECT_EQ(delivery_hash(Algorithm::kFd, sim::SchedulerBackend::kWheel, false, false, true),
            kGoldenFd);
}

TEST(GoldenSeed, ObserverArmedWheelMatchesGoldenGm) {
  EXPECT_EQ(delivery_hash(Algorithm::kGm, sim::SchedulerBackend::kWheel, false, false, true),
            kGoldenGm);
}

TEST(GoldenSeed, ObserverArmedWithTransportMatchesGoldenFd) {
  EXPECT_EQ(delivery_hash(Algorithm::kFd, sim::SchedulerBackend::kHeap, true, false, true),
            kGoldenFd);
}

TEST(GoldenSeed, ObserverArmedWithTransportMatchesGoldenGm) {
  EXPECT_EQ(delivery_hash(Algorithm::kGm, sim::SchedulerBackend::kHeap, true, false, true),
            kGoldenGm);
}

TEST(GoldenSeed, ObserverArmedBatchingGoldenFd) {
  EXPECT_EQ(delivery_hash(Algorithm::kFd, sim::SchedulerBackend::kHeap, false, true, true),
            kGoldenFdBatch);
}

TEST(GoldenSeed, ObserverArmedBatchingGoldenGm) {
  EXPECT_EQ(delivery_hash(Algorithm::kGm, sim::SchedulerBackend::kHeap, false, true, true),
            kGoldenGmBatch);
}

// The parallel (conservative-PDES) backend must reproduce the sequential
// goldens bit for bit — delivery sequence, RNG draws AND executed event
// count (the hash mixes it) — for every thread count.  threads = 1 runs
// rounds through the full staging machinery on the caller alone, which
// isolates the round/barrier logic from actual concurrency; threads = 2
// and 8 add real worker interleavings on top.  Covered in every armed
// variant whose state crosses partitions differently: plain, loss-free
// transport, batching, and the observer.
class GoldenSeedParallel : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(Threads, GoldenSeedParallel, ::testing::Values(1, 2, 8));

TEST_P(GoldenSeedParallel, MatchesGoldenFd) {
  EXPECT_EQ(delivery_hash(Algorithm::kFd, sim::SchedulerBackend::kParallel, false, false, false,
                          GetParam()),
            kGoldenFd);
}

TEST_P(GoldenSeedParallel, MatchesGoldenGm) {
  EXPECT_EQ(delivery_hash(Algorithm::kGm, sim::SchedulerBackend::kParallel, false, false, false,
                          GetParam()),
            kGoldenGm);
}

TEST_P(GoldenSeedParallel, TransportArmedMatchesGoldenFd) {
  EXPECT_EQ(delivery_hash(Algorithm::kFd, sim::SchedulerBackend::kParallel, true, false, false,
                          GetParam()),
            kGoldenFd);
}

TEST_P(GoldenSeedParallel, TransportArmedMatchesGoldenGm) {
  EXPECT_EQ(delivery_hash(Algorithm::kGm, sim::SchedulerBackend::kParallel, true, false, false,
                          GetParam()),
            kGoldenGm);
}

TEST_P(GoldenSeedParallel, BatchingArmedGoldenFd) {
  EXPECT_EQ(delivery_hash(Algorithm::kFd, sim::SchedulerBackend::kParallel, false, true, false,
                          GetParam()),
            kGoldenFdBatch);
}

TEST_P(GoldenSeedParallel, BatchingArmedGoldenGm) {
  EXPECT_EQ(delivery_hash(Algorithm::kGm, sim::SchedulerBackend::kParallel, false, true, false,
                          GetParam()),
            kGoldenGmBatch);
}

TEST_P(GoldenSeedParallel, ObserverArmedMatchesGoldenFd) {
  EXPECT_EQ(delivery_hash(Algorithm::kFd, sim::SchedulerBackend::kParallel, false, false, true,
                          GetParam()),
            kGoldenFd);
}

TEST_P(GoldenSeedParallel, ObserverArmedMatchesGoldenGm) {
  EXPECT_EQ(delivery_hash(Algorithm::kGm, sim::SchedulerBackend::kParallel, false, false, true,
                          GetParam()),
            kGoldenGm);
}

// Executed-event counts asserted directly (not only through the hash):
// the parallel backend must execute exactly the events the heap backend
// does — neither skipping stale records differently nor double-running
// staged work.
TEST(GoldenSeedParallel_Counts, ExecutedEventCountMatchesHeap) {
  for (Algorithm algo : {Algorithm::kFd, Algorithm::kGm}) {
    std::uint64_t heap_executed = 0;
    {
      SimConfig cfg;
      cfg.algorithm = algo;
      cfg.n = 5;
      cfg.seed = 424242;
      cfg.fd_params.detection_time = 30.0;
      cfg.fd_params.wrong_suspicions = true;
      cfg.fd_params.mistake_recurrence = 2000.0;
      cfg.fd_params.mistake_duration = 50.0;
      SimRun run(cfg, WorkloadConfig{.throughput = 200.0});
      run.start();
      run.run_until(3000.0);
      heap_executed = run.system().scheduler().executed();
    }
    for (int threads : {1, 2, 8}) {
      SimConfig cfg;
      cfg.algorithm = algo;
      cfg.n = 5;
      cfg.seed = 424242;
      cfg.scheduler.backend = sim::SchedulerBackend::kParallel;
      cfg.scheduler.threads = threads;
      cfg.fd_params.detection_time = 30.0;
      cfg.fd_params.wrong_suspicions = true;
      cfg.fd_params.mistake_recurrence = 2000.0;
      cfg.fd_params.mistake_duration = 50.0;
      SimRun run(cfg, WorkloadConfig{.throughput = 200.0});
      run.start();
      run.run_until(3000.0);
      EXPECT_EQ(run.system().scheduler().executed(), heap_executed)
          << algorithm_name(algo) << " threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace fdgm::core
