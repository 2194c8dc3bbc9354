// Runs one workload on one stack through the simulator's public API, and
// the per-layer harnesses that time single layers from outside.
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "checker.hpp"
#include "core/experiment.hpp"
#include "obs/causal.hpp"
#include "workloads.hpp"

namespace fdgm::perf {

/// Host-time spans the benchmark records around its own calls into each
/// layer (traced runs only).  Kept in memory; written out at the end as a
/// Chrome trace-event file.
class SpanLog {
 public:
  SpanLog() : origin_(std::chrono::steady_clock::now()) {}

  /// Opens a span under the innermost open one; returns its index.
  int begin(std::string name);
  void end(int id);
  /// Closed spans named `name`: total duration minus the part covered by
  /// their child spans (self time), in host seconds.
  [[nodiscard]] double self_seconds(const std::string& name) const;
  void write_chrome_json(std::ostream& os, const std::string& provenance) const;

 private:
  struct Span {
    std::string name;
    double t0_us = 0.0;
    double t1_us = -1.0;
    int parent = -1;
  };
  [[nodiscard]] double now_us() const {
    return std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - origin_)
        .count();
  }
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; a null log records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, std::string name)
      : log_(log), id_(log != nullptr ? log->begin(std::move(name)) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int id_;
};

struct RunOptions {
  /// Arm the observer with causal recording (traced pass).
  bool traced = false;
  sim::SchedulerConfig scheduler{};
  /// Stop after this much simulated load and skip the drain and the
  /// verdict (backend comparison); <= 0 runs the whole workload.
  double prefix_ms = 0.0;
  /// Count operator-new calls from the end of the warm-up to the end of
  /// the load phase.
  bool count_allocs = false;
  /// Read memory_reference_ms() before construction and after the drain,
  /// and set StackResult::ref_scale from the two readings.
  bool reference = false;
  SpanLog* spans = nullptr;
};

/// Everything one stack's run measured.  Counts are exact for a seed.
struct StackResult {
  core::Algorithm algo = core::Algorithm::kFd;
  std::vector<double> slice_host_ms;  // host ms per simulated second of load
  /// kReferenceNominalMs over the mean of the reference readings around
  /// the run (1 unless RunOptions::reference): host time times this is
  /// host time at the nominal reference speed.
  double ref_scale = 1.0;
  double run_host_s = 0.0;            // load + drain
  Verdict verdict;
  std::uint64_t digest = 0;
  std::vector<double> latencies;  // L(m), simulated ms
  std::uint64_t shed = 0;

  std::uint64_t events = 0;
  std::size_t pending_peak = 0;
  std::uint64_t frames = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t lost = 0;
  std::uint64_t arena_bytes = 0;
  std::uint64_t retx = 0;
  std::uint64_t nacks = 0;
  std::uint64_t dups = 0;
  std::uint64_t retx_p0 = 0;
  std::uint64_t rb_relays = 0;          // FD stack
  std::size_t rb_retained_peak = 0;     // FD stack
  std::uint64_t instances = 0;          // FD stack: decided consensus instances
  std::uint64_t views_installed = 0;    // GM stack
  std::uint64_t faults_fired = 0;
  std::uint64_t allocs = 0;
  std::uint64_t alloc_bytes = 0;
  std::uint64_t alloc_msgs = 0;  // broadcasts in the alloc-counting window

  // Traced pass only (armed observer and delivery tap).
  std::uint64_t suspicions = 0;
  std::uint64_t rounds = 0;
  std::uint64_t round_fails = 0;
  std::uint64_t consensus_msgs = 0;
  obs::CauseTotals causes;
  std::uint64_t edges_recorded = 0;
  std::uint64_t edges_dropped = 0;

  /// Exact counts printed for the determinism self-check.
  [[nodiscard]] std::string counts_line() const;
};

StackResult run_stack(const Workload& w, core::Algorithm algo, const RunOptions& opt);

struct SetupTimes {
  double construct_s = 0.0;
  double start_s = 0.0;
};
/// Host seconds to construct and start() both stacks' simulations.
SetupTimes time_setup(const Workload& w);

// ---- per-layer harnesses (host time, median of repetitions) ----

/// Scheduler public API at `pending` live events: each event re-arms
/// itself at an exponential delay.  Host ns per executed event.
double scheduler_ns_per_event(std::size_t pending, std::uint64_t seed);
/// Network::submit of n-way multicast frames.  Host ns per frame.
double network_ns_per_frame(int n);
/// Paced multicasts through the armed transport at the given loss rate.
/// Host ns per transport frame (fresh + retransmitted).
double transport_ns_per_frame(int n, double loss, std::uint64_t seed);
/// QosFailureDetectorModel construction + start() at the workload's n.
double fd_start_s(const Workload& w);
/// The FD model plus scheduler alone over `sim_ms`: host ms per sim second.
double fd_host_ms_per_sim_s(const Workload& w, double sim_ms);

/// Host speed reference: a fixed, benchmark-owned pointer chase through an
/// 8 MiB single-cycle permutation (cache- and memory-latency bound, like the
/// simulator's hash-table and event-heap work).  Best of 3, in host ms.
double memory_reference_ms();
/// The reading at the speed the end-to-end host times are reported at:
/// about the reference's fast state on the machine the bounds were set on.
constexpr double kReferenceNominalMs = 12.0;

/// Linear-interpolated quantile (q in [0, 1]) of `v` (copied, sorted).
double quantile(std::vector<double> v, double q);

}  // namespace fdgm::perf
