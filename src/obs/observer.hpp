// Deterministic simulation-time observability: per-message lifecycle
// spans, the per-node counter registry and phase-latency decomposition.
//
// Design contract (mirrors the transport's PR-5 discipline):
//
//  * Disarmed (the default) the subsystem is a null pointer — every hook
//    site is `if (auto* o = sys->obs())`, so runs are bit-identical to a
//    build without it: no events, no RNG draws, no allocations.
//  * Armed it is *passive*: the Observer never schedules events, never
//    draws randomness and never touches protocol state.  Metrics windows
//    roll lazily off the timestamps the hooks already carry.  An armed
//    run therefore reproduces the same golden delivery hashes and
//    executed-event counts as a disarmed one (asserted by the
//    determinism tests), which is a stronger property than "off is
//    free": tracing a run cannot perturb it.
//  * Armed steady state is allocation-free: span slabs are dense
//    per-origin vectors reserved up front, counters are fixed arrays,
//    metrics snapshots live in a pre-reserved ring.  When a slab fills,
//    new spans are dropped and counted (flight-recorder semantics)
//    instead of growing.  perf-smoke asserts allocs_per_event == 0 on
//    the armed kernels.
//
// Lifecycle model (one Span per A-broadcast message, timestamps in
// simulated ms, first-write-wins so the *global* first transition is
// recorded):
//
//    submit       a_broadcast accepted the message at its origin
//    order_start  it left the submission queue into the ordering
//                 machinery (== submit when batching is off)
//    ordered      its global order was fixed (FD: first consensus
//                 decision covering it; GM: sequencer seq-assignment)
//    delivered    first A-delivery anywhere
//
// The phase decomposition reported by the runner and the lossy
// decomposition scenario is the differences of those timestamps:
// submission-wait, ordering, and delivery (under loss: dominated by
// transport recovery of the decision / SEQNUM / content frames).
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "obs/causal.hpp"
#include "obs/counters.hpp"
#include "util/histogram.hpp"

namespace fdgm::obs {

/// Arming + sizing knobs (core::SimConfig::obs).
struct Config {
  /// Off by default: the observer is never constructed and every hook
  /// collapses to a null-pointer test.
  bool enabled = false;
  /// Causal edge recording (hop markers, recovery stalls, sequencer /
  /// consensus anchors) for critical-path extraction.  Off by default:
  /// no edge slabs are reserved and every trace_marker/trace_stall site
  /// short-circuits on causal().
  bool causal = false;
  /// Metrics snapshot cadence (simulated ms).  Windows roll lazily at
  /// hook invocations — no timer events are ever scheduled.
  double metrics_window_ms = 100.0;
  /// Lifecycle span slots per origin process.  Message seq numbers are
  /// dense per origin, so this bounds the traceable messages per sender;
  /// beyond it spans are dropped and counted.
  std::size_t span_capacity = 8192;
  /// Causal edge slots per origin process (flight recorder like the span
  /// slabs: a full slab drops and counts instead of growing).
  std::size_t edge_capacity = 65536;
  /// Metrics snapshot rows kept (flight recorder: drops are counted).
  std::size_t snapshot_capacity = 8192;
  /// Also keep per-node counter rows at every metrics window (the
  /// --metrics-per-node export); off by default, the aggregate snapshot
  /// ring alone is kept.
  bool per_node_metrics = false;
};

/// One message's lifecycle (timestamps in simulated ms; -1 = not seen).
struct Span {
  double submit = -1.0;
  double order_start = -1.0;
  double ordered = -1.0;
  double delivered = -1.0;
  /// Node where the global order was fixed (FD: deciding process whose
  /// decision was first; GM: the sequencer); -1 when unreported.
  std::int16_t ordered_node = -1;
  /// Node of the global-first A-delivery; -1 when unreported.
  std::int16_t deliver_node = -1;
};

/// Aggregated phase decomposition over a set of completed spans.
struct PhaseTotals {
  std::size_t count = 0;       // delivered messages covered
  double submit_wait_ms = 0.0;  // sum over messages: order_start - submit
  double ordering_ms = 0.0;     // sum: ordered - order_start
  double delivery_ms = 0.0;     // sum: delivered - ordered
};

/// Empirical Chen-Toueg-Aguilera QoS aggregates of the armed failure
/// detector, measured from the per-pair suspect/trust transitions against
/// the ground-truth crash state the Injector / System reports.  Raw sums
/// and counts so replica results add; divide for the per-sample means:
///   T_D   = td_sum_ms / detections      (crash to first suspicion)
///   T_M   = tm_sum_ms / tm_count        (wrong-suspicion duration)
///   T_MR  = tmr_sum_ms / tmr_count      (gap between mistake starts)
struct QosMeasured {
  std::uint64_t transitions = 0;  // suspect/trust edges observed
  std::uint64_t detections = 0;   // first suspicion per (monitor, crash)
  double td_sum_ms = 0.0;
  std::uint64_t mistakes = 0;     // suspicions of an alive process
  std::uint64_t tm_count = 0;     // completed mistake durations
  double tm_sum_ms = 0.0;
  std::uint64_t tmr_count = 0;    // consecutive mistake-start gaps
  double tmr_sum_ms = 0.0;

  QosMeasured& operator+=(const QosMeasured& o) {
    transitions += o.transitions;
    detections += o.detections;
    td_sum_ms += o.td_sum_ms;
    mistakes += o.mistakes;
    tm_count += o.tm_count;
    tm_sum_ms += o.tm_sum_ms;
    tmr_count += o.tmr_count;
    tmr_sum_ms += o.tmr_sum_ms;
    return *this;
  }
};

class Observer {
 public:
  Observer(int num_processes, Config cfg);

  Observer(const Observer&) = delete;
  Observer& operator=(const Observer&) = delete;
  ~Observer();

  // ---- lifecycle hooks (hot path; allocation-free, first-write-wins) ----
  void on_submit(int origin, std::uint64_t seq, double now);
  void on_order_start(int origin, std::uint64_t seq, double now);
  /// `node` is where the order was fixed / the delivery happened; -1 for
  /// callers that have no node to report (tests, legacy sites).
  void on_ordered(int origin, std::uint64_t seq, double now, int node = -1);
  void on_delivered(int origin, std::uint64_t seq, double now, int node = -1);

  // ---- causal edges (hot path iff causal(); allocation-free) ----
  [[nodiscard]] bool causal() const { return cfg_.enabled && cfg_.causal; }
  /// Records one edge into the origin's slab.  `key` packs (origin,
  /// kind, node) — see edge_key(); markers carry t0 == t1.  Stages
  /// itself under the parallel backend like every other hook.
  void on_edge(std::uint32_t key, std::uint64_t seq, double t0, double t1);
  /// Records a point marker (kind, node, now) for every message in
  /// `refs`.  No-op unless causal() — callers may skip classify by
  /// guarding on causal() themselves.
  void trace_marker(EdgeKind kind, int node, const MsgRefList& refs, double now);
  /// Records a stall interval [t0, t1) for every message in `refs`.
  void trace_stall(EdgeKind kind, int node, const MsgRefList& refs, double t0, double t1);

  // ---- empirical FD QoS meter (hot path; armed observer, any config) ----
  /// Ground-truth crash state transitions (net::System::crash/restart).
  void on_crash(int p, double now);
  void on_recover(int p, double now);
  /// One suspect/trust edge at `monitor` about `target`.  flags bit 0 =
  /// suspected now, bit 1 = target actually crashed at this instant.
  /// Callers report only real transitions (the prior state differed).
  void on_fd_transition(int monitor, int target, int flags, double now);

  // ---- counters / gauges (hot path) ----
  void count(int node, Counter c, double now, std::uint64_t delta = 1);
  /// kTransportRetx at `origin` plus the per-origin retx tally the
  /// sequencer-concentration metric reads.
  void on_retransmit(int origin, double now);
  /// kBatchesFlushed at `node` plus the batch-size histogram.
  void on_batch_flush(int node, std::size_t batch_size, double now);
  /// Tracks the peak reorder-buffer depth seen at `node`.
  void reorder_depth(int node, std::size_t depth);

  // ---- introspection (cold; tests, runner aggregation) ----
  [[nodiscard]] int n() const { return n_; }
  [[nodiscard]] const Config& config() const { return cfg_; }
  [[nodiscard]] std::uint64_t total(Counter c) const;
  [[nodiscard]] std::uint64_t node_total(int node, Counter c) const;
  [[nodiscard]] std::uint64_t retx_origin(int node) const;
  [[nodiscard]] std::size_t reorder_peak(int node) const;
  [[nodiscard]] std::uint64_t spans_dropped() const { return spans_dropped_; }
  [[nodiscard]] std::uint64_t snapshots_dropped() const { return snapshots_dropped_; }
  [[nodiscard]] std::uint64_t edges_dropped() const { return edges_dropped_; }
  [[nodiscard]] std::size_t edges_recorded() const;
  [[nodiscard]] const QosMeasured& qos_measured() const { return qos_; }
  [[nodiscard]] const util::Histogram& e2e_hist() const { return e2e_hist_; }
  /// Null when (origin, seq) was never recorded.
  [[nodiscard]] const Span* span(int origin, std::uint64_t seq) const;
  [[nodiscard]] std::size_t spans_recorded() const;
  /// Phase sums over messages *submitted* in [from, to) and delivered.
  [[nodiscard]] PhaseTotals phase_totals(double from, double to) const;
  [[nodiscard]] const util::Histogram& batch_hist() const { return batch_hist_; }
  [[nodiscard]] std::size_t snapshot_count() const { return snapshots_.size(); }

  // ---- exports (cold; allocate freely) ----
  /// Chrome trace-event JSON (open in Perfetto / chrome://tracing): one
  /// pid per origin node, one tid per message, three "X" phase spans.
  void write_trace_json(std::ostream& os) const;
  /// Windowed time-series CSV: t_ms + the cumulative counter registry
  /// aggregated across nodes.
  void write_metrics_csv(std::ostream& os) const;
  /// Windowed per-node CSV: t_ms, node + the counter registry, one row
  /// per node per window (requires cfg.per_node_metrics).
  void write_metrics_per_node_csv(std::ostream& os) const;

  // ---- critical-path walker (cold; allocate freely) ----
  /// Walks every message submitted in [from, to) and delivered, pairing
  /// the recorded causal edges into the per-cause decomposition.  The
  /// per-cause sums of each row add up exactly to its end-to-end span.
  [[nodiscard]] std::vector<MsgCausal> critical_paths(double from, double to) const;
  [[nodiscard]] CauseTotals cause_totals(double from, double to) const;
  /// Per-message rows followed by an aggregate per-cause summary block.
  void write_critical_path_csv(std::ostream& os) const;

  // ---- process-global export claiming (fdgm_bench --trace/--metrics) ----
  /// Arms the claim: the next armed Observer constructed in this process
  /// becomes the exporter and writes the files when it is destroyed.
  /// Empty path = that export is off.  The bench driver forces --jobs 1
  /// alongside, so the claimant is deterministically the first replica of
  /// the first point of the first selected scenario.
  static void set_export_paths(std::string trace_path, std::string metrics_path,
                               std::string metrics_per_node_path = "",
                               std::string critical_path_path = "");
  [[nodiscard]] bool claimed_export() const {
    return !trace_path_.empty() || !metrics_path_.empty() ||
           !metrics_per_node_path_.empty() || !critical_path_path_.empty();
  }

 private:
  [[nodiscard]] Span* find(int origin, std::uint64_t seq);
  void roll_window(double now);
  void flush_export() const;

  int n_;
  Config cfg_;
  std::vector<std::vector<Span>> spans_;  // [origin][seq - 1]
  std::vector<std::uint64_t> counters_;   // [node * kCounterCount + c]
  std::vector<std::uint64_t> retx_origin_;
  std::vector<std::size_t> reorder_peak_;
  std::uint64_t spans_dropped_ = 0;
  util::Histogram batch_hist_;
  util::Histogram e2e_hist_;

  // Causal edge slabs, [origin] -> flight-recorder vector (reserved only
  // when cfg.causal; empty and never touched otherwise).
  std::vector<std::vector<Edge>> edges_;
  std::uint64_t edges_dropped_ = 0;

  // ---- FD QoS meter state ----
  struct QosPair {               // [monitor * n + target]
    bool suspected = false;
    std::uint32_t seen_epoch = 0;    // crash epoch already credited with T_D
    double last_mistake_start = -1.0;
    double mistake_open = -1.0;      // >= 0: wrong suspicion in progress
  };
  struct QosTarget {             // [target]
    bool crashed = false;
    std::uint32_t crash_epoch = 0;
    double crash_time = -1.0;
  };
  std::vector<QosPair> qos_pairs_;
  std::vector<QosTarget> qos_targets_;
  QosMeasured qos_;

  struct Snapshot {
    double t = 0.0;
    std::array<std::uint64_t, kCounterCount> agg{};
  };
  std::vector<Snapshot> snapshots_;
  // Per-node rows ride the aggregate ring: rows [i*n_, (i+1)*n_) hold the
  // per-node counter copies of snapshots_[i] (cfg.per_node_metrics only).
  std::vector<std::array<std::uint64_t, kCounterCount>> node_snapshots_;
  std::uint64_t snapshots_dropped_ = 0;
  double next_window_;

  std::string trace_path_;    // non-empty: this observer exports on destruction
  std::string metrics_path_;
  std::string metrics_per_node_path_;
  std::string critical_path_path_;
};

}  // namespace fdgm::obs
