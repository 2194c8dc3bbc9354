#include "obs/observer.hpp"

#include "sim/exec_ctx.hpp"

#include <cmath>
#include <filesystem>
#include <iomanip>
#include <fstream>
#include <iostream>
#include <limits>
#include <mutex>
#include <ostream>

namespace fdgm::obs {

namespace {

// Range (ms) and bin count of the end-to-end latency histogram.
constexpr double kHistMaxMs = 5000.0;
constexpr std::size_t kHistBins = 250;

// Process-global export claim (see Observer::set_export_paths).  The bench
// driver forces --jobs 1 when exports are requested, so no worker thread
// races the first armed Observer for the claim; the mutex is belt and
// braces for embedders that arm exports with parallel replicas anyway.
std::mutex g_export_mu;
std::string g_trace_path;             // NOLINT(runtime/string)
std::string g_metrics_path;           // NOLINT(runtime/string)
std::string g_metrics_per_node_path;  // NOLINT(runtime/string)
std::string g_critical_path_path;     // NOLINT(runtime/string)

}  // namespace

const char* counter_name(Counter c) {
  switch (c) {
    case Counter::kTransportRetx: return "transport_retx";
    case Counter::kTransportRetxNack: return "transport_retx_nack";
    case Counter::kTransportRetxTimer: return "transport_retx_timer";
    case Counter::kTransportNacks: return "transport_nacks";
    case Counter::kTransportDups: return "transport_dups";
    case Counter::kTransportBuffered: return "transport_buffered";
    case Counter::kConsensusRounds: return "consensus_rounds";
    case Counter::kConsensusRoundFails: return "consensus_round_fails";
    case Counter::kSuspicions: return "suspicions";
    case Counter::kViewChanges: return "view_changes";
    case Counter::kBatchesFlushed: return "batches_flushed";
    case Counter::kCreditSheds: return "credit_sheds";
    case Counter::kCorruptionDetected: return "corruption_detected";
    case Counter::kFlapTransitions: return "flap_transitions";
    case Counter::kLimpWindows: return "limp_windows";
    case Counter::kDriftWindows: return "drift_windows";
    case Counter::kCount: break;
  }
  return "unknown";
}

Observer::Observer(int num_processes, Config cfg)
    : n_(num_processes),
      cfg_(cfg),
      batch_hist_(0.0, 256.0, 64),
      e2e_hist_(0.0, kHistMaxMs, kHistBins),
      next_window_(cfg.metrics_window_ms) {
  spans_.resize(static_cast<std::size_t>(n_));
  for (auto& slab : spans_) slab.reserve(cfg_.span_capacity);
  counters_.assign(static_cast<std::size_t>(n_) * kCounterCount, 0);
  retx_origin_.assign(static_cast<std::size_t>(n_), 0);
  reorder_peak_.assign(static_cast<std::size_t>(n_), 0);
  snapshots_.reserve(cfg_.snapshot_capacity);
  if (cfg_.causal) {
    edges_.resize(static_cast<std::size_t>(n_));
    for (auto& slab : edges_) slab.reserve(cfg_.edge_capacity);
  }
  if (cfg_.per_node_metrics) {
    node_snapshots_.reserve(cfg_.snapshot_capacity * static_cast<std::size_t>(n_));
  }
  qos_pairs_.assign(static_cast<std::size_t>(n_) * static_cast<std::size_t>(n_), QosPair{});
  qos_targets_.assign(static_cast<std::size_t>(n_), QosTarget{});
  std::lock_guard<std::mutex> lock(g_export_mu);
  if (!g_trace_path.empty() || !g_metrics_path.empty() || !g_metrics_per_node_path.empty() ||
      !g_critical_path_path.empty()) {
    trace_path_ = std::move(g_trace_path);
    metrics_path_ = std::move(g_metrics_path);
    metrics_per_node_path_ = std::move(g_metrics_per_node_path);
    critical_path_path_ = std::move(g_critical_path_path);
    g_trace_path.clear();
    g_metrics_path.clear();
    g_metrics_per_node_path.clear();
    g_critical_path_path.clear();
  }
}

Observer::~Observer() {
  if (claimed_export()) flush_export();
}

void Observer::set_export_paths(std::string trace_path, std::string metrics_path,
                                std::string metrics_per_node_path,
                                std::string critical_path_path) {
  std::lock_guard<std::mutex> lock(g_export_mu);
  g_trace_path = std::move(trace_path);
  g_metrics_path = std::move(metrics_path);
  g_metrics_per_node_path = std::move(metrics_per_node_path);
  g_critical_path_path = std::move(critical_path_path);
}

// ---------------------------------------------------------------- lifecycle

Span* Observer::find(int origin, std::uint64_t seq) {
  if (origin < 0 || origin >= n_ || seq == 0) return nullptr;
  auto& slab = spans_[static_cast<std::size_t>(origin)];
  const std::uint64_t idx = seq - 1;
  if (idx < slab.size()) return &slab[idx];
  return nullptr;
}

// Every hot-path hook defers itself to the round barrier when invoked
// from a parallel-backend staging worker (the Observer is process-global
// state): the replay re-enters the same public method with a null
// execution context and runs the body, in exact global event order — so
// an armed parallel run records byte-identical traces and counters.

void Observer::on_submit(int origin, std::uint64_t seq, double now) {
  if (sim::stage_effect<&Observer::on_submit>(this, origin, seq, now)) return;
  if (now >= next_window_) roll_window(now);
  if (origin < 0 || origin >= n_ || seq == 0) return;
  auto& slab = spans_[static_cast<std::size_t>(origin)];
  const std::uint64_t idx = seq - 1;
  if (idx == slab.size() && slab.size() < cfg_.span_capacity) {
    // push_back never reallocates: the slab is reserved to capacity up
    // front, keeping the armed hot path allocation-free.
    slab.emplace_back();
    slab.back().submit = now;
    return;
  }
  if (idx < slab.size()) {
    if (slab[idx].submit < 0.0) slab[idx].submit = now;
    return;
  }
  ++spans_dropped_;
}

void Observer::on_order_start(int origin, std::uint64_t seq, double now) {
  if (sim::stage_effect<&Observer::on_order_start>(this, origin, seq, now)) return;
  if (now >= next_window_) roll_window(now);
  if (Span* s = find(origin, seq); s && s->order_start < 0.0) s->order_start = now;
}

void Observer::on_ordered(int origin, std::uint64_t seq, double now, int node) {
  if (sim::stage_effect<&Observer::on_ordered>(this, origin, seq, now, node)) return;
  if (now >= next_window_) roll_window(now);
  if (Span* s = find(origin, seq); s && s->ordered < 0.0) {
    s->ordered = now;
    s->ordered_node = static_cast<std::int16_t>(node);
  }
}

void Observer::on_delivered(int origin, std::uint64_t seq, double now, int node) {
  if (sim::stage_effect<&Observer::on_delivered>(this, origin, seq, now, node)) return;
  if (now >= next_window_) roll_window(now);
  Span* s = find(origin, seq);
  if (s == nullptr || s->delivered >= 0.0) return;
  s->delivered = now;
  s->deliver_node = static_cast<std::int16_t>(node);
  // Paths that deliver without an explicit ordering instant (e.g. the GM
  // view-change flush) collapse the ordering phase onto delivery.
  if (s->ordered < 0.0) s->ordered = now;
  if (s->order_start < 0.0) s->order_start = s->submit;
  if (s->submit < 0.0) return;  // untracked origin; nothing to decompose
  e2e_hist_.add(s->delivered - s->submit);
}

// ------------------------------------------------------------- causal edges

void Observer::on_edge(std::uint32_t key, std::uint64_t seq, double t0, double t1) {
  if (sim::stage_effect<&Observer::on_edge>(this, key, seq, t0, t1)) return;
  // Deliberately does NOT roll metrics windows: edge recording must not
  // change the --metrics snapshot timeline between an armed-causal run
  // and an armed-only one.
  const int origin = static_cast<int>(key >> 20);
  if (origin < 0 || origin >= n_ || seq == 0) return;
  auto& slab = edges_[static_cast<std::size_t>(origin)];
  if (slab.size() >= cfg_.edge_capacity) {
    ++edges_dropped_;
    return;
  }
  Edge e;
  e.t0 = t0;
  e.t1 = t1;
  e.seq = static_cast<std::uint32_t>(seq);
  e.node = static_cast<std::int16_t>(static_cast<int>((key >> 8) & 0xfffu) - 1);
  e.kind = static_cast<EdgeKind>(key & 0xffu);
  slab.push_back(e);  // reserved to capacity: never reallocates
}

void Observer::trace_marker(EdgeKind kind, int node, const MsgRefList& refs, double now) {
  if (!causal()) return;
  for (std::size_t i = 0; i < refs.size(); ++i) {
    on_edge(edge_key(refs[i].origin, kind, node), refs[i].seq, now, now);
  }
}

void Observer::trace_stall(EdgeKind kind, int node, const MsgRefList& refs, double t0,
                           double t1) {
  if (!causal()) return;
  for (std::size_t i = 0; i < refs.size(); ++i) {
    on_edge(edge_key(refs[i].origin, kind, node), refs[i].seq, t0, t1);
  }
}

std::size_t Observer::edges_recorded() const {
  std::size_t sum = 0;
  for (const auto& slab : edges_) sum += slab.size();
  return sum;
}

// ------------------------------------------------------------- FD QoS meter

void Observer::on_crash(int p, double now) {
  if (sim::stage_effect<&Observer::on_crash>(this, p, now)) return;
  if (p < 0 || p >= n_) return;
  auto& t = qos_targets_[static_cast<std::size_t>(p)];
  if (t.crashed) return;
  t.crashed = true;
  ++t.crash_epoch;
  t.crash_time = now;
  // Monitors already (wrongly) suspecting p become instantly correct:
  // close the in-flight mistake at the crash instant and credit T_D = 0.
  for (int m = 0; m < n_; ++m) {
    auto& pair = qos_pairs_[static_cast<std::size_t>(m) * static_cast<std::size_t>(n_) +
                            static_cast<std::size_t>(p)];
    if (pair.suspected) {
      if (pair.mistake_open >= 0.0) {
        ++qos_.tm_count;
        qos_.tm_sum_ms += now - pair.mistake_open;
        pair.mistake_open = -1.0;
      }
      if (pair.seen_epoch != t.crash_epoch) {
        pair.seen_epoch = t.crash_epoch;
        ++qos_.detections;  // td_sum_ms += 0
      }
    }
  }
}

void Observer::on_recover(int p, double now) {
  if (sim::stage_effect<&Observer::on_recover>(this, p, now)) return;
  if (p < 0 || p >= n_) return;
  auto& t = qos_targets_[static_cast<std::size_t>(p)];
  t.crashed = false;
  t.crash_time = -1.0;
  (void)now;
}

void Observer::on_fd_transition(int monitor, int target, int flags, double now) {
  if (sim::stage_effect<&Observer::on_fd_transition>(this, monitor, target, flags, now)) return;
  if (monitor < 0 || monitor >= n_ || target < 0 || target >= n_) return;
  const bool suspected = (flags & 1) != 0;
  auto& pair = qos_pairs_[static_cast<std::size_t>(monitor) * static_cast<std::size_t>(n_) +
                          static_cast<std::size_t>(target)];
  if (pair.suspected == suspected) return;
  pair.suspected = suspected;
  ++qos_.transitions;
  const auto& t = qos_targets_[static_cast<std::size_t>(target)];
  if (suspected) {
    if (t.crashed) {
      if (pair.seen_epoch != t.crash_epoch) {
        pair.seen_epoch = t.crash_epoch;
        ++qos_.detections;
        qos_.td_sum_ms += now - t.crash_time;
      }
    } else {
      // Wrong suspicion: a new mistake starts.  T_MR is the gap between
      // consecutive mistake *starts* at this pair (Chen-Toueg).
      ++qos_.mistakes;
      if (pair.last_mistake_start >= 0.0) {
        ++qos_.tmr_count;
        qos_.tmr_sum_ms += now - pair.last_mistake_start;
      }
      pair.last_mistake_start = now;
      pair.mistake_open = now;
    }
  } else if (pair.mistake_open >= 0.0) {
    // Trust restored while the target is alive closes the mistake.
    ++qos_.tm_count;
    qos_.tm_sum_ms += now - pair.mistake_open;
    pair.mistake_open = -1.0;
  }
}

// ----------------------------------------------------------- counters/gauges

void Observer::count(int node, Counter c, double now, std::uint64_t delta) {
  if (sim::stage_effect<&Observer::count>(this, node, c, now, delta)) return;
  if (now >= next_window_) roll_window(now);
  if (node < 0 || node >= n_) return;
  counters_[static_cast<std::size_t>(node) * kCounterCount + static_cast<std::size_t>(c)] +=
      delta;
}

void Observer::on_retransmit(int origin, double now) {
  if (sim::stage_effect<&Observer::on_retransmit>(this, origin, now)) return;
  count(origin, Counter::kTransportRetx, now);
  if (origin >= 0 && origin < n_) ++retx_origin_[static_cast<std::size_t>(origin)];
}

void Observer::on_batch_flush(int node, std::size_t batch_size, double now) {
  if (sim::stage_effect<&Observer::on_batch_flush>(this, node, batch_size, now)) return;
  count(node, Counter::kBatchesFlushed, now);
  batch_hist_.add(static_cast<double>(batch_size));
}

void Observer::reorder_depth(int node, std::size_t depth) {
  if (sim::stage_effect<&Observer::reorder_depth>(this, node, depth)) return;
  if (node < 0 || node >= n_) return;
  auto& peak = reorder_peak_[static_cast<std::size_t>(node)];
  if (depth > peak) peak = depth;
}

void Observer::roll_window(double now) {
  // One row per crossing, stamped at the boundary that was crossed; after
  // a quiet gap the next row simply covers the whole gap (cumulative
  // counters make the rows self-describing).
  if (snapshots_.size() < cfg_.snapshot_capacity) {
    Snapshot snap;
    snap.t = next_window_;
    for (int node = 0; node < n_; ++node) {
      for (std::size_t c = 0; c < kCounterCount; ++c) {
        snap.agg[c] += counters_[static_cast<std::size_t>(node) * kCounterCount + c];
      }
    }
    snapshots_.push_back(snap);
    if (cfg_.per_node_metrics) {
      // Per-node rows ride the aggregate ring one-for-one, so both CSVs
      // share the same capacity bound and drop count.
      for (int node = 0; node < n_; ++node) {
        std::array<std::uint64_t, kCounterCount> row{};
        for (std::size_t c = 0; c < kCounterCount; ++c) {
          row[c] = counters_[static_cast<std::size_t>(node) * kCounterCount + c];
        }
        node_snapshots_.push_back(row);
      }
    }
  } else {
    ++snapshots_dropped_;
  }
  const double w = cfg_.metrics_window_ms;
  next_window_ = (std::floor(now / w) + 1.0) * w;
}

// ------------------------------------------------------------- introspection

std::uint64_t Observer::total(Counter c) const {
  std::uint64_t sum = 0;
  for (int node = 0; node < n_; ++node) sum += node_total(node, c);
  return sum;
}

std::uint64_t Observer::node_total(int node, Counter c) const {
  if (node < 0 || node >= n_) return 0;
  return counters_[static_cast<std::size_t>(node) * kCounterCount + static_cast<std::size_t>(c)];
}

std::uint64_t Observer::retx_origin(int node) const {
  if (node < 0 || node >= n_) return 0;
  return retx_origin_[static_cast<std::size_t>(node)];
}

std::size_t Observer::reorder_peak(int node) const {
  if (node < 0 || node >= n_) return 0;
  return reorder_peak_[static_cast<std::size_t>(node)];
}

const Span* Observer::span(int origin, std::uint64_t seq) const {
  // NOLINTNEXTLINE(cppcoreguidelines-pro-type-const-cast): lookup only
  return const_cast<Observer*>(this)->find(origin, seq);
}

std::size_t Observer::spans_recorded() const {
  std::size_t sum = 0;
  for (const auto& slab : spans_) sum += slab.size();
  return sum;
}

PhaseTotals Observer::phase_totals(double from, double to) const {
  PhaseTotals t;
  for (const auto& slab : spans_) {
    for (const auto& s : slab) {
      if (s.submit < from || s.submit >= to || s.delivered < 0.0) continue;
      const double os = s.order_start < 0.0 ? s.submit : s.order_start;
      const double od = s.ordered < 0.0 ? s.delivered : s.ordered;
      ++t.count;
      t.submit_wait_ms += os - s.submit;
      t.ordering_ms += od - os;
      t.delivery_ms += s.delivered - od;
    }
  }
  return t;
}

// ------------------------------------------------------------------ exports

void Observer::write_trace_json(std::ostream& os) const {
  // Timestamps reach ~1e6 us of simulated time; the default 6-significant-
  // digit float formatting would round them to whole us and make tracks
  // look non-monotone.  17 digits round-trips a double exactly.
  os << std::setprecision(17);
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  auto sep = [&] {
    if (!first) os << ",\n";
    first = false;
  };
  for (int node = 0; node < n_; ++node) {
    sep();
    os << "{\"ph\":\"M\",\"pid\":" << node
       << ",\"name\":\"process_name\",\"args\":{\"name\":\"node " << node << "\"}}";
  }
  // One track per message: pid = origin node, tid = the message's dense
  // per-origin sequence number; three complete ("X") events per delivered
  // message, timestamps in microseconds of simulated time.
  auto emit = [&](int pid, std::uint64_t tid, const char* name, double t0_ms, double t1_ms) {
    sep();
    os << "{\"ph\":\"X\",\"cat\":\"abcast\",\"pid\":" << pid << ",\"tid\":" << tid
       << ",\"name\":\"" << name << "\",\"ts\":" << t0_ms * 1000.0
       << ",\"dur\":" << (t1_ms > t0_ms ? (t1_ms - t0_ms) * 1000.0 : 0.0) << "}";
  };
  for (int origin = 0; origin < n_; ++origin) {
    const auto& slab = spans_[static_cast<std::size_t>(origin)];
    for (std::size_t i = 0; i < slab.size(); ++i) {
      const Span& s = slab[i];
      if (s.submit < 0.0) continue;
      const std::uint64_t seq = static_cast<std::uint64_t>(i) + 1;
      const double os_t = s.order_start < 0.0 ? s.submit : s.order_start;
      emit(origin, seq, "submit-wait", s.submit, os_t);
      if (s.ordered >= 0.0) {
        emit(origin, seq, "ordering", os_t, s.ordered);
        if (s.delivered >= 0.0) emit(origin, seq, "delivery", s.ordered, s.delivered);
      }
    }
  }
  if (causal()) {
    // Flow events connect each message's submit at its origin to its
    // global-first delivery at the delivering node, annotated with the
    // walker's dominant cause.  Gated on causal() so plain --trace output
    // is unchanged (and its CI validation stays strict).
    const auto paths = critical_paths(0.0, std::numeric_limits<double>::infinity());
    for (const auto& m : paths) {
      const Span* s = span(m.origin, m.seq);
      if (s == nullptr || s->delivered < 0.0) continue;
      std::size_t dom = 0;
      for (std::size_t c = 1; c < kCauseCount; ++c) {
        if (m.ms[c] > m.ms[dom]) dom = c;
      }
      const std::uint64_t id =
          (static_cast<std::uint64_t>(static_cast<std::uint32_t>(m.origin)) << 32) | m.seq;
      const int dst = s->deliver_node >= 0 ? s->deliver_node : m.origin;
      sep();
      os << "{\"ph\":\"s\",\"cat\":\"causal\",\"pid\":" << m.origin << ",\"tid\":" << m.seq
         << ",\"name\":\"msg\",\"id\":" << id << ",\"ts\":" << m.submit * 1000.0 << "}";
      sep();
      os << "{\"ph\":\"f\",\"bp\":\"e\",\"cat\":\"causal\",\"pid\":" << dst
         << ",\"tid\":" << m.seq << ",\"name\":\"msg\",\"id\":" << id
         << ",\"ts\":" << m.delivered * 1000.0 << ",\"args\":{\"dominant_cause\":\""
         << cause_name(static_cast<Cause>(dom)) << "\"}}";
    }
  }
  os << "\n]}\n";
}

void Observer::write_metrics_csv(std::ostream& os) const {
  os << "t_ms";
  for (std::size_t c = 0; c < kCounterCount; ++c) {
    os << ',' << counter_name(static_cast<Counter>(c));
  }
  os << '\n';
  for (const auto& snap : snapshots_) {
    os << snap.t;
    for (std::size_t c = 0; c < kCounterCount; ++c) os << ',' << snap.agg[c];
    os << '\n';
  }
}

void Observer::write_metrics_per_node_csv(std::ostream& os) const {
  os << "t_ms,node";
  for (std::size_t c = 0; c < kCounterCount; ++c) {
    os << ',' << counter_name(static_cast<Counter>(c));
  }
  os << '\n';
  // node_snapshots_ rows [i*n, (i+1)*n) belong to snapshots_[i]; the two
  // rings fill in lockstep (roll_window appends both or neither).
  const std::size_t rows = node_snapshots_.size() / static_cast<std::size_t>(n_);
  for (std::size_t i = 0; i < rows && i < snapshots_.size(); ++i) {
    for (int node = 0; node < n_; ++node) {
      const auto& row = node_snapshots_[i * static_cast<std::size_t>(n_) +
                                        static_cast<std::size_t>(node)];
      os << snapshots_[i].t << ',' << node;
      for (std::size_t c = 0; c < kCounterCount; ++c) os << ',' << row[c];
      os << '\n';
    }
  }
}

void Observer::flush_export() const {
  auto open = [](const std::string& path) -> std::ofstream {
    const auto parent = std::filesystem::path(path).parent_path();
    if (!parent.empty()) {
      std::error_code ec;
      std::filesystem::create_directories(parent, ec);
      if (ec) {
        std::cerr << "obs: cannot create directory " << parent.string() << ": " << ec.message()
                  << '\n';
      }
    }
    std::ofstream file(path);
    if (!file) std::cerr << "obs: cannot write " << path << '\n';
    return file;
  };
  if (!trace_path_.empty()) {
    if (auto file = open(trace_path_)) write_trace_json(file);
  }
  if (!metrics_path_.empty()) {
    if (auto file = open(metrics_path_)) write_metrics_csv(file);
  }
  if (!metrics_per_node_path_.empty()) {
    if (auto file = open(metrics_per_node_path_)) write_metrics_per_node_csv(file);
  }
  if (!critical_path_path_.empty()) {
    if (auto file = open(critical_path_path_)) write_critical_path_csv(file);
  }
}

}  // namespace fdgm::obs
