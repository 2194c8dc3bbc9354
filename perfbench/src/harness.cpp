#include "harness.hpp"

#include <algorithm>
#include <bit>
#include <iomanip>
#include <memory>
#include <ostream>
#include <random>
#include <sstream>
#include <stdexcept>

#include "abcast/fd_abcast.hpp"
#include "abcast/gm_abcast.hpp"
#include "alloc_count.hpp"
#include "fd/qos_model.hpp"
#include "net/network.hpp"
#include "obs/observer.hpp"
#include "sim/rng.hpp"

namespace fdgm::perf {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

class CheckSink final : public abcast::DeliverSink {
 public:
  CheckSink(DeliveryChecker& chk, const net::System& sys, int p) : chk_(&chk), sys_(&sys), p_(p) {}
  void on_deliver(const abcast::AppMessage& m) override {
    chk_->on_deliver(p_, m.id.origin, m.id.seq, m.sent_at, sys_->now());
  }

 private:
  DeliveryChecker* chk_;
  const net::System* sys_;
  int p_;
};

/// The paper's open-loop clients (§5.1): process i A-broadcasts at the
/// instants of a Poisson process of rate T/n, whatever the backlog.  A
/// crashed process skips its instants and resumes with the first one
/// after its recovery.  The instant is the message's due time, and the
/// A-broadcast happens at it, so L(m) is timed from when m was due.
class OpenLoopClients {
 public:
  OpenLoopClients(core::SimRun& run, DeliveryChecker& chk, const Workload& w, double until)
      : run_(&run),
        chk_(&chk),
        mean_gap_ms_(1000.0 * w.cfg.n / w.throughput),
        until_(until) {
    const sim::Rng clients = sim::Rng(w.cfg.seed).fork("perf.clients");
    for (int i = 0; i < w.cfg.n; ++i) rngs_.push_back(clients.fork(static_cast<std::uint64_t>(i)));
  }

  void start() {
    for (std::size_t i = 0; i < rngs_.size(); ++i) arm(i, rngs_[i].exponential(mean_gap_ms_));
  }
  [[nodiscard]] std::uint64_t issued() const { return issued_; }
  [[nodiscard]] std::uint64_t shed() const { return shed_; }

 private:
  void arm(std::size_t i, double t) {
    if (t >= until_) return;
    run_->system().scheduler().schedule_at(t, [this, i] { fire(i); });
  }

  void fire(std::size_t i) {
    net::System& sys = run_->system();
    const auto p = static_cast<net::ProcessId>(i);
    if (!sys.node(p).crashed()) {
      abcast::AtomicBroadcastProcess& proc = run_->proc(p);
      if (!proc.can_submit()) {
        ++shed_;
      } else {
        const abcast::MsgId id = proc.a_broadcast();
        chk_->on_broadcast(id.origin, id.seq, sys.now());
        ++issued_;
      }
    }
    arm(i, sys.now() + rngs_[i].exponential(mean_gap_ms_));
  }

  core::SimRun* run_;
  DeliveryChecker* chk_;
  double mean_gap_ms_;
  double until_;
  std::vector<sim::Rng> rngs_;
  std::uint64_t issued_ = 0;
  std::uint64_t shed_ = 0;
};

core::SimConfig stack_config(const Workload& w, core::Algorithm algo,
                             const sim::SchedulerConfig& sched) {
  core::SimConfig cfg = w.cfg;
  cfg.algorithm = algo;
  cfg.scheduler = sched;
  return cfg;
}

std::unique_ptr<core::SimRun> make_run(const core::SimConfig& cfg, const Workload& w) {
  auto run = std::make_unique<core::SimRun>(cfg, core::WorkloadConfig{.throughput = w.throughput});
  // The benchmark's own clients (above) replace the built-in generator, so
  // it knows every broadcast it must see delivered.
  run->workload().stop();
  return run;
}

}  // namespace

// ------------------------------------------------------------------ spans

int SpanLog::begin(std::string name) {
  if (spans_.empty()) spans_.reserve(1 << 14);
  const int id = static_cast<int>(spans_.size());
  spans_.push_back({std::move(name), now_us(), -1.0, open_.empty() ? -1 : open_.back()});
  open_.push_back(id);
  return id;
}

void SpanLog::end(int id) {
  spans_[static_cast<std::size_t>(id)].t1_us = now_us();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

double SpanLog::self_seconds(const std::string& name) const {
  std::vector<double> child_us(spans_.size(), 0.0);
  for (const Span& s : spans_)
    if (s.parent >= 0 && s.t1_us >= 0)
      child_us[static_cast<std::size_t>(s.parent)] += s.t1_us - s.t0_us;
  double total = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    if (spans_[i].name == name && spans_[i].t1_us >= 0)
      total += spans_[i].t1_us - spans_[i].t0_us - child_us[i];
  return total * 1e-6;
}

void SpanLog::write_chrome_json(std::ostream& os, const std::string& provenance) const {
  os << "{\"otherData\": {\"provenance\": \"" << provenance << "\"},\n\"traceEvents\": [\n";
  os << std::setprecision(12);
  bool first = true;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.t1_us < 0) continue;
    os << (first ? "" : ",\n") << "{\"name\": \"" << s.name << "\", \"ph\": \"X\", \"pid\": 1, "
       << "\"tid\": 1, \"ts\": " << s.t0_us << ", \"dur\": " << s.t1_us - s.t0_us
       << ", \"args\": {\"id\": " << i << ", \"parent\": " << s.parent << "}}";
    first = false;
  }
  os << "\n]}\n";
}

// ------------------------------------------------------------- stack runs

std::string StackResult::counts_line() const {
  std::ostringstream os;
  os << core::algorithm_name(algo) << " digest=" << std::hex << std::setw(16)
     << std::setfill('0') << digest << std::dec << " attempted=" << verdict.attempted + shed
     << " ordered=" << verdict.ordered << " failed=" << verdict.failed + shed
     << " events=" << events << " frames=" << frames << " deliveries=" << deliveries
     << " lost=" << lost << " arena_bytes=" << arena_bytes << " retx=" << retx
     << " nacks=" << nacks << " dups=" << dups << " retx_p0=" << retx_p0
     << " rb_relays=" << rb_relays << " instances=" << instances
     << " views=" << views_installed << " faults=" << faults_fired
     << " pending_peak=" << pending_peak;
  return os.str();
}

StackResult run_stack(const Workload& w, core::Algorithm algo, const RunOptions& opt) {
  StackResult r;
  r.algo = algo;
  ScopedSpan stack_span(opt.spans, algo == core::Algorithm::kFd ? "stack.fd" : "stack.gm");
  core::SimConfig cfg = stack_config(w, algo, opt.scheduler);
  if (opt.traced) {
    cfg.obs.enabled = true;
    cfg.obs.causal = true;
    // Room for every causal edge: a message collects a few edges per hop
    // at each of the n processes, more under loss.  Dropped edges are
    // printed on the `traced` lines.
    const double per_origin = w.throughput / w.cfg.n * w.load_ms / 1000.0;
    cfg.obs.edge_capacity = std::max<std::size_t>(
        cfg.obs.edge_capacity, std::bit_ceil(static_cast<std::size_t>(per_origin * 24 * w.cfg.n)));
  }
  const double load_end = opt.prefix_ms > 0 ? std::min(opt.prefix_ms, w.load_ms) : w.load_ms;
  // Reference readings bracket the run, outside every timed slice.
  const double ref_before = opt.reference ? memory_reference_ms() : 0.0;

  std::unique_ptr<core::SimRun> run;
  {
    ScopedSpan s(opt.spans, "construct");
    run = make_run(cfg, w);
  }
  net::System& sys = run->system();
  const int n = w.cfg.n;

  DeliveryChecker chk(n);
  std::vector<CheckSink> sinks;
  sinks.reserve(static_cast<std::size_t>(n));
  for (int p = 0; p < n; ++p) {
    sinks.emplace_back(chk, sys, p);
    run->proc(p).set_deliver_sink(&sinks.back());
  }
  OpenLoopClients clients(*run, chk, w, load_end);
  std::uint64_t consensus_msgs = 0;
  if (opt.traced) {
    sys.network().set_delivery_tap([&consensus_msgs](const net::Message& m, net::ProcessId) {
      if (m.proto == net::ProtocolId::kConsensus) ++consensus_msgs;
    });
  }

  {
    ScopedSpan s(opt.spans, "start");
    run->start();
  }
  clients.start();

  auto fd_proc = [&](int p) { return dynamic_cast<abcast::FdAbcastProcess*>(&run->proc(p)); };
  std::uint64_t a0 = 0, b0 = 0, m0 = 0;
  bool counting = false;
  const Clock::time_point run_t0 = Clock::now();
  for (double t = 1000.0; t <= load_end + 1e-9; t += 1000.0) {
    if (opt.count_allocs && !counting && t - 1000.0 >= w.warmup_ms) {
      a0 = alloc_calls();
      b0 = alloc_bytes();
      m0 = clients.issued();
      set_alloc_counting(true);
      counting = true;
    }
    const Clock::time_point s0 = Clock::now();
    {
      ScopedSpan s(opt.spans, "slice");
      run->run_until(t);
    }
    r.slice_host_ms.push_back(seconds_since(s0) * 1e3);
    r.pending_peak = std::max(r.pending_peak, sys.scheduler().pending());
    if (algo == core::Algorithm::kFd) {
      std::size_t retained = 0;
      for (int p = 0; p < n; ++p) retained += fd_proc(p)->rb().retained();
      r.rb_retained_peak = std::max(r.rb_retained_peak, retained);
    }
  }
  if (counting) {
    set_alloc_counting(false);
    r.allocs = alloc_calls() - a0;
    r.alloc_bytes = alloc_bytes() - b0;
    r.alloc_msgs = clients.issued() - m0;
  }
  if (opt.prefix_ms <= 0) {
    ScopedSpan s(opt.spans, "drain");
    run->run_until(load_end + w.drain_ms);
  }
  r.run_host_s = seconds_since(run_t0);
  if (opt.reference)
    r.ref_scale = kReferenceNominalMs / (0.5 * (ref_before + memory_reference_ms()));

  {
    ScopedSpan s(opt.spans, "check");
    std::vector<bool> correct(static_cast<std::size_t>(n));
    for (int p = 0; p < n; ++p) correct[static_cast<std::size_t>(p)] = !sys.node(p).crashed();
    r.verdict = chk.verdict(correct);
    r.digest = chk.digest();
    r.latencies = chk.latencies(w.warmup_ms, load_end);
  }
  r.shed = clients.shed();

  r.events = sys.scheduler().executed();
  r.frames = sys.network().network_uses();
  r.deliveries = sys.network().messages_delivered();
  r.lost = sys.network().lost_deliveries();
  r.arena_bytes = sys.arena().bytes_reserved();
  if (const transport::Transport* tr = sys.transport()) {
    r.retx = tr->stats().retransmits;
    r.nacks = tr->stats().nacks;
    r.dups = tr->stats().duplicates;
    r.retx_p0 = tr->retx_from(0);
  }
  for (int p = 0; p < n; ++p) {
    if (auto* fd = fd_proc(p)) {
      r.rb_relays += fd->rb().relays();
      r.instances = std::max(r.instances, fd->decided_instances());
    } else if (auto* gm = dynamic_cast<abcast::GmAbcastProcess*>(&run->proc(p))) {
      r.views_installed = std::max(r.views_installed, gm->membership().views_installed());
    }
  }
  if (fault::Injector* inj = run->injector()) r.faults_fired = inj->fired();
  if (const obs::Observer* o = run->observer()) {
    r.suspicions = o->total(obs::Counter::kSuspicions);
    r.rounds = o->total(obs::Counter::kConsensusRounds);
    r.round_fails = o->total(obs::Counter::kConsensusRoundFails);
    r.causes = o->cause_totals(w.warmup_ms, load_end);
    r.edges_recorded = o->edges_recorded();
    r.edges_dropped = o->edges_dropped();
  }
  r.consensus_msgs = consensus_msgs;
  {
    ScopedSpan s(opt.spans, "destroy");
    run.reset();
  }
  return r;
}

SetupTimes time_setup(const Workload& w) {
  std::unique_ptr<core::SimRun> runs[2];
  SetupTimes t;
  int i = 0;
  for (core::Algorithm algo : {core::Algorithm::kFd, core::Algorithm::kGm}) {
    const core::SimConfig cfg = stack_config(w, algo, sim::SchedulerConfig{});
    Clock::time_point t0 = Clock::now();
    runs[i] = make_run(cfg, w);
    t.construct_s += seconds_since(t0);
    t0 = Clock::now();
    runs[i++]->start();
    t.start_s += seconds_since(t0);
  }
  return t;
}

// -------------------------------------------------------------- harnesses

double memory_reference_ms() {
  static const std::vector<std::uint32_t> next = [] {
    // Sattolo's shuffle of the identity: one cycle through every slot.
    std::vector<std::uint32_t> v(std::size_t{1} << 21);
    for (std::size_t i = 0; i < v.size(); ++i) v[i] = static_cast<std::uint32_t>(i);
    std::mt19937_64 rng(0x5a770105ULL);
    for (std::size_t i = v.size() - 1; i > 0; --i) std::swap(v[i], v[rng() % i]);
    return v;
  }();
  double best = 0.0;
  for (std::uint32_t rep = 0; rep < 3; ++rep) {
    const Clock::time_point t0 = Clock::now();
    std::uint32_t p = rep;
    for (int i = 0; i < 100000; ++i) p = next[p];
    const double ms = seconds_since(t0) * 1e3;
    if (rep == 0 || ms < best) best = ms;
    if (p == next.size()) throw std::logic_error("unreachable");  // keeps the chase live
  }
  return best;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

namespace {

template <typename F>
double median_of(int reps, F&& f) {
  std::vector<double> v;
  for (int i = 0; i < reps; ++i) v.push_back(f());
  return quantile(std::move(v), 0.5);
}

/// Self-re-arming event: keeps the pending population constant.
struct Rearm {
  sim::Scheduler* s;
  const double* delays;
  std::size_t* next;
  void operator()() const { s->schedule_after(delays[(*next)++ & 4095], *this); }
};

}  // namespace

double scheduler_ns_per_event(std::size_t pending, std::uint64_t seed) {
  pending = std::max<std::size_t>(pending, 1);
  sim::Rng rng = sim::Rng(seed).fork("perf.scheduler-harness");
  std::vector<double> delays(4096);
  for (double& d : delays) d = rng.exponential(10.0);
  constexpr std::uint64_t kEvents = 1'000'000;
  return median_of(3, [&] {
    sim::Scheduler s;
    std::size_t next = 0;
    for (std::size_t i = 0; i < pending; ++i)
      s.schedule_at(delays[next++ & 4095], Rearm{&s, delays.data(), &next});
    const Clock::time_point t0 = Clock::now();
    s.run(kEvents);
    return seconds_since(t0) * 1e9 / static_cast<double>(kEvents);
  });
}

double network_ns_per_frame(int n) {
  class Sink final : public net::Network::Sink {
   public:
    void deliver_message(const net::Message&, net::ProcessId) override { ++delivered; }
    std::uint64_t delivered = 0;
  };
  const int frames = std::max(1000, 200000 / n);
  return median_of(3, [&] {
    sim::Scheduler s;
    Sink sink;
    net::Network net(s, n, net::NetworkConfig{}, sink);
    const net::BlankPayload payload;
    std::vector<net::ProcessId> dsts(static_cast<std::size_t>(n));
    for (int p = 0; p < n; ++p) dsts[static_cast<std::size_t>(p)] = p;
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i < frames; i += 100) {
      for (int j = i; j < i + 100; ++j) {
        const net::Message m{.src = j % n, .dst = net::kBroadcast,
                             .proto = net::ProtocolId::kWorkload, .frame = {},
                             .payload = &payload};
        net.submit(m, dsts, false);
      }
      s.run();
    }
    return seconds_since(t0) * 1e9 / static_cast<double>(frames);
  });
}

double transport_ns_per_frame(int n, double loss, std::uint64_t seed) {
  class Sink final : public net::Layer {
   public:
    void on_message(const net::Message&) override {}
  };
  constexpr int kMulticasts = 500;
  constexpr double kGapMs = 20.0;
  return median_of(3, [&] {
    net::System sys(n, net::NetworkConfig{}, seed, sim::SchedulerConfig{},
                    transport::Config{.enabled = true});
    sim::Rng loss_rng = sim::Rng(seed).fork("perf.transport-harness");
    sys.network().set_loss(loss, &loss_rng);
    Sink sink;
    for (int p = 0; p < n; ++p) sys.node(p).register_handler(net::ProtocolId::kWorkload, &sink);
    const net::BlankPayload payload;
    for (int i = 0; i < kMulticasts; ++i)
      sys.scheduler().schedule_at(kGapMs * i, [&sys, &payload, p = i % n] {
        sys.node(p).multicast_all(net::ProtocolId::kWorkload, &payload);
      });
    const Clock::time_point t0 = Clock::now();
    sys.scheduler().run_until(kGapMs * kMulticasts + 10000.0);
    const double host_ns = seconds_since(t0) * 1e9;
    const transport::Stats& st = sys.transport()->stats();
    const std::uint64_t frames = std::max<std::uint64_t>(1, st.data_frames + st.retransmits);
    return host_ns / static_cast<double>(frames);
  });
}

double fd_start_s(const Workload& w) {
  return median_of(5, [&] {
    net::System sys(w.cfg.n, net::NetworkConfig{}, w.cfg.seed);
    const Clock::time_point t0 = Clock::now();
    fd::QosFailureDetectorModel model(sys, w.cfg.fd_params);
    model.start();
    return seconds_since(t0);
  });
}

double fd_host_ms_per_sim_s(const Workload& w, double sim_ms) {
  return median_of(3, [&] {
    net::System sys(w.cfg.n, net::NetworkConfig{}, w.cfg.seed);
    fd::QosFailureDetectorModel model(sys, w.cfg.fd_params);
    model.start();
    const Clock::time_point t0 = Clock::now();
    sys.scheduler().run_until(sim_ms);
    return seconds_since(t0) * 1e3 / (sim_ms / 1000.0);
  });
}

}  // namespace fdgm::perf
