// fdgm_perf: the repository benchmark.  Runs one workload on both stacks
// (FD, then GM) and prints every metric by name and unit, then one JSON
// object as its last line.  See README.md in this directory.
//
//   fdgm_perf --workload NAME --seed N --seconds S --trace 0|1
//             [--commit C] [--tree T] [--out-dir DIR] [--smoke]
//
// --trace 0 prints the end-to-end metrics (untraced runs); --trace 1 the
// per-layer metrics (one untraced and one traced pass, the layer
// harnesses and the backend comparison) and writes the host-time spans.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "harness.hpp"
#include "obs/causal.hpp"
#include "workloads.hpp"

namespace fdgm::perf {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string commit = "unknown";
  std::string tree = "unknown";
  std::string out_dir = ".";
  bool smoke = false;
};

Args parse(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      a.smoke = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::stoull(v);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(v);
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") throw std::invalid_argument("--trace takes 0 or 1");
      a.trace = v == "1" ? 1 : 0;
    } else if (flag == "--commit") {
      a.commit = v;
    } else if (flag == "--tree") {
      a.tree = v;
    } else if (flag == "--out-dir") {
      a.out_dir = v;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  return a;
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) < 0x80000004u) return "unknown";
  for (unsigned int i = 0; i < 3; ++i)
    __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1], &regs[4 * i + 2],
                &regs[4 * i + 3]);
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string s(brand);
  s.erase(0, s.find_first_not_of(' '));
  return s;
#else
  return "unknown";
#endif
}

std::string provenance(const Args& a) {
  std::ostringstream os;
  os << "commit=" << a.commit << " tree=" << a.tree << " build=" << FDGM_PERF_BUILD_TYPE
     << " compiler=" << FDGM_PERF_COMPILER << " nproc=" << std::thread::hardware_concurrency()
     << " cpu='" << cpu_model() << "' seed=" << a.seed
     << " backend=" << sim::scheduler_backend_name(sim::SchedulerConfig{}.backend)
     << " workload=" << a.workload << " trace=" << a.trace << (a.smoke ? " smoke=1" : "");
  return os.str();
}

/// Name, unit and direction of every metric the benchmark prints; the
/// same table BENCHMARK.json lists (the benchmark's tests compare them).
struct MetricDef {
  const char* name;
  const char* unit;
  const char* better;
};

std::vector<MetricDef> metric_table() {
  std::vector<MetricDef> t{
      // end to end (--trace 0)
      {"setup_s", "s", "lower"},
      {"host_ms_per_sim_s.p50", "ms", "lower"},
      {"host_ms_per_sim_s.p95", "ms", "lower"},
      {"peak_rss_mb", "MB", "lower"},
      {"lat_ms.fd.p50", "ms", "lower"},
      {"lat_ms.fd.p99", "ms", "lower"},
      {"lat_ms.gm.p50", "ms", "lower"},
      {"lat_ms.gm.p99", "ms", "lower"},
      // per layer (--trace 1)
      {"failed_frac", "ratio", "lower"},
      {"sim.events_per_msg", "count", "lower"},
      {"sim.pending_peak", "count", "lower"},
      {"sim.ns_per_event", "ns", "lower"},
      {"sim.backend_ms_per_sim_s.heap", "ms", "lower"},
      {"sim.backend_ms_per_sim_s.wheel", "ms", "lower"},
      {"sim.backend_ms_per_sim_s.par", "ms", "lower"},
      {"fd.start_s", "s", "lower"},
      {"fd.host_ms_per_sim_s", "ms", "lower"},
      {"fd.suspicions_per_s", "1/s", "lower"},
      {"net.frames_per_msg", "count", "lower"},
      {"net.deliveries_per_msg", "count", "lower"},
      {"net.lost_per_msg", "count", "lower"},
      {"net.arena_bytes_per_msg", "B", "lower"},
      {"net.ns_per_frame", "ns", "lower"},
      {"transport.retx_per_msg", "count", "lower"},
      {"transport.nacks_per_msg", "count", "lower"},
      {"transport.dups_per_msg", "count", "lower"},
      {"transport.useful_retx_ratio", "ratio", "higher"},
      {"transport.seq_retx_share", "ratio", "lower"},
      {"transport.ns_per_frame", "ns", "lower"},
      {"rbcast.relays_per_msg", "count", "lower"},
      {"rbcast.retained_peak", "count", "lower"},
      {"consensus.msgs_per_instance", "count", "lower"},
      {"consensus.round_fail_ratio", "ratio", "lower"},
      {"gm.views_installed", "count", "lower"},
      {"abcast.host_ms_per_sim_s.fd.p50", "ms", "lower"},
      {"abcast.host_ms_per_sim_s.gm.p50", "ms", "lower"},
      {"abcast.host_growth.fd", "ratio", "lower"},
      {"abcast.host_growth.gm", "ratio", "lower"},
      {"core.construct_s", "s", "lower"},
      {"core.start_s", "s", "lower"},
      {"core.allocs_per_msg", "count", "lower"},
      {"core.alloc_bytes_per_msg", "B", "lower"},
      {"fault.fired", "count", "lower"},
      {"obs.trace_overhead", "ratio", "lower"},
  };
  return t;
}

/// Cause buckets reported per stack (credit_wait and batch_wait are left
/// out: batching is off in every workload).
constexpr obs::Cause kCauses[] = {
    obs::Cause::kCpuQueue,    obs::Cause::kWire,     obs::Cause::kLossNack,
    obs::Cause::kLossTimer,   obs::Cause::kLossBackoff, obs::Cause::kSeqQueue,
    obs::Cause::kConsensusRound, obs::Cause::kReorderHold};

class Report {
 public:
  Report() {
    for (const MetricDef& d : metric_table()) defs_[d.name] = d;
    for (const char* stack : {"fd", "gm"})
      for (obs::Cause c : kCauses)
        add_def("obs.cause." + std::string(stack) + "." + obs::cause_name(c) + "_ms");
  }

  void set(const std::string& name, double value) {
    if (!defs_.contains(name)) throw std::logic_error("metric not in the table: " + name);
    if (!std::isfinite(value)) {
      std::cout << "# non-finite value for " << name << "\n";
      finite_ = false;
      value = 0.0;
    }
    values_.emplace_back(name, value);
  }

  /// Prints the human-readable table, then the JSON result line.
  void print(bool correct, std::uint64_t attempted, std::uint64_t failed) const {
    char buf[64];
    for (const auto& [name, v] : values_) {
      const MetricDef& d = defs_.at(name);
      std::snprintf(buf, sizeof buf, "%.17g", v);
      std::cout << "metric " << name << " " << buf << " " << d.unit << " " << d.better << "\n";
    }
    std::cout << "{\"correct\": " << (correct && finite_ ? "true" : "false")
              << ", \"attempted\": " << attempted << ", \"failed\": " << failed
              << ", \"metrics\": {";
    bool first = true;
    for (const auto& [name, v] : values_) {
      std::snprintf(buf, sizeof buf, "%.17g", v);
      std::cout << (first ? "" : ", ") << "\"" << name << "\": {\"value\": " << buf
                << ", \"unit\": \"" << defs_.at(name).unit << "\"}";
      first = false;
    }
    std::cout << "}}" << std::endl;
  }

 private:
  void add_def(const std::string& name) { defs_[name] = {"", "ms", "lower"}; }
  std::map<std::string, MetricDef> defs_;
  std::vector<std::pair<std::string, double>> values_;
  bool finite_ = true;
};

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

double tenth_growth(const std::vector<double>& v) {
  if (v.size() < 2) return 1.0;
  const std::size_t k = std::max<std::size_t>(1, v.size() / 10);
  double first = 0.0, last = 0.0;
  for (std::size_t i = 0; i < k; ++i) {
    first += v[i];
    last += v[v.size() - 1 - i];
  }
  return ratio(last, first);
}

constexpr core::Algorithm kStacks[] = {core::Algorithm::kFd, core::Algorithm::kGm};

bool verdicts_safe(const StackResult (&r)[2]) {
  bool ok = true;
  for (const StackResult& s : r) {
    std::cout << "check " << core::algorithm_name(s.algo) << " safe=" << s.verdict.safe
              << " failed=" << s.verdict.failed + s.shed << "/" << s.verdict.attempted + s.shed
              << " shortest_correct_log=" << s.verdict.shortest_correct_log << "/"
              << s.verdict.ordered;
    if (!s.verdict.safe)
      std::cout << " violations=" << s.verdict.violations << " first='"
                << s.verdict.first_violation << "'";
    std::cout << "\n";
    ok = ok && s.verdict.safe;
  }
  return ok;
}

// ------------------------------------------------------------- trace 0

/// The end-to-end host times are reported at the nominal reference speed:
/// on a shared host the speed drifts (on the VM the bounds were set on,
/// whole runs slowed by up to 1.9x for tens of seconds), so each stack
/// run's times are multiplied by its StackResult::ref_scale, from
/// reference readings taken before construction and after the drain.
/// The raw times are printed beside them.
int run_end_to_end(const Args& a, const Workload& w) {
  // Set-up: construct + start() both stacks, repeated after every pass for
  // a tenth of that pass's time (so the repetitions sample the host like
  // the passes do), at the speed read around the pass's last run; median.
  std::vector<double> setup, setup_raw;
  const auto time_setups = [&](double budget_s, double scale) {
    const Clock::time_point t0 = Clock::now();
    int reps = 0;
    do {
      const SetupTimes t = time_setup(w);
      setup_raw.push_back(t.construct_s + t.start_s);
      setup.push_back(setup_raw.back() * scale);
    } while (++reps < 200 && seconds_since(t0) < budget_s);
  };

  // Measured phase: whole passes (both stacks, load and drain) until the
  // time budget is spent and enough samples exist for the p95.  A sample
  // is one simulated second of load on both stacks: FD's slice i plus
  // GM's slice i.
  const std::size_t min_samples = a.smoke ? 0 : 200;
  std::vector<double> samples, samples_raw;
  StackResult first[2];
  bool deterministic = true;
  int passes = 0;
  const Clock::time_point m0 = Clock::now();
  do {
    const Clock::time_point p0 = Clock::now();
    StackResult pass[2];
    for (int i = 0; i < 2; ++i) {
      StackResult& r = pass[i] = run_stack(w, kStacks[i], RunOptions{.reference = true});
      std::cout << "pass " << passes + 1 << " " << core::algorithm_name(kStacks[i])
                << " host_s=" << r.run_host_s << " slice_p50_ms=" << quantile(r.slice_host_ms, 0.5)
                << " ref_scale=" << r.ref_scale << "\n";
      if (passes == 0) {
        first[i] = r;
        std::cout << "counts " << first[i].counts_line() << "\n";
      } else if (r.counts_line() != first[i].counts_line()) {
        deterministic = false;
        std::cout << "# determinism: pass " << passes + 1 << " differs: " << r.counts_line()
                  << "\n";
      }
    }
    const StackResult& fd = pass[0];
    const StackResult& gm = pass[1];
    for (std::size_t k = 0; k < fd.slice_host_ms.size(); ++k) {
      samples_raw.push_back(fd.slice_host_ms[k] + gm.slice_host_ms[k]);
      samples.push_back(fd.slice_host_ms[k] * fd.ref_scale + gm.slice_host_ms[k] * gm.ref_scale);
    }
    ++passes;
    time_setups(0.1 * seconds_since(p0), gm.ref_scale);
  } while ((seconds_since(m0) < a.seconds || samples.size() < min_samples) && passes < 100);

  std::cout << "raw setup_s=" << quantile(setup_raw, 0.5)
            << " host_ms_per_sim_s.p50=" << quantile(samples_raw, 0.5)
            << " host_ms_per_sim_s.p95=" << quantile(samples_raw, 0.95) << "\n";
  const double p95 = quantile(samples, 0.95);
  const auto beyond =
      std::count_if(samples.begin(), samples.end(), [p95](double v) { return v > p95; });
  std::cout << "samples passes=" << passes << " samples=" << samples.size()
            << " beyond_p95=" << beyond << " setup_reps=" << setup.size()
            << " deterministic=" << deterministic << "\n";
  const bool safe = verdicts_safe(first);

  Report rep;
  rep.set("setup_s", quantile(setup, 0.5));
  rep.set("host_ms_per_sim_s.p50", quantile(samples, 0.5));
  rep.set("host_ms_per_sim_s.p95", p95);
  rep.set("peak_rss_mb", peak_rss_mb());
  rep.set("lat_ms.fd.p50", quantile(first[0].latencies, 0.5));
  rep.set("lat_ms.fd.p99", quantile(first[0].latencies, 0.99));
  rep.set("lat_ms.gm.p50", quantile(first[1].latencies, 0.5));
  rep.set("lat_ms.gm.p99", quantile(first[1].latencies, 0.99));
  std::uint64_t attempted = 0, failed = 0;
  for (const StackResult& r : first) {
    attempted += r.verdict.attempted + r.shed;
    failed += r.verdict.failed + r.shed;
  }
  rep.print(safe && deterministic, attempted, failed);
  return 0;
}

// ------------------------------------------------------------- trace 1

int run_per_layer(const Args& a, const Workload& w) {
  SpanLog spans;
  StackResult plain[2], traced[2];
  {
    ScopedSpan s(&spans, "pass.untraced");
    for (int i = 0; i < 2; ++i)
      plain[i] = run_stack(w, kStacks[i], RunOptions{.count_allocs = true, .spans = &spans});
  }
  {
    ScopedSpan s(&spans, "pass.traced");
    for (int i = 0; i < 2; ++i)
      traced[i] = run_stack(w, kStacks[i], RunOptions{.traced = true, .spans = &spans});
  }
  bool correct = verdicts_safe(plain);
  for (int i = 0; i < 2; ++i) {
    std::cout << "counts " << plain[i].counts_line() << "\n";
    std::cout << "traced " << core::algorithm_name(kStacks[i])
              << " causal_edges=" << traced[i].edges_recorded
              << " dropped=" << traced[i].edges_dropped << "\n";
    if (traced[i].counts_line() != plain[i].counts_line()) {
      correct = false;
      std::cout << "# observer changed the run: " << traced[i].counts_line() << "\n";
    }
  }

  // Setup split (median of repetitions).
  std::vector<double> construct, start;
  {
    ScopedSpan s(&spans, "harness.setup");
    for (int i = 0; i < 5; ++i) {
      const SetupTimes t = time_setup(w);
      construct.push_back(t.construct_s);
      start.push_back(t.start_s);
    }
  }

  const std::size_t pending = std::max(plain[0].pending_peak, plain[1].pending_peak);
  double sched_ns, net_ns, tr_ns = 0.0, fd_start, fd_ms;
  {
    ScopedSpan s(&spans, "harness.scheduler");
    sched_ns = scheduler_ns_per_event(pending, a.seed);
  }
  {
    ScopedSpan s(&spans, "harness.network");
    net_ns = network_ns_per_frame(w.cfg.n);
  }
  if (w.cfg.transport.enabled) {
    ScopedSpan s(&spans, "harness.transport");
    double loss = 0.0;
    for (const fault::FaultEvent& e : w.cfg.faults.events())
      if (e.kind == fault::FaultKind::kLoss) loss = e.rate;
    tr_ns = transport_ns_per_frame(w.cfg.n, loss, a.seed);
  }
  {
    ScopedSpan s(&spans, "harness.fd");
    fd_start = fd_start_s(w);
    fd_ms = fd_host_ms_per_sim_s(w, w.load_ms);
  }

  // Backend comparison over a prefix of the load; every backend must
  // reproduce the heap's delivery digest.
  const double prefix_ms = std::min(w.load_ms, a.smoke ? 2000.0 : 10000.0);
  const int par_threads =
      static_cast<int>(std::clamp(std::thread::hardware_concurrency(), 1u, 4u));
  std::map<std::string, double> backend_ms;
  std::uint64_t ref_digest[2] = {0, 0};
  for (auto [name, backend] : {std::pair{"heap", sim::SchedulerBackend::kHeap},
                               std::pair{"wheel", sim::SchedulerBackend::kWheel},
                               std::pair{"par", sim::SchedulerBackend::kParallel}}) {
    ScopedSpan s(&spans, std::string("backend.") + name);
    double host_s = 0.0;
    for (int i = 0; i < 2; ++i) {
      RunOptions opt;
      opt.scheduler.backend = backend;
      opt.scheduler.threads = par_threads;
      opt.prefix_ms = prefix_ms;
      const StackResult r = run_stack(w, kStacks[i], opt);
      host_s += r.run_host_s;
      if (backend == sim::SchedulerBackend::kHeap) {
        ref_digest[i] = r.digest;
      } else if (r.digest != ref_digest[i]) {
        correct = false;
        std::cout << "# backend " << name << " changed the " << core::algorithm_name(kStacks[i])
                  << " delivery digest\n";
      }
    }
    backend_ms[name] = host_s * 1e3 / (2.0 * prefix_ms / 1000.0);
  }

  const StackResult& fd = plain[0];
  const StackResult& gm = plain[1];
  const auto both = [&](auto field) {
    return static_cast<double>(fd.*field) + static_cast<double>(gm.*field);
  };
  const double msgs = both(&StackResult::shed) + static_cast<double>(fd.verdict.attempted) +
                      static_cast<double>(gm.verdict.attempted);
  const double failed = both(&StackResult::shed) + static_cast<double>(fd.verdict.failed) +
                        static_cast<double>(gm.verdict.failed);
  const double run_s = (w.load_ms + w.drain_ms) / 1000.0;
  const double host_u = fd.run_host_s + gm.run_host_s;
  const double host_t = traced[0].run_host_s + traced[1].run_host_s;
  const double retx = both(&StackResult::retx);

  Report rep;
  rep.set("failed_frac", ratio(failed, msgs));
  rep.set("sim.events_per_msg", ratio(both(&StackResult::events), msgs));
  rep.set("sim.pending_peak", static_cast<double>(pending));
  rep.set("sim.ns_per_event", sched_ns);
  rep.set("sim.backend_ms_per_sim_s.heap", backend_ms["heap"]);
  rep.set("sim.backend_ms_per_sim_s.wheel", backend_ms["wheel"]);
  rep.set("sim.backend_ms_per_sim_s.par", backend_ms["par"]);
  rep.set("fd.start_s", fd_start);
  rep.set("fd.host_ms_per_sim_s", fd_ms);
  rep.set("fd.suspicions_per_s",
          ratio(static_cast<double>(traced[0].suspicions + traced[1].suspicions), 2.0 * run_s));
  rep.set("net.frames_per_msg", ratio(both(&StackResult::frames), msgs));
  rep.set("net.deliveries_per_msg", ratio(both(&StackResult::deliveries), msgs));
  rep.set("net.lost_per_msg", ratio(both(&StackResult::lost), msgs));
  rep.set("net.arena_bytes_per_msg", ratio(both(&StackResult::arena_bytes), msgs));
  rep.set("net.ns_per_frame", net_ns);
  rep.set("transport.retx_per_msg", ratio(retx, msgs));
  rep.set("transport.nacks_per_msg", ratio(both(&StackResult::nacks), msgs));
  rep.set("transport.dups_per_msg", ratio(both(&StackResult::dups), msgs));
  rep.set("transport.useful_retx_ratio", retx > 0 ? 1.0 - both(&StackResult::dups) / retx : 0.0);
  rep.set("transport.seq_retx_share", ratio(both(&StackResult::retx_p0), retx));
  rep.set("transport.ns_per_frame", tr_ns);
  rep.set("rbcast.relays_per_msg",
          ratio(static_cast<double>(fd.rb_relays), static_cast<double>(fd.verdict.attempted)));
  rep.set("rbcast.retained_peak", static_cast<double>(fd.rb_retained_peak));
  rep.set("consensus.msgs_per_instance", ratio(static_cast<double>(traced[0].consensus_msgs),
                                               static_cast<double>(traced[0].instances)));
  rep.set("consensus.round_fail_ratio", ratio(static_cast<double>(traced[0].round_fails),
                                              static_cast<double>(traced[0].rounds)));
  rep.set("gm.views_installed", static_cast<double>(gm.views_installed));
  rep.set("abcast.host_ms_per_sim_s.fd.p50", quantile(fd.slice_host_ms, 0.5));
  rep.set("abcast.host_ms_per_sim_s.gm.p50", quantile(gm.slice_host_ms, 0.5));
  rep.set("abcast.host_growth.fd", tenth_growth(fd.slice_host_ms));
  rep.set("abcast.host_growth.gm", tenth_growth(gm.slice_host_ms));
  rep.set("core.construct_s", quantile(construct, 0.5));
  rep.set("core.start_s", quantile(start, 0.5));
  rep.set("core.allocs_per_msg",
          ratio(both(&StackResult::allocs), both(&StackResult::alloc_msgs)));
  rep.set("core.alloc_bytes_per_msg",
          ratio(both(&StackResult::alloc_bytes), both(&StackResult::alloc_msgs)));
  rep.set("fault.fired", both(&StackResult::faults_fired));
  for (int i = 0; i < 2; ++i) {
    const obs::CauseTotals& c = traced[i].causes;
    for (obs::Cause cause : kCauses)
      rep.set("obs.cause." + std::string(i == 0 ? "fd" : "gm") + "." + obs::cause_name(cause) +
                  "_ms",
              ratio(c.sums[static_cast<std::size_t>(cause)], static_cast<double>(c.count)));
  }
  rep.set("obs.trace_overhead", ratio(host_t, host_u));

  // Self time of the benchmark's own spans, then the span file.
  for (const char* name : {"construct", "start", "slice", "drain", "check", "destroy"})
    std::cout << "span " << name << " self_s=" << spans.self_seconds(name) << "\n";
  std::filesystem::create_directories(a.out_dir);
  const std::string path = a.out_dir + "/spans-" + w.name + "-seed" + std::to_string(a.seed) +
                           (a.smoke ? "-smoke" : "") + ".json";
  std::ofstream out(path);
  spans.write_chrome_json(out, provenance(a));
  if (!out) throw std::runtime_error("cannot write " + path);
  std::cout << "spans " << path << "\n";

  rep.print(correct, static_cast<std::uint64_t>(msgs), static_cast<std::uint64_t>(failed));
  return 0;
}

}  // namespace
}  // namespace fdgm::perf

int main(int argc, char** argv) {
  using namespace fdgm::perf;
  try {
    const Args a = parse(argc, argv);
    Workload w = make_workload(a.workload, a.seed);
    if (a.smoke) {
      // Test-sized: the same workload over a few simulated seconds.
      w.load_ms = 4000.0;
      w.drain_ms = 3000.0;
    }
    std::cout << "# provenance " << provenance(a) << "\n";
    std::cout << "# workload " << w.name << ": " << w.why << "\n";
    std::cout << "# faults " << (w.cfg.faults.empty() ? "none" : w.cfg.faults.to_string())
              << "\n";
    return a.trace == 0 ? run_end_to_end(a, w) : run_per_layer(a, w);
  } catch (const std::exception& e) {
    std::cerr << "fdgm_perf: " << e.what() << "\n";
    return 2;
  }
}
