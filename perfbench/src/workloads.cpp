#include "workloads.hpp"

#include <stdexcept>
#include <tuple>

#include "sim/rng.hpp"

namespace fdgm::perf {

namespace {

Workload base(const std::string& name, std::uint64_t seed, int n, double throughput,
              double load_ms) {
  Workload w;
  w.name = name;
  w.cfg.n = n;
  w.cfg.seed = seed;
  w.cfg.fd_params.detection_time = 30.0;
  w.throughput = throughput;
  w.load_ms = load_ms;
  return w;
}

}  // namespace

Workload make_workload(const std::string& name, std::uint64_t seed) {
  if (name == "paper_steady") {
    Workload w = base(name, seed, 7, 500.0, 60000.0);
    w.why = "paper normal-steady point: per-message ordering paths, no timers or faults";
    return w;
  }
  if (name == "paper_suspect_crash") {
    Workload w = base(name, seed, 7, 500.0, 60000.0);
    w.why = "paper suspicion and crash regime: membership, recovery and failed rounds work";
    w.cfg.fd_params.wrong_suspicions = true;
    w.cfg.fd_params.mistake_recurrence = 10000.0;
    w.cfg.fd_params.mistake_duration = 10.0;
    // The sequencer / first coordinator p0 goes down for 3-4 s, later p1.
    sim::Rng faults = sim::Rng(seed).fork("perf.faults");
    const double c0 = faults.uniform(10000.0, 11000.0);
    const double r0 = c0 + faults.uniform(3000.0, 4000.0);
    const double c1 = faults.uniform(35000.0, 36000.0);
    const double r1 = c1 + faults.uniform(3000.0, 4000.0);
    for (auto [p, at, kind] : {std::tuple{0, c0, fault::FaultKind::kCrash},
                               std::tuple{0, r0, fault::FaultKind::kRecover},
                               std::tuple{1, c1, fault::FaultKind::kCrash},
                               std::tuple{1, r1, fault::FaultKind::kRecover}}) {
      fault::FaultEvent e;
      e.kind = kind;
      e.process = p;
      e.at = at;
      w.cfg.faults.add(e);
    }
    return w;
  }
  if (name == "large_group") {
    const int n = 128;
    Workload w = base(name, seed, n, 100.0, 40000.0);
    w.why = "n=128 with O(n^2) FD renewal timers: scheduler, QoS model and fan-out dominate";
    w.cfg.fd_params.wrong_suspicions = true;
    w.cfg.fd_params.mistake_recurrence = static_cast<double>(n) * (n - 1) * 5000.0;
    w.cfg.fd_params.mistake_duration = 50.0;
    return w;
  }
  if (name == "lossy_recovery") {
    Workload w = base(name, seed, 32, 50.0, 480000.0);
    w.why = "5% loss on every frame for the whole run: transport NACK recovery does the work";
    w.cfg.transport.enabled = true;
    fault::FaultEvent e;
    e.kind = fault::FaultKind::kLoss;
    e.rate = 0.05;
    e.at = 0.0;
    e.until = w.load_ms + w.drain_ms;
    w.cfg.faults.add(e);
    return w;
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

}  // namespace fdgm::perf
