// The benchmark's four workloads, each generated from the benchmark seed.
//
// A workload is the simulated system (core::SimConfig minus the stack,
// plus its fault schedule) and the open-loop client load that drives it.
// The benchmark runs every workload on both stacks, FD then GM, with the
// default scheduler configuration.
#pragma once

#include <cstdint>
#include <string>

#include "core/experiment.hpp"

namespace fdgm::perf {

struct Workload {
  std::string name;
  std::string why;
  /// Everything but the algorithm, which the run sets per stack.
  core::SimConfig cfg;
  /// T: A-broadcasts per second across the group (T/n per process).
  double throughput = 0.0;
  /// The clients broadcast in [0, load_ms).
  double load_ms = 0.0;
  /// Latency samples are the messages due in [warmup_ms, load_ms).
  double warmup_ms = 1000.0;
  /// Fixed drain bound: the run ends at load_ms + drain_ms, and a message
  /// not delivered at every correct process by then has failed.
  double drain_ms = 10000.0;
};

/// Throws std::invalid_argument for an unknown name.
[[nodiscard]] Workload make_workload(const std::string& name, std::uint64_t seed);

}  // namespace fdgm::perf
