// Operator-new counting, linked into the benchmark binary only.
#pragma once

#include <cstdint>

namespace fdgm::perf {

/// Counting is off until switched on, so uncounted runs pay one relaxed
/// load per allocation.
void set_alloc_counting(bool on);
/// operator new calls / requested bytes while counting was on.
[[nodiscard]] std::uint64_t alloc_calls();
[[nodiscard]] std::uint64_t alloc_bytes();

}  // namespace fdgm::perf
