// Replaces the global (non-aligned) operator new / delete with counting
// versions.  Relaxed atomics: the parallel scheduler backend allocates
// from its worker threads too.  While counting is off the only cost is
// the flag's relaxed load.
#include "alloc_count.hpp"

#include <atomic>
#include <cstdlib>
#include <new>

// GCC pairs the malloc-backed operator new below with the free-backed
// operator delete across inlining and flags a false mismatch; the pair
// is consistent by construction.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

namespace {
std::atomic<bool> g_on{false};
std::atomic<std::uint64_t> g_calls{0};
std::atomic<std::uint64_t> g_bytes{0};

void* counted(std::size_t n) {
  if (g_on.load(std::memory_order_relaxed)) {
    g_calls.fetch_add(1, std::memory_order_relaxed);
    g_bytes.fetch_add(n, std::memory_order_relaxed);
  }
  return std::malloc(n == 0 ? 1 : n);
}
}  // namespace

void* operator new(std::size_t n) {
  if (void* p = counted(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  if (void* p = counted(n)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept { return counted(n); }
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept { return counted(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace fdgm::perf {

void set_alloc_counting(bool on) { g_on.store(on, std::memory_order_relaxed); }
std::uint64_t alloc_calls() { return g_calls.load(std::memory_order_relaxed); }
std::uint64_t alloc_bytes() { return g_bytes.load(std::memory_order_relaxed); }

}  // namespace fdgm::perf
