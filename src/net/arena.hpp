// Bump-pointer arena owning every payload of one simulated run.
//
// Payloads are allocated once, shared by reference for as long as any
// layer retains them (delivery logs, pending sets, held messages) and
// freed wholesale when the run — the owning net::System — is destroyed.
// This removes the per-receiver shared_ptr refcount traffic of the old
// payload model from the hot path; the cost is that a run's payload
// memory is not reclaimed until the run ends, which is bounded by the
// run length and tiny for every scenario in this repository.
//
// Non-trivially-destructible payloads (those holding vectors/maps) are
// registered in a finalizer list and destroyed in reverse allocation
// order at teardown.
//
// Under the parallel scheduler backend the arena is sharded: each
// scheduler partition bumps its own block list (selected through the
// thread-local execution context), so workers allocating payloads
// concurrently never share a bump pointer.  Payload *addresses* are not
// an observable of the simulation, so sharding cannot perturb results.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/exec_ctx.hpp"

namespace fdgm::net {

class PayloadArena {
 public:
  PayloadArena() : shards_(1) {}
  PayloadArena(const PayloadArena&) = delete;
  PayloadArena& operator=(const PayloadArena&) = delete;
  ~PayloadArena() {
    for (Shard& s : shards_)
      for (auto it = s.finalizers.rbegin(); it != s.finalizers.rend(); ++it) it->fn(it->obj);
  }

  /// One shard per scheduler partition (owners + 1).  Call before the
  /// run starts; pre-existing allocations stay in shard 0.
  void set_shards(std::size_t count) {
    if (count > shards_.size()) shards_.resize(count);
  }

  /// Construct a T in the arena.  The pointer stays valid for the arena's
  /// lifetime; callers typically pass it on as a const payload pointer.
  template <typename T, typename... Args>
  T* make(Args&&... args) {
    static_assert(alignof(T) <= alignof(std::max_align_t));
    Shard& s = current_shard();
    void* mem = allocate(s, sizeof(T), alignof(T));
    T* obj = ::new (mem) T(std::forward<Args>(args)...);
    if constexpr (!std::is_trivially_destructible_v<T>)
      s.finalizers.push_back(Finalizer{[](void* p) { static_cast<T*>(p)->~T(); }, obj});
    ++s.objects;
    return obj;
  }

  /// Totals across shards; only meaningful at serial points.
  [[nodiscard]] std::uint64_t objects() const {
    std::uint64_t n = 0;
    for (const Shard& s : shards_) n += s.objects;
    return n;
  }
  [[nodiscard]] std::size_t bytes_reserved() const {
    std::size_t n = 0;
    for (const Shard& s : shards_) n += s.bytes_reserved;
    return n;
  }

 private:
  static constexpr std::size_t kBlockBytes = 64 * 1024;

  struct Finalizer {
    void (*fn)(void*);
    void* obj;
  };
  struct Block {
    std::unique_ptr<std::byte[]> mem;
    std::size_t used = 0;
    std::size_t cap = 0;
  };
  struct alignas(64) Shard {
    std::vector<Block> blocks;
    std::vector<Finalizer> finalizers;
    std::uint64_t objects = 0;
    std::size_t bytes_reserved = 0;
  };

  [[nodiscard]] Shard& current_shard() {
    const sim::ExecCtx* c = sim::exec_ctx();
    if (c == nullptr) return shards_[0];
    const auto idx = static_cast<std::size_t>(c->owner + 1);
    return idx < shards_.size() ? shards_[idx] : shards_[0];
  }

  static void* allocate(Shard& s, std::size_t size, std::size_t align) {
    if (s.blocks.empty()) grow(s, size + align);
    std::size_t off = aligned_used(s, align);
    if (off + size > s.blocks.back().cap) {
      grow(s, size + align);
      off = aligned_used(s, align);
    }
    Block& b = s.blocks.back();
    void* p = b.mem.get() + off;
    b.used = off + size;
    return p;
  }

  [[nodiscard]] static std::size_t aligned_used(const Shard& s, std::size_t align) {
    const std::size_t used = s.blocks.back().used;
    return (used + align - 1) & ~(align - 1);
  }

  static void grow(Shard& s, std::size_t at_least) {
    const std::size_t cap = at_least > kBlockBytes ? at_least : kBlockBytes;
    s.blocks.push_back(Block{std::make_unique<std::byte[]>(cap), 0, cap});
    s.bytes_reserved += cap;
  }

  std::vector<Shard> shards_;
};

}  // namespace fdgm::net
