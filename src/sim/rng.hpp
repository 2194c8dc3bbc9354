// Deterministic random-number streams.
//
// Every source of randomness in a simulation (workload arrivals, failure
// detector mistakes, ...) gets its own named sub-stream forked from one
// master seed, so adding a consumer never perturbs the draws seen by the
// others and every experiment is exactly reproducible.
#pragma once

#include <cstdint>
#include <random>
#include <string_view>

namespace fdgm::sim {

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(splitmix(seed)), seed_base_(seed) {}

  /// Derive an independent stream identified by (this stream, tag).
  [[nodiscard]] Rng fork(std::uint64_t tag) const { return Rng(fork_seed(tag)); }

  /// Derive an independent stream from a human-readable label.
  [[nodiscard]] Rng fork(std::string_view label) const { return fork(fnv1a(label)); }

  /// fork(tag).exponential(mean), bit for bit, without building the forked
  /// engine: only the mt19937_64 state its first output depends on is
  /// computed.  Streams drawn once per fork (e.g. a renewal process's
  /// first gap) skip seeding and twisting 312 words.
  [[nodiscard]] double fork_first_exponential(std::uint64_t tag, double mean) const {
    if (mean <= 0.0) return 0.0;
    OneWord word{mt19937_64_first(splitmix(fork_seed(tag)))};
    return std::exponential_distribution<double>(1.0 / mean)(word);
  }

  /// std::mt19937_64(seed)(): the first twist reads only x[0], x[1] and
  /// x[156] of the seeded state, so 156 seeding steps, one twist element
  /// and the tempering make the first output.
  [[nodiscard]] static std::uint64_t mt19937_64_first(std::uint64_t seed) {
    using Mt = std::mt19937_64;
    const auto step = [](std::uint64_t x, std::uint64_t i) {
      return Mt::initialization_multiplier * (x ^ (x >> (Mt::word_size - 2))) + i;
    };
    const std::uint64_t x1 = step(seed, 1);
    std::uint64_t x = x1;  // x[i], i = 1 .. shift_size
    for (std::uint64_t i = 2; i <= Mt::shift_size; ++i) x = step(x, i);
    constexpr std::uint64_t kLower = (std::uint64_t{1} << Mt::mask_bits) - 1;
    const std::uint64_t y = (seed & ~kLower) | (x1 & kLower);
    std::uint64_t z = x ^ (y >> 1) ^ ((y & 1) ? Mt::xor_mask : 0);
    z ^= (z >> Mt::tempering_u) & Mt::tempering_d;
    z ^= (z << Mt::tempering_s) & Mt::tempering_b;
    z ^= (z << Mt::tempering_t) & Mt::tempering_c;
    return z ^ (z >> Mt::tempering_l);
  }

  /// Uniform double in [0, 1).
  double uniform() { return std::uniform_real_distribution<double>(0.0, 1.0)(engine_); }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  /// Uniform integer in [lo, hi] (inclusive).
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }

  /// Exponential variate with the given mean (mean 0 returns 0).
  double exponential(double mean) {
    if (mean <= 0.0) return 0.0;
    return std::exponential_distribution<double>(1.0 / mean)(engine_);
  }

  /// Raw 64-bit draw.
  std::uint64_t next_u64() { return engine_(); }

  using result_type = std::mt19937_64::result_type;
  static constexpr result_type min() { return std::mt19937_64::min(); }
  static constexpr result_type max() { return std::mt19937_64::max(); }
  result_type operator()() { return engine_(); }

 private:
  /// URBG that yields one precomputed engine word, with mt19937_64's range
  /// so a distribution converts it exactly as it would the engine's.
  struct OneWord {
    using result_type = std::uint64_t;
    static constexpr result_type min() { return std::mt19937_64::min(); }
    static constexpr result_type max() { return std::mt19937_64::max(); }
    result_type operator()() const { return word; }
    std::uint64_t word;
  };

  /// Seed of the stream fork(tag) returns (before Rng's own splitmix).
  [[nodiscard]] std::uint64_t fork_seed(std::uint64_t tag) const {
    return splitmix(seed_base_ ^ splitmix(tag + 0x51ed2701));
  }

  static std::uint64_t splitmix(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  }

  static std::uint64_t fnv1a(std::string_view s) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (char c : s) {
      h ^= static_cast<unsigned char>(c);
      h *= 0x100000001b3ULL;
    }
    return h;
  }

  std::mt19937_64 engine_;
  std::uint64_t seed_base_ = 0;
};

}  // namespace fdgm::sim
