#pragma once
// Deterministic pseudo-random number generation.
//
// Every stochastic component in the system (corpus generation, the simulated
// LLM's sampling noise, latency jitter, HNSW levels) draws from an explicitly
// seeded `Rng` so that tests, examples, and benchmarks are reproducible
// bit-for-bit across runs. Never use std::random_device or wall-clock seeding.

#include <cstdint>
#include <string_view>
#include <vector>

namespace pkb::util {

/// xoshiro256** 1.0 — small, fast, high-quality 64-bit generator.
/// Satisfies UniformRandomBitGenerator.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four 64-bit lanes from `seed` via SplitMix64, which guarantees
  /// a non-zero state for every seed (including 0).
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }

  /// Next raw 64-bit value.
  result_type operator()();

  /// Uniform integer in [0, bound). `bound` must be > 0. Uses rejection
  /// sampling (Lemire-style) to avoid modulo bias.
  std::uint64_t below(std::uint64_t bound);

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Standard normal via Box-Muller (cached second value).
  double normal();

  /// Bernoulli trial with probability `p` of true.
  bool chance(double p);

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(below(i));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  /// Uniformly pick one element; `v` must be non-empty.
  template <typename T>
  const T& pick(const std::vector<T>& v) {
    return v[static_cast<std::size_t>(below(v.size()))];
  }

 private:
  std::uint64_t s_[4];
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

/// 64-bit FNV-1a hash of a byte string. Deterministic across platforms; used
/// for hashed embeddings and for deriving stable per-entity seeds.
[[nodiscard]] std::uint64_t fnv1a64(std::string_view s);

/// Stable seed derived from a string label and a numeric salt.
[[nodiscard]] std::uint64_t seed_from(std::string_view label,
                                      std::uint64_t salt = 0);

}  // namespace pkb::util
