// Deterministic random number generation for reproducible simulations.
//
// Every stochastic component in the simulator derives its randomness from a
// seeded Rng so that a given (topology seed, trace seed) pair always yields
// byte-identical traces. The engine is xoshiro256** (public domain, Blackman &
// Vigna) seeded via splitmix64, which satisfies UniformRandomBitGenerator and
// can therefore drive <random> distributions.
#pragma once

#include <cstdint>
#include <string_view>

namespace blameit::util {

/// Mixes a 64-bit state into a well-distributed output; used for seeding and
/// for cheap stateless hashing of ids into streams. Inline: the learner's
/// reservoir sampling calls it twice per observation.
[[nodiscard]] inline std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// Stateless hash of (seed, key) — handy for deriving per-entity substreams.
[[nodiscard]] inline std::uint64_t hash_combine(std::uint64_t seed,
                                                std::uint64_t key) noexcept {
  std::uint64_t state = seed ^ (key + 0x9E3779B97F4A7C15ull);
  return splitmix64(state);
}

/// FNV-1a hash of a string, for deriving substreams from names.
[[nodiscard]] std::uint64_t fnv1a(std::string_view s) noexcept;

/// xoshiro256** engine. Satisfies std::uniform_random_bit_generator.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0xB1A3E17u) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~result_type{0}; }

  result_type operator()() noexcept;

  /// Uniform double in [0, 1).
  [[nodiscard]] double uniform() noexcept;

  /// Uniform double in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi) noexcept;

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  [[nodiscard]] std::int64_t uniform_int(std::int64_t lo,
                                         std::int64_t hi) noexcept;

  /// Bernoulli trial with probability p of returning true.
  [[nodiscard]] bool chance(double p) noexcept;

  /// Standard normal via Box-Muller (cached second value).
  [[nodiscard]] double normal() noexcept;

  /// Normal with given mean and standard deviation.
  [[nodiscard]] double normal(double mean, double stddev) noexcept;

  /// Lognormal: exp(Normal(mu, sigma)).
  [[nodiscard]] double lognormal(double mu, double sigma) noexcept;

  /// Exponential with given mean (not rate). Requires mean > 0.
  [[nodiscard]] double exponential(double mean) noexcept;

  /// Pareto (type I) with scale xm > 0 and shape alpha > 0. Long-tailed;
  /// used for incident durations (§2.3 of the paper).
  [[nodiscard]] double pareto(double xm, double alpha) noexcept;

  /// Zipf-like rank sampler over [0, n): P(k) ∝ 1/(k+1)^s. Used to skew
  /// client activity across prefixes (§2.4).
  [[nodiscard]] std::size_t zipf(std::size_t n, double s) noexcept;

  /// Derives an independent child generator for the given key. Streams for
  /// different keys are statistically independent of the parent and of each
  /// other, so adding a new consumer never perturbs existing ones.
  [[nodiscard]] Rng fork(std::uint64_t key) const noexcept;
  [[nodiscard]] Rng fork(std::string_view key) const noexcept;

 private:
  std::uint64_t s_[4];
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace blameit::util
