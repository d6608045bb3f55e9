#include "util/rng.h"

#include <cmath>
#include <numbers>

namespace blameit::util {

std::uint64_t fnv1a(std::string_view s) noexcept {
  std::uint64_t h = 0xCBF29CE484222325ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001B3ull;
  }
  return h;
}

namespace {
constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Rng::Rng(std::uint64_t seed) noexcept {
  // splitmix64 seeding as recommended by the xoshiro authors; avoids the
  // all-zero state that would lock the engine at zero.
  for (auto& word : s_) word = splitmix64(seed);
}

Rng::result_type Rng::operator()() noexcept {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::uniform() noexcept {
  // 53 random bits into the mantissa: uniform on [0, 1).
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) noexcept {
  return lo + (hi - lo) * uniform();
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) noexcept {
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  if (span == 0) return lo + static_cast<std::int64_t>((*this)());
  // Rejection sampling to remove modulo bias.
  const std::uint64_t limit = max() - max() % span;
  std::uint64_t draw;
  do {
    draw = (*this)();
  } while (draw >= limit);
  return lo + static_cast<std::int64_t>(draw % span);
}

bool Rng::chance(double p) noexcept { return uniform() < p; }

double Rng::normal() noexcept {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  double u1 = uniform();
  while (u1 <= 0.0) u1 = uniform();
  const double u2 = uniform();
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double angle = 2.0 * std::numbers::pi * u2;
  cached_normal_ = radius * std::sin(angle);
  has_cached_normal_ = true;
  return radius * std::cos(angle);
}

double Rng::normal(double mean, double stddev) noexcept {
  return mean + stddev * normal();
}

double Rng::lognormal(double mu, double sigma) noexcept {
  return std::exp(normal(mu, sigma));
}

double Rng::exponential(double mean) noexcept {
  double u = uniform();
  while (u <= 0.0) u = uniform();
  return -mean * std::log(u);
}

double Rng::pareto(double xm, double alpha) noexcept {
  double u = uniform();
  while (u <= 0.0) u = uniform();
  return xm / std::pow(u, 1.0 / alpha);
}

std::size_t Rng::zipf(std::size_t n, double s) noexcept {
  if (n == 0) return 0;
  // Inverse-CDF over the truncated harmonic series would require a table;
  // for simulation purposes we use the rejection-free approximation of
  // sampling u^(1/(1-s)) when s != 1, clamped to the support.
  const double u = uniform();
  double rank;
  if (s == 1.0) {
    rank = std::pow(static_cast<double>(n), u) - 1.0;
  } else {
    const double pow_n = std::pow(static_cast<double>(n), 1.0 - s);
    rank = std::pow(u * (pow_n - 1.0) + 1.0, 1.0 / (1.0 - s)) - 1.0;
  }
  auto idx = static_cast<std::size_t>(rank);
  return idx >= n ? n - 1 : idx;
}

Rng Rng::fork(std::uint64_t key) const noexcept {
  // Mix the parent state with the key; the parent is not advanced.
  std::uint64_t state = s_[0] ^ rotl(s_[3], 13);
  return Rng{hash_combine(splitmix64(state), key)};
}

Rng Rng::fork(std::string_view key) const noexcept {
  return fork(fnv1a(key));
}

}  // namespace blameit::util
