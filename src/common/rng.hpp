// Deterministic random number generation.
//
// Every stochastic component in RUSH owns its own Rng stream, seeded from a
// master seed via split(). This keeps experiments bit-reproducible while
// letting components evolve independently (adding a draw in one component
// does not perturb another component's stream).
#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

namespace rush {

/// xoshiro256** PRNG with splitmix64 seeding.
///
/// Satisfies UniformRandomBitGenerator so it can drive <random>
/// distributions, but the common draws are provided as members to keep
/// results stable across standard library implementations.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~result_type{0}; }

  result_type operator()() noexcept { return next(); }
  // next(), uniform() and normal() are defined inline below: the counter
  // sampler draws one normal per synthesized value.
  std::uint64_t next() noexcept;

  /// Derive an independent child stream. Deterministic in (parent state, tag).
  [[nodiscard]] Rng split(std::uint64_t tag) noexcept;

  /// Uniform double in [0, 1).
  double uniform() noexcept;
  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept { return lo + (hi - lo) * uniform(); }
  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) noexcept;
  /// Standard normal via Box-Muller (cached second value).
  double normal() noexcept;
  /// Normal with the given mean and standard deviation.
  double normal(double mean, double stddev) noexcept;
  /// Log-normal: exp(normal(mu, sigma)).
  double lognormal(double mu, double sigma) noexcept;
  /// Bernoulli draw with probability p of true.
  bool bernoulli(double p) noexcept;
  /// Poisson draw (Knuth for small means, normal approximation for large).
  std::uint64_t poisson(double mean) noexcept;

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) noexcept {
    for (std::size_t i = v.size(); i > 1; --i) {
      const auto j = static_cast<std::size_t>(uniform_int(0, static_cast<std::int64_t>(i) - 1));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  /// k distinct indices drawn from [0, n) (k <= n), in random order,
  /// written into `idx` (a reused buffer; its prior contents are ignored).
  void sample_indices(std::size_t n, std::size_t k, std::vector<std::size_t>& idx) noexcept;

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t s_[4];
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

inline std::uint64_t Rng::next() noexcept {
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

inline double Rng::uniform() noexcept {
  // 53-bit mantissa method: uniform in [0, 1).
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

inline double Rng::normal() noexcept {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  double u1 = uniform();
  while (u1 <= 0.0) u1 = uniform();
  const double u2 = uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * 3.14159265358979323846 * u2;
  cached_normal_ = r * std::sin(theta);
  has_cached_normal_ = true;
  return r * std::cos(theta);
}

}  // namespace rush
