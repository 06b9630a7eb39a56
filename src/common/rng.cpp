#include "common/rng.hpp"

#include <cmath>

#include "common/error.hpp"

namespace rush {

namespace {

std::uint64_t splitmix64(std::uint64_t& x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(std::uint64_t seed) noexcept {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
  // Guard against the (astronomically unlikely) all-zero state.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

Rng Rng::split(std::uint64_t tag) noexcept {
  // Mix the tag with fresh output so children with distinct tags (or drawn
  // at distinct points in the parent stream) are independent.
  const std::uint64_t a = next();
  const std::uint64_t b = next();
  std::uint64_t mix = a ^ (tag * 0x9e3779b97f4a7c15ULL) ^ rotl(b, 23);
  return Rng(splitmix64(mix));
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) noexcept {
  if (lo >= hi) return lo;
  const auto range = static_cast<std::uint64_t>(hi - lo) + 1;
  // Lemire-style rejection-free-enough mapping; bias is negligible for the
  // ranges used here, but use rejection to keep draws exact.
  const std::uint64_t limit = max() - max() % range;
  std::uint64_t x = next();
  while (x >= limit) x = next();
  return lo + static_cast<std::int64_t>(x % range);
}

double Rng::normal(double mean, double stddev) noexcept { return mean + stddev * normal(); }

double Rng::lognormal(double mu, double sigma) noexcept { return std::exp(normal(mu, sigma)); }

bool Rng::bernoulli(double p) noexcept { return uniform() < p; }

std::uint64_t Rng::poisson(double mean) noexcept {
  if (mean <= 0.0) return 0;
  if (mean < 30.0) {
    const double limit = std::exp(-mean);
    std::uint64_t k = 0;
    double p = 1.0;
    do {
      ++k;
      p *= uniform();
    } while (p > limit);
    return k - 1;
  }
  // Normal approximation for large means, clamped at zero.
  const double draw = normal(mean, std::sqrt(mean));
  return draw <= 0.0 ? 0 : static_cast<std::uint64_t>(draw + 0.5);
}

void Rng::sample_indices(std::size_t n, std::size_t k, std::vector<std::size_t>& idx) noexcept {
  if (k > n) k = n;
  idx.resize(n);
  for (std::size_t i = 0; i < n; ++i) idx[i] = i;
  // Partial Fisher-Yates: only the first k positions need shuffling.
  for (std::size_t i = 0; i < k; ++i) {
    const auto j = static_cast<std::size_t>(
        uniform_int(static_cast<std::int64_t>(i), static_cast<std::int64_t>(n) - 1));
    std::swap(idx[i], idx[j]);
  }
  idx.resize(k);
}

}  // namespace rush
