#include "common/stats.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/error.hpp"

namespace rush {

void RunningStats::add(double x) noexcept {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::mean() const noexcept { return n_ == 0 ? 0.0 : mean_; }

double RunningStats::sample_variance() const noexcept {
  return n_ < 2 ? 0.0 : m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::sample_stddev() const noexcept { return std::sqrt(sample_variance()); }
double RunningStats::min() const noexcept { return n_ == 0 ? 0.0 : min_; }
double RunningStats::max() const noexcept { return n_ == 0 ? 0.0 : max_; }

namespace stats {

double mean(std::span<const double> xs) noexcept {
  if (xs.empty()) return 0.0;
  double s = 0.0;
  for (double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

double min(std::span<const double> xs) noexcept {
  double m = std::numeric_limits<double>::infinity();
  for (double x : xs) m = std::min(m, x);
  return xs.empty() ? 0.0 : m;
}

double max(std::span<const double> xs) noexcept {
  double m = -std::numeric_limits<double>::infinity();
  for (double x : xs) m = std::max(m, x);
  return xs.empty() ? 0.0 : m;
}

double quantile(std::span<const double> xs, double q) {
  RUSH_EXPECTS(!xs.empty());
  RUSH_EXPECTS(q >= 0.0 && q <= 1.0);
  std::vector<double> v(xs.begin(), xs.end());
  std::sort(v.begin(), v.end());
  if (v.size() == 1) return v.front();
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const auto hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + frac * (v[hi] - v[lo]);
}

double median(std::span<const double> xs) { return quantile(xs, 0.5); }

}  // namespace stats

Summary summarize(std::span<const double> xs) {
  Summary s;
  s.n = xs.size();
  if (xs.empty()) return s;
  s.min = stats::min(xs);
  s.max = stats::max(xs);
  s.q1 = stats::quantile(xs, 0.25);
  s.median = stats::median(xs);
  s.q3 = stats::quantile(xs, 0.75);
  s.mean = stats::mean(xs);
  return s;
}

}  // namespace rush
