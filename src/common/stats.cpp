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

void RunningStats::merge(const RunningStats& other) noexcept {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  n_ += other.n_;
}

double RunningStats::mean() const noexcept { return n_ == 0 ? 0.0 : mean_; }

double RunningStats::variance() const noexcept {
  return n_ < 2 ? 0.0 : m2_ / static_cast<double>(n_);
}

double RunningStats::sample_variance() const noexcept {
  return n_ < 2 ? 0.0 : m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const noexcept { return std::sqrt(variance()); }
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

double variance(std::span<const double> xs) noexcept {
  if (xs.size() < 2) return 0.0;
  const double m = mean(xs);
  double s = 0.0;
  for (double x : xs) s += (x - m) * (x - m);
  return s / static_cast<double>(xs.size());
}

double sample_stddev(std::span<const double> xs) noexcept {
  if (xs.size() < 2) return 0.0;
  const double m = mean(xs);
  double s = 0.0;
  for (double x : xs) s += (x - m) * (x - m);
  return std::sqrt(s / static_cast<double>(xs.size() - 1));
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

double zscore(double x, std::span<const double> xs) noexcept {
  const double sd = sample_stddev(xs);
  if (sd <= 0.0) return 0.0;
  return (x - mean(xs)) / sd;
}

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
