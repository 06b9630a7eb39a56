#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "obs/json.hpp"

namespace rush::obs {

Histogram::Histogram(double lo, double hi, std::size_t buckets, HistogramScale scale)
    : lo_(lo), hi_(hi), scale_(scale) {
  RUSH_EXPECTS(hi > lo);
  RUSH_EXPECTS(buckets > 0);
  RUSH_EXPECTS(scale != HistogramScale::Log2 || lo > 0.0);
  if (scale_ == HistogramScale::Log2) {
    log_lo_ = std::log2(lo_);
    log_hi_ = std::log2(hi_);
  }
  buckets_.assign(buckets + 2, 0);  // + underflow/overflow
}

double Histogram::bucket_lower(std::size_t i) const noexcept {
  if (scale_ == HistogramScale::Log2)
    return std::exp2(log_lo_ + static_cast<double>(i - 1) * log_width());
  return lo_ + static_cast<double>(i - 1) * bucket_width();
}

void Histogram::record(double v) noexcept {
  if (!std::isfinite(v)) return;
  const std::scoped_lock lock(mu_);
  if (count_ == 0) {
    observed_min_ = v;
    observed_max_ = v;
  } else {
    observed_min_ = std::min(observed_min_, v);
    observed_max_ = std::max(observed_max_, v);
  }
  ++count_;
  sum_ += v;
  std::size_t idx;
  if (v < lo_) {
    idx = 0;
  } else if (v >= hi_) {
    idx = buckets_.size() - 1;
  } else if (scale_ == HistogramScale::Log2) {
    idx = 1 + static_cast<std::size_t>((std::log2(v) - log_lo_) / log_width());
    idx = std::min(idx, buckets_.size() - 2);  // guard log rounding at the edges
  } else {
    idx = 1 + static_cast<std::size_t>((v - lo_) / bucket_width());
    idx = std::min(idx, buckets_.size() - 2);  // guard v == hi_ - epsilon rounding
  }
  ++buckets_[idx];
}

std::uint64_t Histogram::count() const noexcept {
  const std::scoped_lock lock(mu_);
  return count_;
}

double Histogram::min() const noexcept {
  const std::scoped_lock lock(mu_);
  return count_ ? observed_min_ : 0.0;
}

double Histogram::max() const noexcept {
  const std::scoped_lock lock(mu_);
  return count_ ? observed_max_ : 0.0;
}

double Histogram::mean() const noexcept {
  const std::scoped_lock lock(mu_);
  return count_ ? sum_ / static_cast<double>(count_) : 0.0;
}

double Histogram::percentile(double q) const {
  RUSH_EXPECTS(q >= 0.0 && q <= 1.0);
  const std::scoped_lock lock(mu_);
  return percentile_locked(q);
}

double Histogram::percentile_locked(double q) const {
  if (count_ == 0) return 0.0;
  if (q <= 0.0) return observed_min_;
  if (q >= 1.0) return observed_max_;

  // Rank in [1, count_]: the q-th smallest sample (nearest-rank, then
  // linear interpolation within the containing bucket).
  const double rank = q * static_cast<double>(count_);
  double cumulative = 0.0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    const double prev = cumulative;
    cumulative += static_cast<double>(buckets_[i]);
    if (cumulative < rank) continue;
    if (i == 0) return observed_min_;                   // underflow bucket
    if (i == buckets_.size() - 1) return observed_max_; // overflow bucket
    const double frac =
        buckets_[i] == 0 ? 0.0 : (rank - prev) / static_cast<double>(buckets_[i]);
    // Interpolate in the space the buckets are laid out in: linearly for
    // Uniform, geometrically (linear in log2) for Log2.
    const double v =
        scale_ == HistogramScale::Log2
            ? std::exp2(log_lo_ + (static_cast<double>(i - 1) + frac) * log_width())
            : bucket_lower(i) + frac * bucket_width();
    return std::clamp(v, observed_min_, observed_max_);
  }
  return observed_max_;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  const std::scoped_lock lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name, double lo, double hi,
                                      std::size_t buckets, HistogramScale scale) {
  const std::scoped_lock lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>(lo, hi, buckets, scale);
  return *slot;
}

std::string MetricsRegistry::snapshot_json() const {
  const std::scoped_lock lock(mu_);
  std::string out;
  JsonWriter w(out);
  w.begin_object();
  w.begin_object("counters");
  for (const auto& [name, c] : counters_) w.field(name, c->value());
  w.end_object();
  w.begin_object("histograms");
  for (const auto& [name, h] : histograms_) {
    w.begin_object(name);
    w.field("count", h->count());
    w.field("mean", h->mean());
    w.field("min", h->min());
    w.field("max", h->max());
    w.field("p50", h->percentile(0.50));
    w.field("p90", h->percentile(0.90));
    w.field("p99", h->percentile(0.99));
    w.end_object();
  }
  w.end_object();
  w.end_object();
  return out;
}

}  // namespace rush::obs
