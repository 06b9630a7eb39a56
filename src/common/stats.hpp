// Streaming and batch statistics used throughout the telemetry, labeling,
// and reporting layers.
#pragma once

#include <cstddef>
#include <span>

namespace rush {

/// Welford-style streaming accumulator for count/mean/variance/min/max.
class RunningStats {
 public:
  void add(double x) noexcept;
  void clear() noexcept { *this = RunningStats{}; }

  [[nodiscard]] std::size_t count() const noexcept { return n_; }
  [[nodiscard]] bool empty() const noexcept { return n_ == 0; }
  /// Mean of added values; 0 when empty.
  [[nodiscard]] double mean() const noexcept;
  /// Sample (Bessel-corrected) variance; 0 when fewer than 2 samples.
  [[nodiscard]] double sample_variance() const noexcept;
  [[nodiscard]] double sample_stddev() const noexcept;
  [[nodiscard]] double min() const noexcept;
  [[nodiscard]] double max() const noexcept;

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Batch helpers over a span of samples.
namespace stats {

double mean(std::span<const double> xs) noexcept;
double min(std::span<const double> xs) noexcept;
double max(std::span<const double> xs) noexcept;
double median(std::span<const double> xs);

/// Linear-interpolation quantile, q in [0, 1]. Requires non-empty input.
double quantile(std::span<const double> xs, double q);

}  // namespace stats

/// Five-number summary plus mean, for box-plot style reporting (Figs. 6-8).
struct Summary {
  std::size_t n = 0;
  double min = 0, q1 = 0, median = 0, q3 = 0, max = 0, mean = 0;
};

Summary summarize(std::span<const double> xs);

}  // namespace rush
