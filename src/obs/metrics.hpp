// Process-local metrics: counters and fixed-bucket histograms.
//
// Call sites resolve their instrument once (a stable pointer into the
// registry) and then update it with a plain member call — an increment is
// one relaxed atomic add, cheap enough for the network-probe and
// event-loop hot paths. A snapshot renders every instrument into one
// deterministic JSON object (keys sorted), which the bench harness writes
// alongside its trace output.
//
// Thread-safety: one registry is shared by every trial the task pool runs
// concurrently (see DESIGN.md §10). Counters are atomics; histograms
// serialize record() behind a small internal mutex; name lookup locks
// the registry map. Counter totals and histogram counts/buckets are
// order-independent, so they stay bit-identical for any worker count; a
// histogram's floating-point `sum` (and thus `mean`) can differ in final
// ulps under concurrency because addition order varies.
//
// Instruments are intentionally simple: no tags, no wall-clock windows.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace rush::obs {

class Counter {
 public:
  void inc(std::uint64_t n = 1) noexcept { value_.fetch_add(n, std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Bucket-boundary layout of a Histogram. Uniform splits [lo, hi) into
/// equal-width buckets; Log2 splits it geometrically (equal width in
/// log2 space), so a fixed bucket count covers several orders of
/// magnitude with constant *relative* resolution — the right shape for
/// heavy-tailed quantities like queue depth, where a uniform [0, 256)
/// histogram clips everything beyond its hi into one overflow bucket.
enum class HistogramScale : std::uint8_t { Uniform, Log2 };

/// Fixed-bucket histogram over [lo, hi) with underflow/overflow buckets
/// and a Uniform or Log2 bucket layout. Records are O(1) behind an
/// internal mutex; percentile() interpolates inside the containing bucket
/// (linearly for Uniform, geometrically for Log2), which is exact for
/// matching-shaped data and within one bucket otherwise. Log2 requires
/// lo > 0; samples below lo (including 0) land in the underflow bucket
/// and still update count/sum/min/max exactly.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t buckets,
            HistogramScale scale = HistogramScale::Uniform);

  void record(double v) noexcept;
  [[nodiscard]] std::uint64_t count() const noexcept;
  [[nodiscard]] double min() const noexcept;
  [[nodiscard]] double max() const noexcept;
  [[nodiscard]] double mean() const noexcept;

  /// Value at quantile q in [0, 1]. Returns the observed min/max at the
  /// extremes; 0 when empty. Underflow/overflow samples clamp to the
  /// observed extreme on their side.
  [[nodiscard]] double percentile(double q) const;

 private:
  // Reading only the bucket *count*, which is fixed at construction.
  [[nodiscard]] double bucket_width() const noexcept {
    return (hi_ - lo_) / static_cast<double>(buckets_.size() - 2);  // rush-analyze: allow(guarded-member)
  }
  /// Interior bucket width in log2 space (Log2 scale only).
  [[nodiscard]] double log_width() const noexcept {
    return (log_hi_ - log_lo_) / static_cast<double>(buckets_.size() - 2);  // rush-analyze: allow(guarded-member)
  }
  /// Lower edge of interior bucket i (1-based, honoring the scale).
  [[nodiscard]] double bucket_lower(std::size_t i) const noexcept;
  [[nodiscard]] double percentile_locked(double q) const;

  double lo_;
  double hi_;
  HistogramScale scale_;
  double log_lo_ = 0.0;  // log2(lo_) / log2(hi_), precomputed for Log2
  double log_hi_ = 0.0;
  mutable std::mutex mu_;
  // buckets_[0] = underflow, buckets_[n-1] = overflow.
  // rush: guarded_by(mu_)
  std::vector<std::uint64_t> buckets_;
  // rush: guarded_by(mu_)
  std::uint64_t count_ = 0;
  // rush: guarded_by(mu_)
  double sum_ = 0.0;
  // rush: guarded_by(mu_)
  double observed_min_ = 0.0;
  // rush: guarded_by(mu_)
  double observed_max_ = 0.0;
};

/// Named instrument registry. Lookup by name creates on first use and
/// returns a reference that stays valid for the registry's lifetime, so
/// hot paths resolve once and cache the pointer. Lookups and snapshots
/// are internally synchronized; concurrent trials share one registry.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(const std::string& name);
  /// Bucket shape is fixed by the first call for a given name; later
  /// calls with the same name return the existing histogram.
  Histogram& histogram(const std::string& name, double lo, double hi, std::size_t buckets,
                       HistogramScale scale = HistogramScale::Uniform);

  /// One JSON object over every instrument, keys sorted by name:
  ///   {"counters":{...},"histograms":{"x":{"count":..,"mean":..,
  ///    "min":..,"max":..,"p50":..,"p90":..,"p99":..}}}
  [[nodiscard]] std::string snapshot_json() const;

 private:
  mutable std::mutex mu_;
  // std::map: snapshot output must be deterministically ordered.
  // rush: guarded_by(mu_)
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  // rush: guarded_by(mu_)
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace rush::obs
