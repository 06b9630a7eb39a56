// Live oracle wiring the trained predictor into the scheduler.
//
// Mirrors the paper's implementation (§V-B): when the scheduler is about
// to run a job, a "script" runs the MPI canaries on the candidate nodes,
// reads the recent counter window, assembles the feature vector, and
// evaluates the exported model; the scheduler turns the prediction into a
// launch-or-delay decision (Algorithm 2).
//
// Degraded mode (docs/fault-injection.md): with a FaultInjector attached,
// predict() first checks whether its inputs are trustworthy — canary
// probes lost, counter window stale, or counters corrupted — and if not,
// refuses to evaluate the model and returns a fallback label instead of a
// prediction built from bad data.
#pragma once

#include <cstdint>

#include "core/environment.hpp"
#include "core/pipeline.hpp"
#include "sched/oracle.hpp"

namespace rush::faults {
class FaultInjector;
}  // namespace rush::faults

namespace rush::obs {
class Counter;
class EventTrace;
class MetricsRegistry;
}  // namespace rush::obs

namespace rush::core {

/// What the oracle answers when it cannot trust its inputs.
enum class OracleFallback : std::uint8_t {
  /// Predict NoVariation: Algorithm 2 never delays, so the scheduler
  /// degrades to plain FCFS(+EASY) ordering.
  Fcfs,
  /// Repeat the last healthy prediction with a one-step confidence
  /// haircut (Variation -> LittleVariation -> NoVariation): a cautious
  /// memory of recent congestion that decays toward FCFS.
  LastKnownGood,
};

/// Degraded-mode wiring; default (null injector) disables every check so
/// the healthy path is untouched.
struct OracleDegradedConfig {
  const faults::FaultInjector* faults = nullptr;
  /// Counter window older than this is "stale" and triggers fallback.
  double max_counter_age_s = 120.0;
  OracleFallback fallback = OracleFallback::Fcfs;
};

class RushOracle final : public sched::VariabilityOracle {
 public:
  /// All references must outlive the oracle.
  RushOracle(Environment& env, const TrainedPredictor& predictor,
             OracleDegradedConfig degraded = {});

  [[nodiscard]] sched::VariabilityPrediction predict(
      const sched::Job& job, const cluster::NodeSet& candidate_nodes) override;

  [[nodiscard]] std::uint64_t evaluations() const noexcept { return evaluations_; }
  /// predict() calls answered by the degraded-mode fallback.
  [[nodiscard]] std::uint64_t fallbacks() const noexcept { return fallbacks_; }

  /// Record every predict() call (label + feature hash) into `trace`.
  /// Null detaches, so all inputs are valid.
  // rush-analyze: allow(missing-expects)
  void set_trace(obs::EventTrace* trace) noexcept { trace_ = trace; }
  /// Register the oracle's metrics. The fallback counter exists only when
  /// a fault injector is attached, so a zero-fault run's metrics output
  /// is unchanged. Null detaches.
  // rush-analyze: allow(missing-expects)
  void set_metrics(obs::MetricsRegistry* metrics);

 private:
  /// Non-null reason string when degraded-mode checks reject the current
  /// inputs; null when healthy (or no injector is attached).
  [[nodiscard]] const char* degraded_reason(sim::Time now) const noexcept;
  [[nodiscard]] sched::VariabilityPrediction fall_back(const sched::Job& job, sim::Time now_s,
                                                       const char* reason);

  Environment& env_;
  const TrainedPredictor& predictor_;
  OracleDegradedConfig degraded_;
  std::uint64_t evaluations_ = 0;
  std::uint64_t fallbacks_ = 0;
  sched::VariabilityPrediction last_good_ = sched::VariabilityPrediction::NoVariation;
  obs::EventTrace* trace_ = nullptr;
  obs::Counter* metric_fallbacks_ = nullptr;

  // Steady-state buffers: sized once in the constructor, reused by every
  // predict() so the hot path touches no allocator.
  telemetry::CanaryResult canary_buf_;
  std::vector<double> features_;          // full assembled vector (282)
  std::vector<telemetry::Agg> agg_scratch_;
  TrainedPredictor::PredictScratch predict_scratch_;
};

}  // namespace rush::core
