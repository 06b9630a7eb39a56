#include "core/rush_oracle.hpp"

#include "common/error.hpp"
#include "faults/injector.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace rush::core {

namespace {
/// A counter window whose newest frame is older than this is "stale" and
/// triggers the fallback.
constexpr double kMaxCounterAgeS = 120.0;
}  // namespace

RushOracle::RushOracle(Environment& env, const TrainedPredictor& predictor,
                       OracleDegradedConfig degraded)
    : env_(env), predictor_(predictor), degraded_(degraded),
      features_(telemetry::FeatureAssembler::kNumFeatures, 0.0),
      agg_scratch_(env.store().num_counters()) {
  RUSH_EXPECTS(predictor.ready());
}

void RushOracle::set_metrics(obs::MetricsRegistry* metrics) {
  metric_fallbacks_ = (metrics != nullptr && degraded_.faults != nullptr)
                          ? &metrics->counter("oracle.fallbacks")
                          : nullptr;
}

const char* RushOracle::degraded_reason(sim::Time now) const noexcept {
  if (degraded_.faults == nullptr) return nullptr;
  if (degraded_.faults->canary_timed_out(now)) return "canary-timeout";
  const telemetry::StalenessReport st = env_.features().staleness(now);
  if (st.newest_frame_age_s > kMaxCounterAgeS) return "stale-counters";
  if (st.corrupt_frames_in_window > 0) return "corrupt-counters";
  return nullptr;
}

sched::VariabilityPrediction RushOracle::fall_back(const sched::Job& job, sim::Time now_s,
                                                   const char* reason) {
  ++fallbacks_;
  if (metric_fallbacks_) metric_fallbacks_->inc();
  sched::VariabilityPrediction out = sched::VariabilityPrediction::NoVariation;
  if (degraded_.fallback == OracleFallback::LastKnownGood) {
    // One-step confidence haircut on the last healthy prediction.
    switch (last_good_) {
      case sched::VariabilityPrediction::Variation:
        out = sched::VariabilityPrediction::LittleVariation;
        break;
      case sched::VariabilityPrediction::LittleVariation:
      case sched::VariabilityPrediction::NoVariation:
        out = sched::VariabilityPrediction::NoVariation;
        break;
    }
  }
  if (trace_ != nullptr)
    trace_->emit_fault_oracle_fallback(now_s, job.id, reason, sched::prediction_name(out));
  return out;
}

sched::VariabilityPrediction RushOracle::predict(const sched::Job& job,
                                                 const cluster::NodeSet& candidate_nodes) {
  ++evaluations_;
  // Degraded mode: refuse untrustworthy inputs before the canary runs.
  // Skipping the canary shifts later RNG draws, which is acceptable
  // only because this branch can fire solely in fault-injected runs
  // (degraded_.faults attached AND a fault window active) — the
  // zero-fault byte-identity guarantee is untouched.
  const sim::Time now_s = env_.engine().now();
  if (const char* reason = degraded_reason(now_s); reason != nullptr)
    return fall_back(job, now_s, reason);

  const telemetry::CanaryResult canary = env_.canary().run(candidate_nodes);
  env_.features().assemble_into(now_s, predictor_.scope(), candidate_nodes, canary,
                                job.spec.app.workload, features_, agg_scratch_);

  const auto pred = predictor_.predict(features_, predict_scratch_);
  last_good_ = pred;  // LastKnownGood fallback seed
  if (trace_ != nullptr)
    trace_->emit_predict(now_s, job.id, sched::prediction_name(pred),
                         obs::feature_hash(features_));
  return pred;
}

}  // namespace rush::core
