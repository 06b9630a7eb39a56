#include "telemetry/features.hpp"

#include <limits>

#include "common/error.hpp"
#include "telemetry/schema.hpp"

namespace rush::telemetry {

const char* workload_class_name(WorkloadClass cls) noexcept {
  switch (cls) {
    case WorkloadClass::Compute:
      return "compute";
    case WorkloadClass::Network:
      return "network";
    case WorkloadClass::Io:
      return "io";
  }
  return "?";
}

FeatureAssembler::FeatureAssembler(const CounterStore& store, double window_s)
    : store_(store), window_s_(window_s) {
  RUSH_EXPECTS(window_s_ > 0.0);
  RUSH_EXPECTS(store_.num_counters() * 3 == kCounterFeatures);
}

const std::vector<std::string>& FeatureAssembler::feature_names() {
  // The schema is fixed at compile time, so the ~300 string builds only
  // need to happen on the first call.
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    out.reserve(kNumFeatures);
    for (const CounterDef& def : counter_schema()) {
      const std::string q = qualified_name(def);
      out.push_back("min_" + q);
      out.push_back("max_" + q);
      out.push_back("mean_" + q);
    }
    for (const char* bench : {"send", "recv", "allreduce"}) {
      for (const char* agg : {"min", "max", "mean"}) {
        out.push_back(std::string("canary_") + bench + "_" + agg);
      }
    }
    out.emplace_back("class_compute");
    out.emplace_back("class_network");
    out.emplace_back("class_io");
    RUSH_ASSERT(out.size() == kNumFeatures);
    return out;
  }();
  return names;
}

std::vector<double> FeatureAssembler::assemble(sim::Time now, AggregationScope scope,
                                               const cluster::NodeSet& job_nodes,
                                               const CanaryResult& canary,
                                               WorkloadClass cls) const {
  std::vector<double> out(kNumFeatures);
  std::vector<Agg> agg_scratch(store_.num_counters());
  assemble_into(now, scope, job_nodes, canary, cls, out, agg_scratch);
  return out;
}

// rush: noalloc
void FeatureAssembler::assemble_into(sim::Time now, AggregationScope scope,
                                     const cluster::NodeSet& job_nodes,
                                     const CanaryResult& canary, WorkloadClass cls,
                                     std::span<double> out, std::span<Agg> agg_scratch) const {
  RUSH_EXPECTS(out.size() == kNumFeatures);
  RUSH_EXPECTS(agg_scratch.size() == store_.num_counters());
  const sim::Time t0 = now - window_s_;
  if (scope == AggregationScope::AllNodes) {
    store_.aggregate_all_into(t0, now, agg_scratch);
  } else {
    store_.aggregate_nodes_into(t0, now, job_nodes, agg_scratch);
  }
  std::size_t i = 0;
  for (const Agg& a : agg_scratch) {
    out[i++] = a.min;
    out[i++] = a.max;
    out[i++] = a.mean;
  }
  for (double f : canary.features()) out[i++] = f;
  out[i++] = cls == WorkloadClass::Compute ? 1.0 : 0.0;
  out[i++] = cls == WorkloadClass::Network ? 1.0 : 0.0;
  out[i++] = cls == WorkloadClass::Io ? 1.0 : 0.0;
}

StalenessReport FeatureAssembler::staleness(sim::Time now) const noexcept {
  StalenessReport report;
  if (store_.frame_count() == 0) {
    report.newest_frame_age_s = std::numeric_limits<double>::infinity();
    return report;
  }
  const sim::Time t0 = now - window_s_;
  report.newest_frame_age_s = now - store_.latest_time();
  report.frames_in_window = store_.frames_in(t0, now);
  report.corrupt_frames_in_window = store_.corrupt_frames_in(t0, now);
  return report;
}

}  // namespace rush::telemetry
