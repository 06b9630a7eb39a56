// Feature assembly (paper §III-D, Table I).
//
// One sample = 282 features:
//   270  counter aggregates: min/max/mean of each of the 90 counters over
//        the aggregation window (5 minutes by default), reduced jointly
//        over time and nodes
//     9  MPI canary benchmark aggregates
//     3  workload-class one-hot (compute / network / I/O intensive)
//
// Two aggregation scopes are supported, mirroring the paper's comparison:
// over all managed nodes, or only over the nodes exclusive to the job.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "telemetry/canary.hpp"
#include "telemetry/store.hpp"

namespace rush::telemetry {

/// Coarse workload type, provided with each job (paper §III-B: one-hot
/// "compute, network, and I/O intensive").
enum class WorkloadClass : std::uint8_t { Compute, Network, Io };

const char* workload_class_name(WorkloadClass cls) noexcept;

enum class AggregationScope : std::uint8_t { AllNodes, JobNodes };

/// Health of the counter features at a point in time: how old the newest
/// telemetry frame is and how many frames of the aggregation window are
/// untrustworthy. Consumed by degraded-mode logic (core::RushOracle)
/// to decide when counter features cannot be trusted.
struct StalenessReport {
  /// Age of the newest retained frame; +inf when the store is empty.
  double newest_frame_age_s = 0.0;
  /// Frames inside the look-back window [now - window_s, now] that
  /// carried quarantined (non-finite) readings.
  std::size_t corrupt_frames_in_window = 0;
};

class FeatureAssembler {
 public:
  static constexpr std::size_t kCounterFeatures = 270;
  static constexpr std::size_t kCanaryFeatures = 9;
  static constexpr std::size_t kClassFeatures = 3;
  static constexpr std::size_t kNumFeatures =
      kCounterFeatures + kCanaryFeatures + kClassFeatures;  // 282

  /// `window_s` is the look-back duration for counter aggregation
  /// (5 minutes in the paper's training data); a store read only through
  /// this assembler needs a horizon of no less than `window_s`.
  FeatureAssembler(const CounterStore& store, double window_s);

  /// Names for all 282 features, in assembly order
  /// ("min_sysclassib.port_xmit_data", ..., "canary_send_min", ...,
  ///  "class_compute", ...). Built once and cached (the schema is fixed
  ///  at compile time); callers that copied the returned vector still do.
  [[nodiscard]] static const std::vector<std::string>& feature_names();

  /// Build the feature vector for a job about to run on `job_nodes` at
  /// time `now`, given the canary results and the job's workload class.
  [[nodiscard]] std::vector<double> assemble(sim::Time now, AggregationScope scope,
                                             const cluster::NodeSet& job_nodes,
                                             const CanaryResult& canary,
                                             WorkloadClass cls) const;

  /// Same vector written into caller-owned storage: `out` has
  /// kNumFeatures entries, `agg_scratch` has store().num_counters()
  /// entries reused for the window aggregation.
  void assemble_into(sim::Time now, AggregationScope scope, const cluster::NodeSet& job_nodes,
                     const CanaryResult& canary, WorkloadClass cls, std::span<double> out,
                     std::span<Agg> agg_scratch) const;

  /// Staleness of the counter features as of `now` (see StalenessReport).
  [[nodiscard]] StalenessReport staleness(sim::Time now) const noexcept;

  [[nodiscard]] double window_s() const noexcept { return window_s_; }
  [[nodiscard]] const CounterStore& store() const noexcept { return store_; }

 private:
  const CounterStore& store_;
  double window_s_;
};

}  // namespace rush::telemetry
