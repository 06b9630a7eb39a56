// One completed run (the HPCToolkit/Hatchet stand-in).
//
// The paper profiles every control-job run and extracts the inclusive
// time of the main compute region; here the execution model reports one
// RunRecord per completed run to the caller's completion callback.
#pragma once

#include <cstdint>
#include <string>

#include "apps/profiles.hpp"
#include "cluster/topology.hpp"
#include "sim/types.hpp"

namespace rush::apps {

struct RunRecord {
  std::uint64_t run_id = 0;
  std::string app;
  telemetry::WorkloadClass workload = telemetry::WorkloadClass::Compute;
  cluster::NodeSet nodes;
  int node_count = 0;
  ScalingMode scaling = ScalingMode::Strong;
  sim::Time start_s = 0.0;
  sim::Time end_s = 0.0;
  double duration_s = 0.0;     // end - start (the measured "main region")
  double uncontended_s = 0.0;  // channel total incl. intrinsic noise
  double base_total_s = 0.0;   // channel total without noise

  /// Contention-induced inflation over the ideal run.
  [[nodiscard]] double slowdown() const noexcept {
    return uncontended_s > 0.0 ? duration_s / uncontended_s : 1.0;
  }
};

}  // namespace rush::apps
