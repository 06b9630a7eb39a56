// Batch job model.
#pragma once

#include <cstdint>
#include <string>

#include "apps/profiles.hpp"
#include "cluster/topology.hpp"
#include "sim/types.hpp"

namespace rush::sched {

using JobId = std::uint64_t;

enum class JobState : std::uint8_t { Pending, Running, Completed };

/// What the user submits.
struct JobSpec {
  apps::AppProfile app;
  int num_nodes = 16;
  apps::ScalingMode scaling = apps::ScalingMode::Strong;
  /// User-provided run time limit; drives EASY reservations. The paper
  /// notes users over-estimate — the workload generator models that.
  double walltime_estimate_s = 0.0;
  /// Per-job starvation bound (paper §IV-B uses 10 globally but notes the
  /// parameter "could be extended to be per-job").
  int skip_threshold = 10;
};

struct Job {
  JobId id = 0;
  JobSpec spec;
  JobState state = JobState::Pending;
  sim::Time submit_s = 0.0;
  sim::Time start_s = -1.0;
  sim::Time end_s = -1.0;
  cluster::NodeSet nodes;  // valid while Running/Completed
  std::uint64_t run_id = 0;
  int skip_count = 0;       // times RUSH delayed this job (Algorithm 2)
  sim::Time last_delay_s = -1.0;  // when the oracle last delayed this job
  bool backfilled = false;        // started via the EASY backfill path
  int requeues = 0;         // times a node crash sent this job back to the queue
  double slowdown = 1.0;    // run time over uncontended time, set on completion

  [[nodiscard]] const std::string& app_name() const noexcept { return spec.app.name; }
  [[nodiscard]] double wait_s() const noexcept {
    return start_s >= 0.0 ? start_s - submit_s : -1.0;
  }
  [[nodiscard]] double runtime_s() const noexcept {
    return (state == JobState::Completed) ? end_s - start_s : -1.0;
  }
};

}  // namespace rush::sched
