// One scheduled workload session: the shared machinery behind both the
// scheduling experiments (§VI-A) and in-situ training data collection.
//
// A session submits a randomized job mix to a fresh scheduler instance on
// an existing simulation environment (20% at session start, the rest
// uniformly over a submission window), drives the engine until the queue
// drains, and reports per-job outcomes. Hooks fire at job start and
// completion so the collector can sample features at exactly the decision
// points the scheduler will later face — eliminating covariate shift
// between training and deployment.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "cluster/allocator.hpp"
#include "core/environment.hpp"
#include "sched/scheduler.hpp"

namespace rush::core {

/// One job's observable outcome within a session/trial.
struct JobOutcome {
  std::string app;
  int node_count = 16;
  double submit_s = 0.0;  // relative to session start
  double wait_s = 0.0;
  double runtime_s = 0.0;
  /// Contention inflation actually experienced (duration / uncontended).
  double slowdown = 1.0;
  bool submitted_at_start = false;  // part of the initial 20%
  bool backfilled = false;
  int skips = 0;
  int requeues = 0;  // node-crash restarts (nonzero only in fault runs)
};

struct TrialResult {
  std::string policy;  // "fcfs-easy" or "rush"
  std::uint64_t seed = 0;
  std::vector<JobOutcome> jobs;
  double makespan_s = 0.0;
  std::uint64_t total_skips = 0;
  std::uint64_t oracle_evaluations = 0;
  /// Degraded-mode totals; both stay 0 unless a fault plan was active.
  std::uint64_t fault_requeues = 0;
  std::uint64_t oracle_fallbacks = 0;
};

struct SessionConfig {
  std::vector<std::string> apps;  // cycled over; must be non-empty
  int num_jobs = 190;
  std::vector<int> node_counts = {16};
  apps::ScalingMode scaling = apps::ScalingMode::Strong;
  double submit_window_s = 1200.0;
  double initial_fraction = 0.2;
  double walltime_factor_lo = 1.3;
  double walltime_factor_hi = 2.0;
  int skip_threshold = 10;
  std::string main_policy = "fcfs";
  std::string backfill_policy = "fcfs";
};

class WorkloadSession {
 public:
  using JobHook = std::function<void(const sched::Job&)>;

  /// `oracle` may be null unless sched_config.rush_enabled. All
  /// references must outlive run().
  WorkloadSession(Environment& env, cluster::NodeAllocator& allocator, SessionConfig config,
                  sched::SchedulerConfig sched_config, sched::VariabilityOracle* oracle,
                  Rng rng);

  void on_start(JobHook fn) { start_hook_ = std::move(fn); }
  void on_complete(JobHook fn) { complete_hook_ = std::move(fn); }

  /// Submit the workload (relative to the environment's current time) and
  /// drive the engine until every job completes. Returns outcomes in
  /// submission-plan order.
  TrialResult run();

  [[nodiscard]] const sched::Scheduler& scheduler() const noexcept { return scheduler_; }

 private:
  Environment& env_;
  SessionConfig config_;
  Rng rng_;
  sched::Scheduler scheduler_;
  JobHook start_hook_;
  JobHook complete_hook_;
};

}  // namespace rush::core
