#include "core/session.hpp"

#include "common/error.hpp"

namespace rush::core {

namespace {
/// Hard wall (relative to session start) against stuck sessions.
constexpr double kMaxSessionS = 6.0 * 3600.0;
/// Simulated time the engine advances between completion checks.
constexpr double kDriveStepS = 60.0;
}  // namespace

WorkloadSession::WorkloadSession(Environment& env, cluster::NodeAllocator& allocator,
                                 SessionConfig config, sched::SchedulerConfig sched_config,
                                 sched::VariabilityOracle* oracle, Rng rng)
    : env_(env), config_(std::move(config)), rng_(rng),
      scheduler_(env.engine(), allocator, env.execution(),
                 sched::make_policy(config_.main_policy),
                 sched::make_policy(config_.backfill_policy), sched_config, oracle) {
  RUSH_EXPECTS(!config_.apps.empty());
  RUSH_EXPECTS(config_.num_jobs > 0);
  RUSH_EXPECTS(!config_.node_counts.empty());
  RUSH_EXPECTS(config_.initial_fraction >= 0.0 && config_.initial_fraction <= 1.0);
  RUSH_EXPECTS(config_.submit_window_s > 0.0);
  RUSH_EXPECTS(config_.walltime_factor_hi >= config_.walltime_factor_lo);
  RUSH_EXPECTS(config_.walltime_factor_lo >= 1.0);
}

TrialResult WorkloadSession::run() {
  const sim::Time t0 = env_.engine().now();

  if (start_hook_) scheduler_.on_start(start_hook_);
  if (complete_hook_) scheduler_.on_complete(complete_hook_);

  // Plan the job mix: cycle over (app x node_count), then shuffle.
  struct PlannedJob {
    std::string app;
    int nodes;
    double submit_dt;
  };
  std::vector<PlannedJob> planned;
  planned.reserve(static_cast<std::size_t>(config_.num_jobs));
  for (int i = 0; i < config_.num_jobs; ++i) {
    PlannedJob pj;
    pj.app = config_.apps[static_cast<std::size_t>(i) % config_.apps.size()];
    pj.nodes = config_.node_counts[(static_cast<std::size_t>(i) / config_.apps.size()) %
                                   config_.node_counts.size()];
    pj.submit_dt = 0.0;
    planned.push_back(pj);
  }
  rng_.shuffle(planned);
  const auto initial = static_cast<std::size_t>(config_.initial_fraction *
                                                static_cast<double>(config_.num_jobs));
  for (std::size_t i = initial; i < planned.size(); ++i)
    planned[i].submit_dt = rng_.uniform(1.0, config_.submit_window_s);

  std::vector<sched::JobId> ids;
  ids.reserve(planned.size());
  for (const PlannedJob& pj : planned) {
    const auto app = apps::find_app(pj.app);
    RUSH_EXPECTS(app.has_value());
    sched::JobSpec spec;
    spec.app = *app;
    spec.num_nodes = pj.nodes;
    spec.scaling = config_.scaling;
    const double expected = apps::scaled_channels(*app, pj.nodes, config_.scaling).total();
    spec.walltime_estimate_s =
        expected * rng_.uniform(config_.walltime_factor_lo, config_.walltime_factor_hi);
    spec.skip_threshold = config_.skip_threshold;
    ids.push_back(scheduler_.submit_at(t0 + pj.submit_dt, spec));
  }

  while (scheduler_.completed_count() < ids.size()) {
    if (env_.engine().now() - t0 >= kMaxSessionS) break;
    env_.engine().run_until(env_.engine().now() + kDriveStepS);
  }

  TrialResult result;
  result.makespan_s = scheduler_.makespan();
  result.total_skips = scheduler_.total_skips();
  result.fault_requeues = scheduler_.total_requeues();
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const sched::Job& job = scheduler_.job(ids[i]);
    RUSH_ASSERT(job.state == sched::JobState::Completed);
    JobOutcome out;
    out.app = job.app_name();
    out.node_count = job.spec.num_nodes;
    out.submit_s = job.submit_s - t0;
    out.wait_s = job.wait_s();
    out.runtime_s = job.runtime_s();
    out.slowdown = job.record.slowdown();
    out.submitted_at_start = i < initial;
    out.backfilled = job.backfilled;
    out.skips = job.skip_count;
    out.requeues = job.requeues;
    result.jobs.push_back(std::move(out));
  }
  return result;
}

}  // namespace rush::core
