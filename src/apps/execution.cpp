#include "apps/execution.hpp"

#include <algorithm>
#include <cmath>

#include "sim/engine.hpp"

#include "common/error.hpp"

namespace rush::apps {

namespace {
/// Period of the tick that integrates background and noise changes.
constexpr double kReevaluatePeriodS = 15.0;
}  // namespace

ExecutionModel::ExecutionModel(sim::Engine& engine, cluster::NetworkModel& net,
                               cluster::LustreModel& lustre, ExecutionConfig config, Rng rng)
    : engine_(engine), net_(net), lustre_(lustre), config_(config), rng_(rng) {
  RUSH_EXPECTS(config_.os_noise >= 0.0);
}

ExecutionModel::~ExecutionModel() {
  // Deregister any still-running jobs' traffic so shared models owned by
  // a longer-lived scope are not left with dangling sources.
  for (const auto& [id, job] : running_) {
    if (net_.has_source(comm_source(id))) net_.remove_source(comm_source(id));
    if (net_.has_source(gateway_source(id))) net_.remove_source(gateway_source(id));
    if (lustre_.has_client(id)) lustre_.remove_client(id);
  }
  if (completion_ != 0) engine_.cancel(completion_);
  if (ticking_) engine_.cancel(tick_);
}

void ExecutionModel::start() {
  if (ticking_) return;
  ticking_ = true;
  tick_ = engine_.schedule_periodic(engine_.now() + kReevaluatePeriodS, kReevaluatePeriodS,
                                    [this] { refresh_all(); });
}

void ExecutionModel::stop() {
  if (!ticking_) return;
  ticking_ = false;
  engine_.cancel(tick_);
}

ExecutionModel::RunId ExecutionModel::launch(const AppProfile& app,
                                             const cluster::NodeSet& nodes, ScalingMode scaling,
                                             CompletionFn on_complete) {
  RUSH_EXPECTS(!nodes.empty());
  const RunId id = next_run_id_++;

  const ChannelTimes channels = scaled_channels(app, static_cast<int>(nodes.size()), scaling);
  const double base_total = channels.total();
  RUSH_ASSERT(base_total > 0.0);

  Running job;
  job.start_s = engine_.now();
  // Intrinsic (non-contention) run-to-run noise.
  job.uncontended_s = base_total * rng_.lognormal(0.0, app.noise_sigma);
  job.remaining_work = job.uncontended_s;
  job.last_update = engine_.now();
  job.fc = channels.compute_s / base_total;
  job.fn = channels.network_s / base_total;
  job.fio = channels.io_s / base_total;
  job.net_gbps = app.net_gbps_per_node;
  job.io_gbps = app.io_gbps_per_node;
  job.pattern = app.pattern;
  job.on_complete = std::move(on_complete);

  if (job.net_gbps > 0.0 && job.fn > 0.0)
    net_.add_source(comm_source(id), nodes, job.net_gbps * job.fn, job.pattern);
  if (job.io_gbps > 0.0 && job.fio > 0.0) {
    const double io_rate = job.io_gbps * job.fio;
    net_.add_source(gateway_source(id), nodes, io_rate, cluster::TrafficPattern::Gateway);
    lustre_.add_client(id, nodes, io_rate, app.io_read_fraction);
  }

  const bool inserted = running_.emplace(id, std::move(job)).second;
  RUSH_ASSERT(inserted);
  // The new job's traffic changed everyone else's contention.
  refresh_all();
  start();
  return id;
}

double ExecutionModel::current_rate(RunId id, const Running& job) const {
  double sn = 1.0;
  if (net_.has_source(comm_source(id))) sn = net_.slowdown(comm_source(id));
  double sio = 1.0;
  if (lustre_.has_client(id)) {
    sio = lustre_.slowdown();
    if (net_.has_source(gateway_source(id)))
      sio = std::max(sio, net_.slowdown(gateway_source(id)));
  }
  // Constant OS interference floor; per-run stochastic noise is already
  // baked into uncontended_s at launch.
  const double denom = job.fc + job.fn * sn + job.fio * sio + config_.os_noise;
  return 1.0 / denom;
}

void ExecutionModel::refresh_all() {
  const sim::Time now = engine_.now();
  RunId next = 0;
  sim::Time next_finish = 0.0;
  for (auto& [id, job] : running_) {
    const double elapsed = now - job.last_update;
    if (elapsed > 0.0) job.remaining_work = std::max(0.0, job.remaining_work - elapsed * job.rate);
    job.last_update = now;
    job.rate = current_rate(id, job);
    RUSH_ASSERT(job.rate > 0.0);
    const sim::Time finish = now + job.remaining_work / job.rate;
    // Strict <: among equal finish times the lowest run id wins.
    if (next == 0 || finish < next_finish) {
      next = id;
      next_finish = finish;
    }
  }
  if (completion_ != 0) engine_.cancel(completion_);
  completion_ = next == 0 ? 0 : engine_.schedule_at(next_finish, [this, next] { complete(next); });
}

void ExecutionModel::abort(RunId id) {
  auto it = running_.find(id);
  RUSH_EXPECTS(it != running_.end());
  running_.erase(it);

  if (net_.has_source(comm_source(id))) net_.remove_source(comm_source(id));
  if (net_.has_source(gateway_source(id))) net_.remove_source(gateway_source(id));
  if (lustre_.has_client(id)) lustre_.remove_client(id);

  // Survivors speed up now that the aborted job's traffic is gone.
  refresh_all();
  if (running_.empty()) stop();
}

void ExecutionModel::complete(RunId id) {
  completion_ = 0;  // this event just fired
  auto it = running_.find(id);
  RUSH_ASSERT(it != running_.end());
  Running job = std::move(it->second);
  running_.erase(it);

  if (net_.has_source(comm_source(id))) net_.remove_source(comm_source(id));
  if (net_.has_source(gateway_source(id))) net_.remove_source(gateway_source(id));
  if (lustre_.has_client(id)) lustre_.remove_client(id);

  // Contention-induced inflation over the ideal run.
  const double slowdown =
      job.uncontended_s > 0.0 ? (engine_.now() - job.start_s) / job.uncontended_s : 1.0;

  // Remaining jobs speed up now that this one's traffic is gone.
  refresh_all();
  if (running_.empty()) stop();

  if (job.on_complete) job.on_complete(slowdown);
}

}  // namespace rush::apps
