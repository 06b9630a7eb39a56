#include "cluster/background.hpp"

#include <algorithm>
#include <cmath>

#include "sim/engine.hpp"

#include "common/error.hpp"

namespace rush::cluster {

namespace {
constexpr double kTwoPi = 6.28318530717958647692;
}

BackgroundLoad::BackgroundLoad(sim::Engine& engine, NetworkModel& net, LustreModel& lustre,
                               BackgroundConfig config, Rng rng)
    : engine_(engine), net_(net), lustre_(lustre), config_(config), rng_(rng) {
  RUSH_EXPECTS(config_.update_period_s > 0.0);
  RUSH_EXPECTS(config_.day_length_s > 0.0);
  const auto& tree = net_.tree();
  pods_.resize(static_cast<std::size_t>(tree.num_pods()));
  net_levels_.assign(pods_.size(), 0.0);
  for (auto& pod : pods_) {
    pod.edge_jitter.resize(static_cast<std::size_t>(tree.config().edges_per_pod));
    for (auto& j : pod.edge_jitter) j = rng_.uniform(0.8, 1.2);
  }
}

void BackgroundLoad::start() {
  if (running_) return;
  running_ = true;
  task_ = engine_.schedule_periodic(engine_.now(), config_.update_period_s, [this] { update(); });
}

void BackgroundLoad::stop() {
  if (!running_) return;
  running_ = false;
  engine_.cancel(task_);
}

void BackgroundLoad::add_storm(const Storm& storm) {
  RUSH_EXPECTS(storm.end > storm.start);
  storms_.push_back(storm);
}

double BackgroundLoad::storm_boost(sim::Time now, bool io) const noexcept {
  double boost = 0.0;
  for (const Storm& s : storms_)
    if (now >= s.start && now < s.end) boost += io ? s.io_intensity : s.net_intensity;
  return boost;
}

double BackgroundLoad::advance_pod(PodState& state, sim::Time now) {
  state.ar1 = config_.net_ar1_rho * state.ar1 + rng_.normal(0.0, config_.net_ar1_sigma);
  if (now >= state.incident_until) {
    state.incident_intensity = 0.0;
    const double p_incident =
        config_.incidents_per_day * config_.update_period_s / config_.day_length_s;
    if (rng_.bernoulli(p_incident)) {
      // Lognormal duration with the configured mean: mean = exp(mu + s^2/2).
      const double sigma = 0.6;
      const double mu = std::log(config_.incident_mean_duration_s) - sigma * sigma / 2.0;
      state.incident_until = now + rng_.lognormal(mu, sigma);
      state.incident_intensity =
          rng_.uniform(config_.incident_intensity_lo, config_.incident_intensity_hi);
    }
  }
  const double diurnal =
      config_.net_diurnal_amplitude * std::sin(kTwoPi * now / config_.day_length_s);
  const double level = config_.net_base + diurnal + state.ar1 + state.incident_intensity +
                       storm_boost(now, /*io=*/false);
  return std::clamp(level, 0.0, 2.0);
}

void BackgroundLoad::update() {
  const sim::Time now = engine_.now();
  const auto& tree = net_.tree();
  const auto& cfg = tree.config();

  for (int pod = 0; pod < tree.num_pods(); ++pod) {
    auto& state = pods_[static_cast<std::size_t>(pod)];
    const double level = advance_pod(state, now);
    net_levels_[static_cast<std::size_t>(pod)] = level;
    for (int e = 0; e < cfg.edges_per_pod; ++e) {
      const int edge = pod * cfg.edges_per_pod + e;
      const double jitter = state.edge_jitter[static_cast<std::size_t>(e)];
      net_.set_ambient_load(tree.edge_uplink(edge), level * cfg.edge_uplink_gbps * jitter);
    }
    net_.set_ambient_load(tree.pod_uplink(pod),
                          level * cfg.pod_uplink_gbps * config_.pod_uplink_share);
  }

  // Filesystem demand, global.
  io_ar1_ = config_.io_ar1_rho * io_ar1_ + rng_.normal(0.0, config_.io_ar1_sigma);
  if (now >= io_incident_until_) {
    io_incident_intensity_ = 0.0;
    const double p_incident =
        config_.io_incidents_per_day * config_.update_period_s / config_.day_length_s;
    if (rng_.bernoulli(p_incident)) {
      const double sigma = 0.6;
      const double mu = std::log(config_.incident_mean_duration_s) - sigma * sigma / 2.0;
      io_incident_until_ = now + rng_.lognormal(mu, sigma);
      io_incident_intensity_ =
          rng_.uniform(config_.io_incident_intensity_lo, config_.io_incident_intensity_hi);
    }
  }
  const double io_diurnal =
      config_.io_diurnal_amplitude * std::sin(kTwoPi * now / config_.day_length_s + 1.3);
  const double io_level = std::clamp(config_.io_base + io_diurnal + io_ar1_ +
                                         io_incident_intensity_ + storm_boost(now, /*io=*/true),
                                     0.0, 2.5);
  lustre_.set_ambient_demand(io_level * lustre_.capacity_gbps());
}

// rush-analyze: allow(dead-symbol) seam: Background.StormRaisesLevels
double BackgroundLoad::current_net_level(int pod) const {
  RUSH_EXPECTS(pod >= 0 && pod < static_cast<int>(net_levels_.size()));
  return net_levels_[static_cast<std::size_t>(pod)];
}

}  // namespace rush::cluster
