#include "cluster/background.hpp"

#include <algorithm>
#include <cmath>

#include "sim/engine.hpp"

#include "common/error.hpp"

namespace rush::cluster {

namespace {
constexpr double kTwoPi = 6.28318530717958647692;
constexpr double kUpdatePeriodS = 60.0;
constexpr double kDayLengthS = 86400.0;

// Network level (fraction of edge-uplink capacity), per pod.
constexpr double kNetBase = 0.12;
constexpr double kNetDiurnalAmplitude = 0.08;
constexpr double kNetAr1Rho = 0.95;
constexpr double kNetAr1Sigma = 0.035;
constexpr double kPodUplinkShare = 0.6;  // fraction of the pod level hitting its uplink

// Random congestion incidents (per pod).
constexpr double kIncidentsPerDay = 0.4;
constexpr double kIncidentMeanDurationS = 2400.0;
constexpr double kIncidentIntensityLo = 0.35;
constexpr double kIncidentIntensityHi = 0.95;

// Filesystem demand (fraction of aggregate Lustre capacity), global.
constexpr double kIoBase = 0.15;
constexpr double kIoDiurnalAmplitude = 0.10;
constexpr double kIoAr1Rho = 0.95;
constexpr double kIoAr1Sigma = 0.04;
constexpr double kIoIncidentsPerDay = 0.25;
constexpr double kIoIncidentIntensityLo = 0.4;
constexpr double kIoIncidentIntensityHi = 1.1;
}  // namespace

BackgroundLoad::BackgroundLoad(sim::Engine& engine, NetworkModel& net, LustreModel& lustre,
                               Rng rng)
    : engine_(engine), net_(net), lustre_(lustre), rng_(rng) {
  const auto& tree = net_.tree();
  pods_.resize(static_cast<std::size_t>(tree.num_pods()));
  for (auto& pod : pods_) {
    pod.edge_jitter.resize(static_cast<std::size_t>(tree.config().edges_per_pod));
    for (auto& j : pod.edge_jitter) j = rng_.uniform(0.8, 1.2);
  }
}

void BackgroundLoad::start() {
  if (running_) return;
  running_ = true;
  task_ = engine_.schedule_periodic(engine_.now(), kUpdatePeriodS, [this] { update(); });
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
  state.ar1 = kNetAr1Rho * state.ar1 + rng_.normal(0.0, kNetAr1Sigma);
  if (now >= state.incident_until) {
    state.incident_intensity = 0.0;
    const double p_incident = kIncidentsPerDay * kUpdatePeriodS / kDayLengthS;
    if (rng_.bernoulli(p_incident)) {
      // Lognormal duration with the set mean: mean = exp(mu + s^2/2).
      const double sigma = 0.6;
      const double mu = std::log(kIncidentMeanDurationS) - sigma * sigma / 2.0;
      state.incident_until = now + rng_.lognormal(mu, sigma);
      state.incident_intensity = rng_.uniform(kIncidentIntensityLo, kIncidentIntensityHi);
    }
  }
  const double diurnal = kNetDiurnalAmplitude * std::sin(kTwoPi * now / kDayLengthS);
  const double level = kNetBase + diurnal + state.ar1 + state.incident_intensity +
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
    for (int e = 0; e < cfg.edges_per_pod; ++e) {
      const int edge = pod * cfg.edges_per_pod + e;
      const double jitter = state.edge_jitter[static_cast<std::size_t>(e)];
      net_.set_ambient_load(tree.edge_uplink(edge), level * cfg.edge_uplink_gbps * jitter);
    }
    net_.set_ambient_load(tree.pod_uplink(pod), level * cfg.pod_uplink_gbps * kPodUplinkShare);
  }

  // Filesystem demand, global.
  io_ar1_ = kIoAr1Rho * io_ar1_ + rng_.normal(0.0, kIoAr1Sigma);
  if (now >= io_incident_until_) {
    io_incident_intensity_ = 0.0;
    const double p_incident = kIoIncidentsPerDay * kUpdatePeriodS / kDayLengthS;
    if (rng_.bernoulli(p_incident)) {
      const double sigma = 0.6;
      const double mu = std::log(kIncidentMeanDurationS) - sigma * sigma / 2.0;
      io_incident_until_ = now + rng_.lognormal(mu, sigma);
      io_incident_intensity_ = rng_.uniform(kIoIncidentIntensityLo, kIoIncidentIntensityHi);
    }
  }
  const double io_diurnal = kIoDiurnalAmplitude * std::sin(kTwoPi * now / kDayLengthS + 1.3);
  const double io_level = std::clamp(
      kIoBase + io_diurnal + io_ar1_ + io_incident_intensity_ + storm_boost(now, /*io=*/true),
      0.0, 2.5);
  lustre_.set_ambient_demand(io_level * lustre_.capacity_gbps());
}

}  // namespace rush::cluster
