#include "apps/noise.hpp"

#include <cmath>

#include "common/error.hpp"
#include "sim/engine.hpp"

namespace rush::apps {

namespace {
constexpr double kRateLoGbps = 0.5;
constexpr double kRateHiGbps = 12.0;
constexpr double kChangePeriodS = 60.0;
/// Chance per redraw of entering a sustained burst episode. While
/// bursting, the rate stays in the top quarter of the range for a
/// lognormal-distributed duration. Episodes are long relative to a job
/// run (a 15-minute mean against base run times of 140–210 s) —
/// congestion visible at schedule time is what makes the prediction
/// problem tractable, and persistence is what makes delaying a job
/// worthwhile.
constexpr double kBurstStartProbability = 0.02;
constexpr double kBurstMeanDurationS = 900.0;
}  // namespace

NoiseJob::NoiseJob(sim::Engine& engine, cluster::NetworkModel& net, cluster::NodeSet nodes, Rng rng)
    : engine_(engine), net_(net), nodes_(std::move(nodes)), rng_(rng) {
  RUSH_EXPECTS(nodes_.size() >= 2);
}

NoiseJob::~NoiseJob() { stop(); }

void NoiseJob::start() {
  if (running_) return;
  running_ = true;
  net_.add_source(kSourceId, nodes_, rng_.uniform(kRateLoGbps, kRateHiGbps),
                  cluster::TrafficPattern::AllToAll);
  task_ = engine_.schedule_periodic(engine_.now() + kChangePeriodS, kChangePeriodS,
                                    [this] { redraw(); });
}

void NoiseJob::stop() {
  if (!running_) return;
  running_ = false;
  engine_.cancel(task_);
  net_.remove_source(kSourceId);
}

void NoiseJob::redraw() {
  const sim::Time now = engine_.now();
  const double span = kRateHiGbps - kRateLoGbps;
  if (burst_until_ > 0.0 && now >= burst_until_) burst_until_ = 0.0;

  if (burst_until_ <= 0.0 && rng_.bernoulli(kBurstStartProbability)) {
    const double sigma = 0.5;
    const double mu = std::log(kBurstMeanDurationS) - sigma * sigma / 2.0;
    burst_until_ = now + rng_.lognormal(mu, sigma);
  }

  // A sustained episode stays in the top quarter of the range; calm
  // periods stay in its low half.
  const double rate = burst_until_ > 0.0
                          ? rng_.uniform(kRateLoGbps + 0.75 * span, kRateHiGbps)
                          : rng_.uniform(kRateLoGbps, kRateLoGbps + 0.5 * span);
  net_.set_rate(kSourceId, rate);
}

}  // namespace rush::apps
