// The experiment noise job (paper §VI-A).
//
// "A noise job that runs on 1/16th of the nodes in the experiment that
// continuously sends variable amounts of all-to-all traffic on the
// network." The rate is re-drawn periodically from a uniform range, with
// occasional bursts toward the top of the range so congestion episodes
// come and go during an experiment.
#pragma once

#include "cluster/network.hpp"
#include "common/rng.hpp"
#include "sim/types.hpp"

namespace rush::apps {

struct NoiseConfig {
  double rate_lo_gbps = 0.5;
  double rate_hi_gbps = 12.0;
  double change_period_s = 60.0;
  /// Chance per redraw of entering a sustained burst episode. While
  /// bursting, the rate stays in the top quarter of the range for a
  /// lognormal-distributed duration. Episodes are long relative to a job
  /// run (~10 min vs ~5 min) — congestion visible at schedule time is
  /// what makes the prediction problem tractable, and persistence is
  /// what makes delaying a job worthwhile.
  double burst_start_probability = 0.02;
  double burst_mean_duration_s = 900.0;
};

class NoiseJob {
 public:
  /// `nodes` should be spread across edge switches (the experiment harness
  /// picks every k-th node) so the all-to-all traffic actually crosses
  /// shared uplinks.
  NoiseJob(sim::Engine& engine, cluster::NetworkModel& net, cluster::NodeSet nodes,
           NoiseConfig config, Rng rng);
  ~NoiseJob();

  NoiseJob(const NoiseJob&) = delete;
  NoiseJob& operator=(const NoiseJob&) = delete;

  void start();
  void stop();

  // rush-analyze: allow(dead-symbol) seam: Noise.RateStaysWithinConfiguredRange
  [[nodiscard]] double current_rate_gbps() const noexcept { return rate_; }
  // rush-analyze: allow(dead-symbol) seam: Noise.BurstsOccurAndAreHigh
  [[nodiscard]] bool bursting() const noexcept { return burst_until_ > 0.0; }
  [[nodiscard]] const cluster::NodeSet& nodes() const noexcept { return nodes_; }

  /// Source id the noise traffic is registered under.
  static constexpr cluster::SourceId kSourceId = 1ULL << 62;

 private:
  void redraw();

  sim::Engine& engine_;
  cluster::NetworkModel& net_;
  cluster::NodeSet nodes_;
  NoiseConfig config_;
  Rng rng_;
  double rate_ = 0.0;
  sim::Time burst_until_ = 0.0;  // > 0 while a burst episode is active
  sim::EventId task_ = 0;
  bool running_ = false;
};

}  // namespace rush::apps
