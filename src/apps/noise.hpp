// The experiment noise job (paper §VI-A).
//
// "A noise job that runs on 1/16th of the nodes in the experiment that
// continuously sends variable amounts of all-to-all traffic on the
// network." The rate is re-drawn every simulated minute from a uniform
// range, with occasional bursts toward the top of the range so congestion
// episodes come and go during an experiment; the range and the burst
// parameters are constants in noise.cpp.
#pragma once

#include "cluster/network.hpp"
#include "common/rng.hpp"
#include "sim/types.hpp"

namespace rush::apps {

class NoiseJob {
 public:
  /// `nodes` should be spread across edge switches (the experiment harness
  /// picks every k-th node) so the all-to-all traffic actually crosses
  /// shared uplinks.
  NoiseJob(sim::Engine& engine, cluster::NetworkModel& net, cluster::NodeSet nodes, Rng rng);
  ~NoiseJob();

  NoiseJob(const NoiseJob&) = delete;
  NoiseJob& operator=(const NoiseJob&) = delete;

  void start();
  void stop();

  /// Source id the noise traffic is registered under.
  static constexpr cluster::SourceId kSourceId = 1ULL << 62;

 private:
  void redraw();

  sim::Engine& engine_;
  cluster::NetworkModel& net_;
  cluster::NodeSet nodes_;
  Rng rng_;
  sim::Time burst_until_ = 0.0;  // > 0 while a burst episode is active
  sim::EventId task_ = 0;
  bool running_ = false;
};

}  // namespace rush::apps
