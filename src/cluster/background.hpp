// Ambient background load generator.
//
// Stands in for "everything else running on the machine": the other
// ~2,400 Quartz nodes' users, system daemons, and filesystem traffic.
// Produces per-pod network load and global filesystem demand with
//
//   level(t) = base + diurnal sine + AR(1) noise + Poisson incidents
//              + scheduled storms
//
// Scheduled storms model events like the mid-December congestion spike
// visible in Fig. 1 of the paper. Levels are expressed as fractions of
// link capacity and are re-applied to the NetworkModel/LustreModel once a
// simulated minute; the level's parameters are constants in
// background.cpp.
#pragma once

#include <vector>

#include "cluster/lustre.hpp"
#include "cluster/network.hpp"
#include "common/rng.hpp"
#include "sim/types.hpp"

namespace rush::cluster {

/// A deliberate, scheduled contention event (e.g., the mid-December spike).
struct Storm {
  sim::Time start = 0.0;
  sim::Time end = 0.0;
  double net_intensity = 0.0;  // added to every pod's network level
  double io_intensity = 0.0;   // added to the filesystem level
};

class BackgroundLoad {
 public:
  BackgroundLoad(sim::Engine& engine, NetworkModel& net, LustreModel& lustre, Rng rng);

  /// Begin periodic updates (idempotent); first update fires immediately.
  void start();
  /// Stop updating (ambient loads keep their last values).
  void stop();

  void add_storm(const Storm& storm);

  /// Force one update at the current sim time (also called periodically).
  void update();

 private:
  struct PodState {
    double ar1 = 0.0;
    sim::Time incident_until = -1.0;
    double incident_intensity = 0.0;
    std::vector<double> edge_jitter;  // static per-edge multiplier
  };

  [[nodiscard]] double storm_boost(sim::Time now, bool io) const noexcept;
  double advance_pod(PodState& state, sim::Time now);

  sim::Engine& engine_;
  NetworkModel& net_;
  LustreModel& lustre_;
  Rng rng_;

  std::vector<PodState> pods_;
  double io_ar1_ = 0.0;
  sim::Time io_incident_until_ = -1.0;
  double io_incident_intensity_ = 0.0;
  std::vector<Storm> storms_;
  sim::EventId task_ = 0;
  bool running_ = false;
};

}  // namespace rush::cluster
