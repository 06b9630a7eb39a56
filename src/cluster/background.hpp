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
// link capacity and are re-applied to the NetworkModel/LustreModel on a
// periodic simulation event.
#pragma once

#include <vector>

#include "cluster/lustre.hpp"
#include "cluster/network.hpp"
#include "common/rng.hpp"
#include "sim/types.hpp"

namespace rush::cluster {

struct BackgroundConfig {
  double update_period_s = 60.0;
  double day_length_s = 86400.0;

  // Network level (fraction of edge-uplink capacity), per pod.
  double net_base = 0.12;
  double net_diurnal_amplitude = 0.08;
  double net_ar1_rho = 0.95;
  double net_ar1_sigma = 0.035;
  double pod_uplink_share = 0.6;  // fraction of the pod level hitting its uplink

  // Random congestion incidents (per pod).
  double incidents_per_day = 0.4;
  double incident_mean_duration_s = 2400.0;
  double incident_intensity_lo = 0.35;
  double incident_intensity_hi = 0.95;

  // Filesystem demand (fraction of aggregate Lustre capacity), global.
  double io_base = 0.15;
  double io_diurnal_amplitude = 0.10;
  double io_ar1_rho = 0.95;
  double io_ar1_sigma = 0.04;
  double io_incidents_per_day = 0.25;
  double io_incident_intensity_lo = 0.4;
  double io_incident_intensity_hi = 1.1;
};

/// A deliberate, scheduled contention event (e.g., the mid-December spike).
struct Storm {
  sim::Time start = 0.0;
  sim::Time end = 0.0;
  double net_intensity = 0.0;  // added to every pod's network level
  double io_intensity = 0.0;   // added to the filesystem level
};

class BackgroundLoad {
 public:
  BackgroundLoad(sim::Engine& engine, NetworkModel& net, LustreModel& lustre,
                 BackgroundConfig config, Rng rng);

  /// Begin periodic updates (idempotent); first update fires immediately.
  void start();
  /// Stop updating (ambient loads keep their last values).
  void stop();

  void add_storm(const Storm& storm);

  /// Force one update at the current sim time (also called periodically).
  void update();

  [[nodiscard]] double current_net_level(int pod) const;

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
  BackgroundConfig config_;
  Rng rng_;

  std::vector<PodState> pods_;
  std::vector<double> net_levels_;
  double io_ar1_ = 0.0;
  sim::Time io_incident_until_ = -1.0;
  double io_incident_intensity_ = 0.0;
  std::vector<Storm> storms_;
  sim::EventId task_ = 0;
  bool running_ = false;
};

}  // namespace rush::cluster
