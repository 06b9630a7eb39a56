// Simulated MPI canary benchmarks (paper §III-C).
//
// Right before a job is launched (and during data collection), two small
// MPI benchmarks are "run" on the candidate nodes: a ring send/recv that
// passes a 100 MB token for ten iterations, and an AllReduce on 100 MB of
// data for five iterations. mpiP-style per-node wait times on Send, Recv,
// and AllReduce are recorded; their min/max/mean over the nodes become
// nine features.
//
// The simulation computes wait times from the network model's current
// congestion along the probed nodes' links, plus per-node jitter. The
// probes are treated as instantaneous (they do not advance simulated time
// or inject lasting load) — a documented simplification, matching the
// paper's choice of message sizes "not enough to cause significant
// communication overhead".
#pragma once

#include <array>

#include "cluster/network.hpp"
#include "common/rng.hpp"

namespace rush::telemetry {

/// The nine canary features, aggregated over the probed nodes:
/// [send min,max,mean, recv min,max,mean, allreduce min,max,mean].
using CanaryResult = std::array<double, 9>;

class MpiCanary {
 public:
  MpiCanary(const cluster::NetworkModel& net, Rng rng);

  /// Run both benchmarks on `nodes` (>= 2 nodes for meaningful traffic;
  /// a single node yields nine zeros).
  [[nodiscard]] CanaryResult run(const cluster::NodeSet& nodes);

 private:
  const cluster::NetworkModel& net_;
  Rng rng_;
};

}  // namespace rush::telemetry
