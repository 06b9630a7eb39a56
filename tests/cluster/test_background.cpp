#include "cluster/background.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/error.hpp"
#include "sim/engine.hpp"

namespace rush::cluster {
namespace {

FatTreeConfig small_config() {
  FatTreeConfig cfg;
  cfg.pods = 2;
  cfg.edges_per_pod = 4;
  cfg.nodes_per_edge = 8;
  return cfg;
}

/// Share of a pod's network level that reaches its uplink, and the range
/// of the static per-edge multiplier on its edge uplinks.
constexpr double kPodUplinkShare = 0.6;
constexpr double kEdgeJitterLo = 0.8;
constexpr double kEdgeJitterHi = 1.2;

struct World {
  World() : tree(small_config()), net(tree), fs(100.0) {}
  /// The background I/O level: with no clients attached, the filesystem's
  /// demand is the ambient load the level sets, in units of its capacity.
  [[nodiscard]] double io_level() const { return fs.total_demand_gbps() / fs.capacity_gbps(); }
  /// With no traffic sources registered, a pod uplink carries only the
  /// ambient load the pod's network level sets (pod_load_at).
  [[nodiscard]] double pod_load(int pod) const { return net.link_load_gbps(tree.pod_uplink(pod)); }
  /// The load a network level puts on a pod uplink.
  [[nodiscard]] double pod_load_at(double level) const {
    return level * tree.config().pod_uplink_gbps * kPodUplinkShare;
  }
  [[nodiscard]] double edge_load(int edge) const {
    return net.link_load_gbps(tree.edge_uplink(edge));
  }
  sim::Engine engine;
  FatTree tree;
  NetworkModel net;
  LustreModel fs;
};

TEST(Background, UpdateSetsAmbientLoads) {
  World w;
  BackgroundLoad bg(w.engine, w.net, w.fs, Rng(1));
  bg.update();
  // Some ambient load appears on edge uplinks and on the filesystem.
  double total = 0.0;
  for (int e = 0; e < w.tree.num_edges(); ++e) total += w.edge_load(e);
  EXPECT_GT(total, 0.0);
  EXPECT_GT(w.fs.total_demand_gbps(), 0.0);
}

TEST(Background, LevelsStayInRange) {
  // The network level is clamped to [0, 2] and the I/O level to
  // [0, 2.5]. A link load is a chain of deltas, so the bounds allow a
  // rounding residue rather than dividing the load back into a level.
  World w;
  BackgroundLoad bg(w.engine, w.net, w.fs, Rng(2));
  bg.start();
  const double edge_cap = w.tree.config().edge_uplink_gbps;
  for (int minute = 1; minute <= 6 * 60; ++minute) {
    w.engine.run_until(60.0 * minute);
    for (int pod = 0; pod < w.tree.num_pods(); ++pod) {
      EXPECT_GE(w.pod_load(pod), 0.0);
      EXPECT_LE(w.pod_load(pod), w.pod_load_at(2.0) + 1e-9);
    }
    for (int e = 0; e < w.tree.num_edges(); ++e) {
      EXPECT_GE(w.edge_load(e), 0.0);
      EXPECT_LE(w.edge_load(e), 2.0 * edge_cap * kEdgeJitterHi + 1e-9);
    }
    EXPECT_GE(w.io_level(), 0.0);
    EXPECT_LE(w.io_level(), 2.5 + 1e-12);
  }
}

TEST(Background, EdgeUplinksCarryThePodLevelWithAStaticJitter) {
  // Every edge uplink carries its pod's level scaled by a per-edge
  // multiplier in [0.8, 1.2] that is drawn once: the edge's load over
  // the pod's level is the same at every update. The storm keeps every
  // level off its clamp at 0, where the ratio would be 0 / 0.
  World w;
  BackgroundLoad bg(w.engine, w.net, w.fs, Rng(8));
  bg.add_storm(Storm{0.0, 7200.0, 0.5, 0.0});
  bg.start();
  const auto& cfg = w.tree.config();
  std::vector<double> first_ratio;
  for (int minute = 0; minute < 30; ++minute) {
    w.engine.run_until(60.0 * minute);
    for (int pod = 0; pod < w.tree.num_pods(); ++pod) {
      const double level = w.pod_load(pod) / (cfg.pod_uplink_gbps * kPodUplinkShare);
      ASSERT_GT(level, 0.0);
      for (int e = 0; e < cfg.edges_per_pod; ++e) {
        const int edge = pod * cfg.edges_per_pod + e;
        const double ratio = w.edge_load(edge) / (cfg.edge_uplink_gbps * level);
        EXPECT_GE(ratio, kEdgeJitterLo - 1e-9);
        EXPECT_LE(ratio, kEdgeJitterHi + 1e-9);
        if (minute == 0) {
          first_ratio.push_back(ratio);
        } else {
          EXPECT_NEAR(ratio, first_ratio[static_cast<std::size_t>(edge)], 1e-9);
        }
      }
    }
  }
}

TEST(Background, PeriodicUpdatesRun) {
  World w;
  BackgroundLoad bg(w.engine, w.net, w.fs, Rng(3));
  bg.start();
  const auto before = w.engine.events_executed();
  w.engine.run_until(600.0);
  EXPECT_GE(w.engine.events_executed() - before, 10u);
  bg.stop();
  const auto after_stop = w.engine.events_executed();
  w.engine.run_until(1200.0);
  EXPECT_EQ(w.engine.events_executed(), after_stop);
}

TEST(Background, StormRaisesLevels) {
  World w1, w2;
  const std::uint64_t seed = 7;
  BackgroundLoad calm(w1.engine, w1.net, w1.fs, Rng(seed));
  BackgroundLoad stormy(w2.engine, w2.net, w2.fs, Rng(seed));
  stormy.add_storm(Storm{0.0, 7200.0, 0.5, 0.6});
  calm.start();
  stormy.start();
  w1.engine.run_until(3600.0);
  w2.engine.run_until(3600.0);
  // Identical RNG streams, so the storm boost is the exact difference.
  EXPECT_NEAR(w2.pod_load(0) - w1.pod_load(0), w1.pod_load_at(0.5), 1e-9);
  EXPECT_NEAR(w2.io_level() - w1.io_level(), 0.6, 1e-9);
}

TEST(Background, StormEndsCleanly) {
  World w;
  BackgroundLoad bg(w.engine, w.net, w.fs, Rng(11));
  bg.add_storm(Storm{100.0, 200.0, 1.0, 0.0});
  bg.start();
  w.engine.run_until(150.0);
  const double during = w.pod_load(0);
  w.engine.run_until(300.0);
  const double after = w.pod_load(0);
  EXPECT_GT(during, after + w.pod_load_at(0.5));
}

TEST(Background, DeterministicAcrossRuns) {
  World w1, w2;
  BackgroundLoad a(w1.engine, w1.net, w1.fs, Rng(99));
  BackgroundLoad b(w2.engine, w2.net, w2.fs, Rng(99));
  a.start();
  b.start();
  w1.engine.run_until(3600.0);
  w2.engine.run_until(3600.0);
  for (int pod = 0; pod < w1.tree.num_pods(); ++pod)
    EXPECT_EQ(w1.pod_load(pod), w2.pod_load(pod));
  for (int e = 0; e < w1.tree.num_edges(); ++e) EXPECT_EQ(w1.edge_load(e), w2.edge_load(e));
  EXPECT_EQ(w1.io_level(), w2.io_level());
}

TEST(Background, RejectsEmptyStorm) {
  World w;
  BackgroundLoad bg(w.engine, w.net, w.fs, Rng(1));
  EXPECT_THROW(bg.add_storm(Storm{10.0, 10.0, 1.0, 1.0}), PreconditionError);
}

}  // namespace
}  // namespace rush::cluster
