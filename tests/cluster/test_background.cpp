#include "cluster/background.hpp"

#include <gtest/gtest.h>

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

struct World {
  World() : tree(small_config()), net(tree), fs(100.0) {}
  /// The background I/O level: with no clients attached, the filesystem's
  /// demand is the ambient load the level sets, in units of its capacity.
  [[nodiscard]] double io_level() const { return fs.total_demand_gbps() / fs.capacity_gbps(); }
  sim::Engine engine;
  FatTree tree;
  NetworkModel net;
  LustreModel fs;
};

TEST(Background, UpdateSetsAmbientLoads) {
  World w;
  BackgroundLoad bg(w.engine, w.net, w.fs, BackgroundConfig{}, Rng(1));
  bg.update();
  // Some ambient load appears on edge uplinks and on the filesystem.
  double total = 0.0;
  for (int e = 0; e < w.tree.num_edges(); ++e)
    total += w.net.link_load_gbps(w.tree.edge_uplink(e));
  EXPECT_GT(total, 0.0);
  EXPECT_GT(w.fs.total_demand_gbps(), 0.0);
}

TEST(Background, LevelsStayInRange) {
  World w;
  BackgroundLoad bg(w.engine, w.net, w.fs, BackgroundConfig{}, Rng(2));
  bg.start();
  w.engine.run_until(6.0 * 3600.0);
  for (int pod = 0; pod < w.tree.num_pods(); ++pod) {
    const double level = bg.current_net_level(pod);
    EXPECT_GE(level, 0.0);
    EXPECT_LE(level, 2.0);
  }
  EXPECT_GE(w.io_level(), 0.0);
  EXPECT_LE(w.io_level(), 2.5);
}

TEST(Background, PeriodicUpdatesRun) {
  World w;
  BackgroundConfig cfg;
  cfg.update_period_s = 60.0;
  BackgroundLoad bg(w.engine, w.net, w.fs, cfg, Rng(3));
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
  BackgroundLoad calm(w1.engine, w1.net, w1.fs, BackgroundConfig{}, Rng(seed));
  BackgroundLoad stormy(w2.engine, w2.net, w2.fs, BackgroundConfig{}, Rng(seed));
  stormy.add_storm(Storm{0.0, 7200.0, 0.5, 0.6});
  calm.start();
  stormy.start();
  w1.engine.run_until(3600.0);
  w2.engine.run_until(3600.0);
  // Identical RNG streams, so the storm boost is the exact difference.
  EXPECT_NEAR(stormy.current_net_level(0) - calm.current_net_level(0), 0.5, 1e-9);
  EXPECT_NEAR(w2.io_level() - w1.io_level(), 0.6, 1e-9);
}

TEST(Background, StormEndsCleanly) {
  World w;
  BackgroundLoad bg(w.engine, w.net, w.fs, BackgroundConfig{}, Rng(11));
  bg.add_storm(Storm{100.0, 200.0, 1.0, 0.0});
  bg.start();
  w.engine.run_until(150.0);
  const double during = bg.current_net_level(0);
  w.engine.run_until(300.0);
  const double after = bg.current_net_level(0);
  EXPECT_GT(during, after + 0.5);
}

TEST(Background, DeterministicAcrossRuns) {
  World w1, w2;
  BackgroundLoad a(w1.engine, w1.net, w1.fs, BackgroundConfig{}, Rng(99));
  BackgroundLoad b(w2.engine, w2.net, w2.fs, BackgroundConfig{}, Rng(99));
  a.start();
  b.start();
  w1.engine.run_until(3600.0);
  w2.engine.run_until(3600.0);
  for (int pod = 0; pod < w1.tree.num_pods(); ++pod)
    EXPECT_DOUBLE_EQ(a.current_net_level(pod), b.current_net_level(pod));
  EXPECT_DOUBLE_EQ(w1.io_level(), w2.io_level());
}

TEST(Background, RejectsBadStormAndConfig) {
  World w;
  BackgroundLoad bg(w.engine, w.net, w.fs, BackgroundConfig{}, Rng(1));
  EXPECT_THROW(bg.add_storm(Storm{10.0, 10.0, 1.0, 1.0}), PreconditionError);
  BackgroundConfig bad;
  bad.update_period_s = 0.0;
  EXPECT_THROW(BackgroundLoad(w.engine, w.net, w.fs, bad, Rng(1)), PreconditionError);
}

}  // namespace
}  // namespace rush::cluster
