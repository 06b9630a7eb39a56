#include "apps/noise.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/error.hpp"
#include "sim/engine.hpp"

namespace rush::apps {
namespace {

cluster::FatTreeConfig small_config() {
  cluster::FatTreeConfig cfg;
  cfg.pods = 1;
  cfg.edges_per_pod = 4;
  cfg.nodes_per_edge = 8;
  return cfg;
}

// The noise job's rate range and redraw period. A burst holds the rate in
// the range's top quarter, a calm period in its low half.
constexpr double kRateLoGbps = 0.5;
constexpr double kRateHiGbps = 12.0;
constexpr double kChangePeriodS = 60.0;
constexpr double kCalmCeilingGbps = kRateLoGbps + 0.5 * (kRateHiGbps - kRateLoGbps);
constexpr double kBurstFloorGbps = kRateLoGbps + 0.75 * (kRateHiGbps - kRateLoGbps);

struct World {
  World() : tree(small_config()), net(tree) {}
  /// The noise rate: nothing else loads a noise node's access link, and
  /// every member pushes its whole injection through it.
  [[nodiscard]] double rate() const { return net.node_xmit_gbps(0); }
  sim::Engine engine;
  cluster::FatTree tree;
  cluster::NetworkModel net;
};

cluster::NodeSet spread_nodes() { return {0, 8, 16, 24}; }  // one per edge

/// The rate after each of `redraws` redraws.
std::vector<double> rates_over(World& w, int redraws) {
  std::vector<double> out;
  for (int i = 0; i < redraws; ++i) {
    w.engine.run_until(w.engine.now() + kChangePeriodS);
    out.push_back(w.rate());
  }
  return out;
}

TEST(Noise, StartRegistersTrafficSource) {
  World w;
  NoiseJob noise(w.engine, w.net, spread_nodes(), Rng(1));
  EXPECT_FALSE(w.net.has_source(NoiseJob::kSourceId));
  noise.start();
  EXPECT_TRUE(w.net.has_source(NoiseJob::kSourceId));
  EXPECT_GT(w.net.link_load_gbps(w.tree.edge_uplink(0)), 0.0);
}

TEST(Noise, StopRemovesSource) {
  World w;
  NoiseJob noise(w.engine, w.net, spread_nodes(), Rng(1));
  noise.start();
  noise.stop();
  EXPECT_FALSE(w.net.has_source(NoiseJob::kSourceId));
  EXPECT_DOUBLE_EQ(w.net.link_load_gbps(w.tree.edge_uplink(0)), 0.0);
}

TEST(Noise, RateStaysWithinConfiguredRange) {
  World w;
  NoiseJob noise(w.engine, w.net, spread_nodes(), Rng(2));
  noise.start();
  // A set_rate is a delta on the link load, so allow its rounding residue.
  for (const double rate : rates_over(w, 100)) {
    EXPECT_GE(rate, kRateLoGbps - 1e-9);
    EXPECT_LE(rate, kRateHiGbps + 1e-9);
  }
}

TEST(Noise, RateVariesOverTime) {
  World w;
  NoiseJob noise(w.engine, w.net, spread_nodes(), Rng(3));
  noise.start();
  const double first = w.rate();
  bool changed = false;
  for (int i = 0; i < 20 && !changed; ++i) {
    w.engine.run_until(w.engine.now() + 60.0);
    if (w.rate() != first) changed = true;
  }
  EXPECT_TRUE(changed);
}

TEST(Noise, BurstsOccurAndAreHigh) {
  // A burst starts with probability 0.02 per redraw and lasts ~15 minutes
  // (lognormal), so 10 simulated hours see one, and its rate stays in the
  // top quarter of the range for more than one redraw.
  World w;
  NoiseJob noise(w.engine, w.net, spread_nodes(), Rng(4));
  noise.start();
  const std::vector<double> rates = rates_over(w, 600);
  int longest_run = 0;
  int run = 0;
  for (const double rate : rates) {
    run = rate >= kBurstFloorGbps - 1e-9 ? run + 1 : 0;
    longest_run = std::max(longest_run, run);
  }
  EXPECT_GE(longest_run, 2);
}

TEST(Noise, CalmPeriodsStayInLowerHalf) {
  // Every redraw lands in the calm half or the burst quarter, never in
  // between, and both occur.
  World w;
  NoiseJob noise(w.engine, w.net, spread_nodes(), Rng(5));
  noise.start();
  int calm = 0;
  int burst = 0;
  for (const double rate : rates_over(w, 600)) {
    if (rate <= kCalmCeilingGbps + 1e-9) {
      ++calm;
    } else {
      EXPECT_GE(rate, kBurstFloorGbps - 1e-9);
      ++burst;
    }
  }
  EXPECT_GT(calm, 0);
  EXPECT_GT(burst, 0);
}

TEST(Noise, StartIsIdempotent) {
  World w;
  NoiseJob noise(w.engine, w.net, spread_nodes(), Rng(6));
  noise.start();
  noise.start();  // no double registration
  noise.stop();
  noise.stop();  // no double removal
}

TEST(Noise, RejectsFewerThanTwoNodes) {
  World w;
  EXPECT_THROW(NoiseJob(w.engine, w.net, {0}, Rng(1)), PreconditionError);
}

}  // namespace
}  // namespace rush::apps
