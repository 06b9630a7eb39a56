#include "cluster/network.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "cluster/congestion.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"

namespace rush::cluster {
namespace {

FatTreeConfig small_config() {
  FatTreeConfig cfg;
  cfg.pods = 2;
  cfg.edges_per_pod = 4;
  cfg.nodes_per_edge = 8;
  cfg.node_link_gbps = 10.0;
  cfg.edge_uplink_gbps = 20.0;
  cfg.pod_uplink_gbps = 80.0;
  return cfg;
}

class NetworkTest : public ::testing::Test {
 protected:
  NetworkTest() : tree_(small_config()), net_(tree_) {}
  FatTree tree_;
  NetworkModel net_;
};

TEST(CongestionCurve, ShapeAndMonotonicity) {
  EXPECT_DOUBLE_EQ(congestion_slowdown(0.0), 1.0);
  EXPECT_NEAR(congestion_slowdown(0.3), 1.0, 0.01);   // healthy region
  EXPECT_NEAR(congestion_slowdown(0.7), 1.2, 0.05);   // knee
  EXPECT_NEAR(congestion_slowdown(1.0), 1.95, 0.01);  // saturation
  EXPECT_GT(congestion_slowdown(1.5), 2.5);           // overload
  double prev = 0.0;
  for (double u = 0.0; u <= 3.0; u += 0.01) {
    const double s = congestion_slowdown(u);
    EXPECT_GE(s, prev);
    prev = s;
  }
}

TEST_F(NetworkTest, NoTrafficMeansNoLoad) {
  for (LinkId l = 0; l < tree_.num_links(); ++l) EXPECT_DOUBLE_EQ(net_.link_load_gbps(l), 0.0);
}

TEST_F(NetworkTest, SingleNodeSourceGeneratesNoTraffic) {
  net_.add_source(1, {0}, 5.0, TrafficPattern::AllToAll);
  EXPECT_DOUBLE_EQ(net_.link_load_gbps(tree_.node_link(0)), 0.0);
  EXPECT_DOUBLE_EQ(net_.slowdown(1), 1.0);
}

TEST_F(NetworkTest, AllToAllWithinOneEdgeStaysLocal) {
  // Nodes 0..3 all attach to edge 0: their all-to-all never crosses the
  // edge uplink.
  net_.add_source(1, {0, 1, 2, 3}, 2.0, TrafficPattern::AllToAll);
  EXPECT_DOUBLE_EQ(net_.link_load_gbps(tree_.node_link(0)), 2.0);
  EXPECT_DOUBLE_EQ(net_.link_load_gbps(tree_.edge_uplink(0)), 0.0);
  EXPECT_DOUBLE_EQ(net_.link_load_gbps(tree_.pod_uplink(0)), 0.0);
}

TEST_F(NetworkTest, AllToAllAcrossEdgesLoadsUplinks) {
  // 4 nodes on edge 0, 4 on edge 1: half of each node's traffic leaves
  // its edge -> per-edge uplink load = 4 * r * (4/7).
  net_.add_source(1, {0, 1, 2, 3, 8, 9, 10, 11}, 2.0, TrafficPattern::AllToAll);
  const double expected = 4.0 * 2.0 * 4.0 / 7.0;
  EXPECT_NEAR(net_.link_load_gbps(tree_.edge_uplink(0)), expected, 1e-9);
  EXPECT_NEAR(net_.link_load_gbps(tree_.edge_uplink(1)), expected, 1e-9);
  EXPECT_DOUBLE_EQ(net_.link_load_gbps(tree_.pod_uplink(0)), 0.0);  // same pod
}

TEST_F(NetworkTest, AllToAllAcrossPodsLoadsPodUplinks) {
  // One node per pod: everything crosses both pod uplinks.
  net_.add_source(1, {0, 32}, 3.0, TrafficPattern::AllToAll);
  EXPECT_NEAR(net_.link_load_gbps(tree_.pod_uplink(0)), 3.0, 1e-9);
  EXPECT_NEAR(net_.link_load_gbps(tree_.pod_uplink(1)), 3.0, 1e-9);
}

TEST_F(NetworkTest, NearestNeighborOnlyBoundaryPairsCross) {
  // 0..7 on edge 0 and 8 on edge 1: only the (7,8) pair crosses.
  net_.add_source(1, {0, 1, 2, 3, 4, 5, 6, 7, 8}, 4.0, TrafficPattern::NearestNeighbor);
  EXPECT_NEAR(net_.link_load_gbps(tree_.edge_uplink(0)), 2.0, 1e-9);  // r/2
  EXPECT_NEAR(net_.link_load_gbps(tree_.edge_uplink(1)), 2.0, 1e-9);
}

TEST_F(NetworkTest, RingAddsWrapAroundPair) {
  // Nodes on edges 0 and 1; ring adds the (last, first) pair on top of
  // nearest-neighbor.
  const NodeSet nodes{0, 1, 8, 9};
  net_.add_source(1, nodes, 4.0, TrafficPattern::NearestNeighbor);
  const double nn_load = net_.link_load_gbps(tree_.edge_uplink(0));
  net_.remove_source(1);
  net_.add_source(2, nodes, 4.0, TrafficPattern::Ring);
  const double ring_load = net_.link_load_gbps(tree_.edge_uplink(0));
  EXPECT_GT(ring_load, nn_load);
}

TEST_F(NetworkTest, GatewayLoadsEdgeAndPodUplinks) {
  net_.add_source(1, {0, 1, 8}, 1.5, TrafficPattern::Gateway);
  EXPECT_NEAR(net_.link_load_gbps(tree_.edge_uplink(0)), 3.0, 1e-9);
  EXPECT_NEAR(net_.link_load_gbps(tree_.edge_uplink(1)), 1.5, 1e-9);
  EXPECT_NEAR(net_.link_load_gbps(tree_.pod_uplink(0)), 4.5, 1e-9);
}

TEST_F(NetworkTest, GatewayWorksForSingleNode) {
  net_.add_source(1, {5}, 2.0, TrafficPattern::Gateway);
  EXPECT_NEAR(net_.link_load_gbps(tree_.edge_uplink(0)), 2.0, 1e-9);
}

TEST_F(NetworkTest, SlowdownGrowsWithCompetingTraffic) {
  // A small job straddling edges 0-1.
  net_.add_source(1, {4, 5, 6, 7, 8, 9, 10, 11}, 1.0, TrafficPattern::AllToAll);
  const double alone = net_.slowdown(1);
  // A heavy competitor on the same edges.
  net_.add_source(2, {0, 1, 2, 3, 12, 13, 14, 15}, 8.0, TrafficPattern::AllToAll);
  const double contended = net_.slowdown(1);
  EXPECT_GT(contended, alone);
}

TEST_F(NetworkTest, SetRateUpdatesLoads) {
  net_.add_source(1, {0, 8}, 1.0, TrafficPattern::AllToAll);
  const double before = net_.link_load_gbps(tree_.edge_uplink(0));
  net_.set_rate(1, 2.0);
  EXPECT_NEAR(net_.link_load_gbps(tree_.edge_uplink(0)), 2.0 * before, 1e-9);
}

TEST_F(NetworkTest, RemoveSourceClearsLoads) {
  net_.add_source(1, {0, 8}, 1.0, TrafficPattern::AllToAll);
  net_.remove_source(1);
  EXPECT_FALSE(net_.has_source(1));
  EXPECT_DOUBLE_EQ(net_.link_load_gbps(tree_.edge_uplink(0)), 0.0);
}

TEST_F(NetworkTest, AmbientLoadContributes) {
  net_.set_ambient_load(tree_.edge_uplink(0), 18.0);
  EXPECT_DOUBLE_EQ(net_.link_load_gbps(tree_.edge_uplink(0)), 18.0);
  EXPECT_NEAR(net_.link_utilization(tree_.edge_uplink(0)), 0.9, 1e-9);
  // A job crossing that uplink feels it.
  net_.add_source(1, {0, 8}, 0.5, TrafficPattern::AllToAll);
  EXPECT_GT(net_.slowdown(1), 1.3);
}

TEST_F(NetworkTest, ProbeMatchesEquivalentSource) {
  net_.set_ambient_load(tree_.edge_uplink(0), 10.0);
  const NodeSet probe_nodes{0, 1, 8, 9};
  const double probed = net_.probe_slowdown(probe_nodes, 2.0, TrafficPattern::AllToAll);
  net_.add_source(7, probe_nodes, 2.0, TrafficPattern::AllToAll);
  EXPECT_NEAR(net_.slowdown(7), probed, 1e-9);
}

TEST_F(NetworkTest, ProbeDoesNotMutate) {
  const NodeSet probe_nodes{0, 8};
  (void)net_.probe_slowdown(probe_nodes, 5.0);
  EXPECT_DOUBLE_EQ(net_.link_load_gbps(tree_.edge_uplink(0)), 0.0);
}

TEST_F(NetworkTest, NodeXmitReflectsInjection) {
  net_.add_source(1, {0, 1, 8, 9}, 1.5, TrafficPattern::AllToAll);
  EXPECT_NEAR(net_.node_xmit_gbps(0), 1.5, 1e-9);
  EXPECT_NEAR(net_.node_recv_gbps(0), 1.5, 1e-9);
  EXPECT_DOUBLE_EQ(net_.node_xmit_gbps(2), 0.0);  // not part of the job
}

TEST_F(NetworkTest, PreconditionViolations) {
  EXPECT_THROW(net_.add_source(1, {}, 1.0), PreconditionError);          // empty set
  EXPECT_THROW(net_.add_source(1, {3, 2}, 1.0), PreconditionError);     // unsorted
  EXPECT_THROW(net_.add_source(1, {0, 8}, -1.0), PreconditionError);    // negative rate
  net_.add_source(1, {0, 8}, 1.0);
  EXPECT_THROW(net_.add_source(1, {1, 9}, 1.0), PreconditionError);     // duplicate id
  EXPECT_THROW(net_.set_rate(99, 1.0), PreconditionError);              // unknown id
  EXPECT_THROW(net_.remove_source(99), PreconditionError);
  EXPECT_THROW(net_.set_ambient_load(-1, 1.0), PreconditionError);
  EXPECT_THROW((void)net_.slowdown(99), PreconditionError);
}

// Property: total node-link load equals the sum of member injections for
// any mix of sources and patterns.
TEST_F(NetworkTest, NodeLinkLoadConservation) {
  net_.add_source(1, {0, 1, 2, 3}, 2.0, TrafficPattern::AllToAll);
  net_.add_source(2, {4, 5, 6, 7, 8, 9}, 1.0, TrafficPattern::NearestNeighbor);
  net_.add_source(3, {16, 17, 40, 41}, 0.5, TrafficPattern::Ring);
  double total = 0.0;
  for (NodeId n = 0; n < tree_.num_nodes(); ++n) total += net_.link_load_gbps(tree_.node_link(n));
  EXPECT_NEAR(total, 4 * 2.0 + 6 * 1.0 + 4 * 0.5, 1e-9);
}

// --- incremental engine vs from-scratch rebuild -------------------------

TEST_F(NetworkTest, SilentSourceContributesNothingAndFeelsNothing) {
  net_.add_source(1, {0, 8}, 0.0, TrafficPattern::AllToAll);
  EXPECT_DOUBLE_EQ(net_.link_load_gbps(tree_.edge_uplink(0)), 0.0);
  net_.set_ambient_load(tree_.edge_uplink(0), 19.0);  // near saturation
  EXPECT_DOUBLE_EQ(net_.slowdown(1), 1.0);  // rate 0: traverses no links
  net_.set_rate(1, 2.0);
  EXPECT_GT(net_.slowdown(1), 1.0);
  EXPECT_NEAR(net_.link_load_gbps(tree_.edge_uplink(0)), 21.0, 1e-9);
  net_.set_rate(1, 0.0);
  EXPECT_NEAR(net_.link_load_gbps(tree_.edge_uplink(0)), 19.0, 1e-9);
  EXPECT_DOUBLE_EQ(net_.slowdown(1), 1.0);
}

TEST_F(NetworkTest, RebuildPreservesLoadsAndIsIdempotent) {
  net_.add_source(1, {0, 1, 8, 9}, 2.0, TrafficPattern::AllToAll);
  net_.add_source(2, {16, 17, 40, 41}, 1.5, TrafficPattern::Gateway);
  net_.set_ambient_load(tree_.pod_uplink(1), 4.0);
  std::vector<double> before;
  for (LinkId l = 0; l < tree_.num_links(); ++l) before.push_back(net_.link_load_gbps(l));
  net_.rebuild();
  net_.rebuild();
  for (LinkId l = 0; l < tree_.num_links(); ++l) {
    const auto idx = static_cast<std::size_t>(l);
    EXPECT_NEAR(net_.link_load_gbps(l), before[idx],
                1e-9 * std::max(1.0, before[idx]))
        << "link " << l;
  }
}

/// Replays a randomized mutation sequence (add/remove/set_rate/set_ambient
/// across all four traffic patterns) and repeatedly checks the
/// incrementally maintained per-link loads against a from-scratch
/// rebuild(), to 1e-9 relative tolerance.
TEST_F(NetworkTest, RandomizedChurnMatchesFromScratchRebuild) {
  Rng rng(0xC0FFEE);
  std::vector<SourceId> live;
  SourceId next_id = 1;
  constexpr TrafficPattern kPatterns[] = {TrafficPattern::AllToAll,
                                          TrafficPattern::NearestNeighbor, TrafficPattern::Ring,
                                          TrafficPattern::Gateway};
  const auto verify_against_rebuild = [&] {
    std::vector<double> incremental;
    for (LinkId l = 0; l < tree_.num_links(); ++l)
      incremental.push_back(net_.link_load_gbps(l));
    net_.rebuild();
    for (LinkId l = 0; l < tree_.num_links(); ++l) {
      const auto idx = static_cast<std::size_t>(l);
      ASSERT_NEAR(net_.link_load_gbps(l), incremental[idx],
                  1e-9 * std::max(1.0, std::abs(incremental[idx])))
          << "link " << l;
    }
    EXPECT_NO_THROW(net_.audit_invariants());
  };

  for (int step = 0; step < 600; ++step) {
    const auto roll = rng.uniform_int(0, 9);
    if (roll < 4 || live.empty()) {  // add
      const int width = static_cast<int>(rng.uniform_int(1, 12));
      const auto base =
          static_cast<NodeId>(rng.uniform_int(0, tree_.num_nodes() - width - 1));
      NodeSet nodes;
      for (int i = 0; i < width; ++i) nodes.push_back(base + i);
      const double rate = rng.bernoulli(0.1) ? 0.0 : rng.uniform(0.0, 4.0);
      net_.add_source(next_id, nodes, rate, kPatterns[rng.uniform_int(0, 3)]);
      live.push_back(next_id++);
    } else if (roll < 6) {  // remove
      const auto pick = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
      net_.remove_source(live[pick]);
      live[pick] = live.back();
      live.pop_back();
    } else if (roll < 8) {  // set_rate (sometimes to/from zero)
      const auto pick = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
      net_.set_rate(live[pick], rng.bernoulli(0.15) ? 0.0 : rng.uniform(0.0, 4.0));
    } else {  // set_ambient
      const auto link = static_cast<LinkId>(rng.uniform_int(0, tree_.num_links() - 1));
      net_.set_ambient_load(link, rng.bernoulli(0.2) ? 0.0 : rng.uniform(0.0, 10.0));
    }
    if (step % 40 == 39) verify_against_rebuild();
  }
  verify_against_rebuild();

  // Drain everything: the incremental path must land back on ambient-only.
  for (const SourceId id : live) net_.remove_source(id);
  verify_against_rebuild();
}

/// Probes must agree with registering the equivalent source, for every
/// pattern, under a contended model.
TEST_F(NetworkTest, ProbeMatchesEquivalentSourceForAllPatterns) {
  net_.add_source(1, {0, 1, 2, 3, 8, 9, 10, 11}, 3.0, TrafficPattern::AllToAll);
  net_.set_ambient_load(tree_.edge_uplink(1), 6.0);
  const NodeSet probe_nodes{4, 5, 12, 13, 36, 37};
  for (const TrafficPattern pattern :
       {TrafficPattern::AllToAll, TrafficPattern::NearestNeighbor, TrafficPattern::Ring,
        TrafficPattern::Gateway}) {
    const double probed = net_.probe_slowdown(probe_nodes, 2.0, pattern);
    net_.add_source(99, probe_nodes, 2.0, pattern);
    EXPECT_NEAR(net_.slowdown(99), probed, 1e-9)
        << "pattern " << static_cast<int>(pattern);
    net_.remove_source(99);
  }
}

}  // namespace
}  // namespace rush::cluster
