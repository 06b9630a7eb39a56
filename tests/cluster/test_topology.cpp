#include "cluster/topology.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace rush::cluster {
namespace {

FatTree small_tree() {
  FatTreeConfig cfg;
  cfg.pods = 2;
  cfg.edges_per_pod = 4;
  cfg.nodes_per_edge = 8;
  return FatTree(cfg);
}

TEST(Topology, Counts) {
  const FatTree tree = small_tree();
  EXPECT_EQ(tree.num_nodes(), 64);
  EXPECT_EQ(tree.num_edges(), 8);
  EXPECT_EQ(tree.num_pods(), 2);
  EXPECT_EQ(tree.num_links(), 64 + 8 + 2);
}

TEST(Topology, DefaultConfigIsQuartzLike) {
  const FatTree tree{FatTreeConfig{}};
  EXPECT_EQ(tree.num_nodes(), 6 * 16 * 32);
  EXPECT_EQ(tree.config().total_nodes(), tree.num_nodes());
}

TEST(Topology, EdgeAndPodMapping) {
  const FatTree tree = small_tree();
  EXPECT_EQ(tree.edge_of(0), 0);
  EXPECT_EQ(tree.edge_of(7), 0);
  EXPECT_EQ(tree.edge_of(8), 1);
  EXPECT_EQ(tree.edge_of(63), 7);
  EXPECT_EQ(tree.pod_of(0), 0);
  EXPECT_EQ(tree.pod_of(31), 0);
  EXPECT_EQ(tree.pod_of(32), 1);
  EXPECT_EQ(tree.pod_of(63), 1);
}

TEST(Topology, NodesInPodAndEdge) {
  const FatTree tree = small_tree();
  const NodeSet pod1 = tree.nodes_in_pod(1);
  ASSERT_EQ(pod1.size(), 32u);
  EXPECT_EQ(pod1.front(), 32);
  EXPECT_EQ(pod1.back(), 63);
  // Edge 3 holds nodes 24..31.
  EXPECT_EQ(tree.edge_of(23), 2);
  EXPECT_EQ(tree.edge_of(24), 3);
  EXPECT_EQ(tree.edge_of(31), 3);
  EXPECT_EQ(tree.edge_of(32), 4);
}

TEST(Topology, LinkIdsArePartitionedByKind) {
  const FatTree tree = small_tree();
  EXPECT_EQ(tree.link_kind(tree.node_link(5)), LinkKind::NodeLink);
  EXPECT_EQ(tree.link_kind(tree.edge_uplink(2)), LinkKind::EdgeUplink);
  EXPECT_EQ(tree.link_kind(tree.pod_uplink(1)), LinkKind::PodUplink);
  // Distinctness across kinds.
  EXPECT_NE(tree.node_link(63), tree.edge_uplink(0));
  EXPECT_NE(tree.edge_uplink(7), tree.pod_uplink(0));
}

TEST(Topology, LinkCapacitiesByKind) {
  const FatTree tree = small_tree();
  const auto& cfg = tree.config();
  EXPECT_DOUBLE_EQ(tree.link_capacity_gbps(tree.node_link(0)), cfg.node_link_gbps);
  EXPECT_DOUBLE_EQ(tree.link_capacity_gbps(tree.edge_uplink(0)), cfg.edge_uplink_gbps);
  EXPECT_DOUBLE_EQ(tree.link_capacity_gbps(tree.pod_uplink(0)), cfg.pod_uplink_gbps);
}

TEST(Topology, BoundsChecking) {
  const FatTree tree = small_tree();
  EXPECT_THROW((void)tree.edge_of(-1), PreconditionError);
  EXPECT_THROW((void)tree.edge_of(64), PreconditionError);
  EXPECT_THROW((void)tree.pod_uplink(2), PreconditionError);
  EXPECT_THROW((void)tree.link_kind(tree.num_links()), PreconditionError);
}

TEST(Topology, RejectsBadConfig) {
  FatTreeConfig cfg;
  cfg.pods = 0;
  EXPECT_THROW(FatTree{cfg}, PreconditionError);
  cfg = FatTreeConfig{};
  cfg.edge_uplink_gbps = 0.0;
  EXPECT_THROW(FatTree{cfg}, PreconditionError);
}

TEST(Topology, ValidNodeSet) {
  const FatTree tree = small_tree();
  EXPECT_TRUE(valid_node_set(tree, {0, 1, 5}));
  EXPECT_FALSE(valid_node_set(tree, {}));            // empty
  EXPECT_FALSE(valid_node_set(tree, {1, 1}));        // duplicate
  EXPECT_FALSE(valid_node_set(tree, {2, 1}));        // unsorted
  EXPECT_FALSE(valid_node_set(tree, {0, 64}));       // out of range
  EXPECT_FALSE(valid_node_set(tree, {-1, 3}));       // negative
}

}  // namespace
}  // namespace rush::cluster
