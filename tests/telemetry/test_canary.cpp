#include "telemetry/canary.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/stats.hpp"

namespace rush::telemetry {
namespace {

cluster::FatTreeConfig small_config() {
  cluster::FatTreeConfig cfg;
  cfg.pods = 1;
  cfg.edges_per_pod = 4;
  cfg.nodes_per_edge = 8;
  cfg.node_link_gbps = 10.0;
  cfg.edge_uplink_gbps = 20.0;
  cfg.pod_uplink_gbps = 80.0;
  return cfg;
}

class CanaryTest : public ::testing::Test {
 protected:
  CanaryTest() : tree_(small_config()), net_(tree_) {}
  cluster::FatTree tree_;
  cluster::NetworkModel net_;
};

TEST_F(CanaryTest, ProducesPerNodeWaits) {
  MpiCanary canary(net_, Rng(1));
  const cluster::NodeSet nodes{0, 1, 8, 9};
  const CanaryResult result = canary.run(nodes);
  ASSERT_EQ(result.send_wait_s.size(), nodes.size());
  ASSERT_EQ(result.recv_wait_s.size(), nodes.size());
  ASSERT_EQ(result.allreduce_wait_s.size(), nodes.size());
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    EXPECT_GT(result.send_wait_s[i], 0.0);
    EXPECT_GT(result.recv_wait_s[i], 0.0);
    EXPECT_GT(result.allreduce_wait_s[i], 0.0);
  }
}

TEST_F(CanaryTest, SingleNodeYieldsZeroWaits) {
  MpiCanary canary(net_, Rng(1));
  const CanaryResult result = canary.run({3});
  EXPECT_EQ(result.send_wait_s, std::vector<double>{0.0});
}

// Two canaries on one seed draw the same per-node jitter, so a calm run
// of one and a congested run of the other differ only by the congestion.

TEST_F(CanaryTest, CongestionInflatesWaits) {
  MpiCanary calm_probe(net_, Rng(1));
  MpiCanary congested_probe(net_, Rng(1));
  const cluster::NodeSet nodes{0, 1, 8, 9};  // straddles edges 0-1
  const CanaryResult calm = calm_probe.run(nodes);
  net_.set_ambient_load(tree_.edge_uplink(0), 22.0);  // oversubscribed uplink
  const CanaryResult congested = congested_probe.run(nodes);
  EXPECT_GT(stats::mean(congested.send_wait_s), 1.5 * stats::mean(calm.send_wait_s));
  EXPECT_GT(stats::mean(congested.allreduce_wait_s),
            1.5 * stats::mean(calm.allreduce_wait_s));
}

TEST_F(CanaryTest, ContainedPlacementIgnoresUplinkCongestion) {
  MpiCanary calm_probe(net_, Rng(1));
  MpiCanary congested_probe(net_, Rng(1));
  const cluster::NodeSet contained{0, 1, 2, 3};  // all on edge 0
  const CanaryResult calm = calm_probe.run(contained);
  net_.set_ambient_load(tree_.edge_uplink(0), 30.0);
  const CanaryResult still_calm = congested_probe.run(contained);
  EXPECT_EQ(still_calm.send_wait_s, calm.send_wait_s);
  EXPECT_EQ(still_calm.allreduce_wait_s, calm.allreduce_wait_s);
}

TEST_F(CanaryTest, FeatureLayoutIsMinMaxMeanPerBenchmark) {
  CanaryResult r;
  r.send_wait_s = {1.0, 3.0};
  r.recv_wait_s = {2.0, 4.0};
  r.allreduce_wait_s = {10.0, 20.0};
  const auto f = r.features();
  EXPECT_DOUBLE_EQ(f[0], 1.0);   // send min
  EXPECT_DOUBLE_EQ(f[1], 3.0);   // send max
  EXPECT_DOUBLE_EQ(f[2], 2.0);   // send mean
  EXPECT_DOUBLE_EQ(f[3], 2.0);   // recv min
  EXPECT_DOUBLE_EQ(f[5], 3.0);   // recv mean
  EXPECT_DOUBLE_EQ(f[6], 10.0);  // allreduce min
  EXPECT_DOUBLE_EQ(f[8], 15.0);  // allreduce mean
}

TEST_F(CanaryTest, RecvWaitsExceedSendWaits) {
  // A receive waits 15% longer than a send before jitter; over the 32
  // nodes of the tree, the 8% per-node jitter cannot close that gap.
  MpiCanary canary(net_, Rng(1));
  cluster::NodeSet nodes;
  for (cluster::NodeId n = 0; n < tree_.num_nodes(); ++n) nodes.push_back(n);
  const CanaryResult r = canary.run(nodes);
  EXPECT_GT(stats::mean(r.recv_wait_s), stats::mean(r.send_wait_s));
}

TEST_F(CanaryTest, DeterministicWithSameSeed) {
  MpiCanary a(net_, Rng(42));
  MpiCanary b(net_, Rng(42));
  const auto ra = a.run({0, 1, 8, 9});
  const auto rb = b.run({0, 1, 8, 9});
  EXPECT_EQ(ra.send_wait_s, rb.send_wait_s);
  EXPECT_EQ(ra.allreduce_wait_s, rb.allreduce_wait_s);
}

TEST_F(CanaryTest, RejectsEmptyNodeSet) {
  MpiCanary canary(net_, Rng(1));
  EXPECT_THROW((void)canary.run({}), PreconditionError);
}

}  // namespace
}  // namespace rush::telemetry
