#include "telemetry/canary.hpp"

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <optional>

#include "common/error.hpp"
#include "golden.hpp"

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
  // Every node waits a positive time, so every aggregate is positive.
  MpiCanary canary(net_, Rng(1));
  const CanaryResult result = canary.run({0, 1, 8, 9});
  for (double f : result) EXPECT_GT(f, 0.0);
}

TEST_F(CanaryTest, SingleNodeYieldsZeroWaits) {
  MpiCanary canary(net_, Rng(1));
  EXPECT_EQ(canary.run({3}), CanaryResult{});  // nine zeros
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
  EXPECT_GT(congested[2], 1.5 * calm[2]);  // send mean
  EXPECT_GT(congested[8], 1.5 * calm[8]);  // allreduce mean
}

TEST_F(CanaryTest, ContainedPlacementIgnoresUplinkCongestion) {
  MpiCanary calm_probe(net_, Rng(1));
  MpiCanary congested_probe(net_, Rng(1));
  const cluster::NodeSet contained{0, 1, 2, 3};  // all on edge 0
  const CanaryResult calm = calm_probe.run(contained);
  net_.set_ambient_load(tree_.edge_uplink(0), 30.0);
  const CanaryResult still_calm = congested_probe.run(contained);
  EXPECT_EQ(still_calm, calm);
}

TEST_F(CanaryTest, FeatureLayoutIsMinMaxMeanPerBenchmark) {
  // Each benchmark's triple is [min, max, mean] of distinct per-node
  // waits, so the mean sits strictly between the extremes; the recv
  // triple follows the send triple, and a receive waits 15% longer.
  MpiCanary canary(net_, Rng(1));
  cluster::NodeSet nodes;
  for (cluster::NodeId n = 0; n < tree_.num_nodes(); ++n) nodes.push_back(n);
  const CanaryResult f = canary.run(nodes);
  for (std::size_t b = 0; b < f.size(); b += 3) {
    EXPECT_LT(f[b], f[b + 2]) << "benchmark " << b / 3;
    EXPECT_LT(f[b + 2], f[b + 1]) << "benchmark " << b / 3;
  }
  EXPECT_NEAR(f[5] / f[2], 1.15, 0.05);  // recv mean over send mean
}

TEST_F(CanaryTest, RecvWaitsExceedSendWaits) {
  // A receive waits 15% longer than a send before jitter; over the 32
  // nodes of the tree, the 8% per-node jitter cannot close that gap.
  MpiCanary canary(net_, Rng(1));
  cluster::NodeSet nodes;
  for (cluster::NodeId n = 0; n < tree_.num_nodes(); ++n) nodes.push_back(n);
  const CanaryResult r = canary.run(nodes);
  EXPECT_GT(r[5], r[2]);  // recv mean, send mean
}

TEST_F(CanaryTest, DeterministicWithSameSeed) {
  MpiCanary a(net_, Rng(42));
  MpiCanary b(net_, Rng(42));
  EXPECT_EQ(a.run({0, 1, 8, 9}), b.run({0, 1, 8, 9}));
}

// Golden rows: the bits of the nine features, recorded before the probe
// folded its per-node waits into them. Each seed probes a 16-node
// placement over two edge switches whose uplinks carry ambient load, then
// a single node, then the 16 nodes again, so the rows also pin the
// canary's draws per probe (three normals per node, none for one node).
TEST_F(CanaryTest, FeatureBitsKeepTheirGoldenRows) {
  net_.set_ambient_load(tree_.edge_uplink(0), 15.0);
  net_.set_ambient_load(tree_.edge_uplink(1), 22.0);
  cluster::NodeSet straddling;
  for (cluster::NodeId n = 0; n < 16; ++n) straddling.push_back(n);
  const cluster::NodeSet single{5};

  struct Row {
    std::uint64_t seed;
    const cluster::NodeSet* nodes;
    std::array<std::uint64_t, 9> bits;
  };
  const std::array<Row, 6> rows{{
      {1, &straddling,
       {0x3fc8b06bd67c84c4ULL, 0x3fd0e1f0e7572412ULL, 0x3fcceb89a73e9d92ULL,
        0x3fcaf05326d8e826ULL, 0x3fd350f939a35584ULL, 0x3fd054752cfa8631ULL,
        0x3fca81020c3b21e4ULL, 0x3fd00e26bfafb4c7ULL, 0x3fcd8fa2d35e878bULL}},
      {1, &single, {}},  // nine zeros
      {1, &straddling,
       {0x3fc81680ebfcd6a4ULL, 0x3fce7119c00952a2ULL, 0x3fcba8836e11ce40ULL,
        0x3fcd543a9274bf8fULL, 0x3fd4226fd93ae017ULL, 0x3fd0ab9529bd7c3eULL,
        0x3fca434065665d92ULL, 0x3fd090d48ea156b9ULL, 0x3fcd96b2a316802eULL}},
      {42, &straddling,
       {0x3fc8dc342faf2ed9ULL, 0x3fd0848fa16bfda1ULL, 0x3fcbfba37c9ac839ULL,
        0x3fce1d426cb97b8eULL, 0x3fd26d786b04c52fULL, 0x3fd0361738128826ULL,
        0x3fcb5af51c521586ULL, 0x3fd065c3410ebaa7ULL, 0x3fce35acdf671809ULL}},
      {42, &single, {}},
      {42, &straddling,
       {0x3fc86ca86af2bd74ULL, 0x3fd0a96bc59540f9ULL, 0x3fcc32397118f9a2ULL,
        0x3fcb8965346845efULL, 0x3fd3226b83707911ULL, 0x3fcff27849d55685ULL,
        0x3fca7b85d5d5ae70ULL, 0x3fd15e8794d77af0ULL, 0x3fcdcc4b144627b5ULL}},
  }};
  std::uint64_t seed = 0;
  std::optional<MpiCanary> canary;
  for (std::size_t r = 0; r < rows.size(); ++r) {
    if (!canary || rows[r].seed != seed) canary.emplace(net_, Rng(seed = rows[r].seed));
    const CanaryResult f = canary->run(*rows[r].nodes);
    for (std::size_t i = 0; i < f.size(); ++i)
      EXPECT_EQ(golden::hex(std::bit_cast<std::uint64_t>(f[i])), golden::hex(rows[r].bits[i]))
          << "row " << r << ", feature " << i;
  }
}

TEST_F(CanaryTest, RejectsEmptyNodeSet) {
  MpiCanary canary(net_, Rng(1));
  EXPECT_THROW((void)canary.run({}), PreconditionError);
}

}  // namespace
}  // namespace rush::telemetry
