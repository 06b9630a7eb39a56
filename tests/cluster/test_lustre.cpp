#include "cluster/lustre.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "cluster/congestion.hpp"
#include "common/error.hpp"

namespace rush::cluster {
namespace {

TEST(Lustre, EmptyModelIsHealthy) {
  LustreModel fs(100.0);
  EXPECT_DOUBLE_EQ(fs.total_demand_gbps(), 0.0);
  EXPECT_DOUBLE_EQ(fs.slowdown(), 1.0);
  EXPECT_DOUBLE_EQ(fs.capacity_gbps(), 100.0);
}

TEST(Lustre, DemandAggregatesOverClientsAndNodes) {
  LustreModel fs(100.0);
  fs.add_client(1, {0, 1, 2, 3}, 2.0);
  fs.add_client(2, {10, 11}, 5.0);
  EXPECT_DOUBLE_EQ(fs.total_demand_gbps(), 4 * 2.0 + 2 * 5.0);
}

TEST(Lustre, SlowdownFollowsCongestionCurve) {
  LustreModel fs(100.0);
  fs.add_client(1, {0}, 90.0);
  EXPECT_NEAR(fs.slowdown(), congestion_slowdown(0.9), 1e-12);
  fs.set_rate(1, 150.0);
  EXPECT_NEAR(fs.slowdown(), congestion_slowdown(1.5), 1e-12);
}

TEST(Lustre, AmbientDemandCounts) {
  LustreModel fs(100.0);
  fs.set_ambient_demand(60.0);
  EXPECT_DOUBLE_EQ(fs.total_demand_gbps(), 60.0);
  fs.add_client(1, {0, 1}, 20.0);
  EXPECT_DOUBLE_EQ(fs.total_demand_gbps(), 100.0);
}

TEST(Lustre, NodeRatesSplitByReadFraction) {
  LustreModel fs(1000.0);  // uncontended
  fs.add_client(1, {5, 6}, 4.0, /*read_fraction=*/0.75);
  EXPECT_NEAR(fs.node_read_gbps(5), 3.0, 1e-6);
  EXPECT_NEAR(fs.node_write_gbps(5), 1.0, 1e-6);
  EXPECT_DOUBLE_EQ(fs.node_read_gbps(99), 0.0);  // non-client node
}

TEST(Lustre, AchievedRatesShrinkUnderContention) {
  LustreModel fs(10.0);
  fs.add_client(1, {0}, 4.0, 0.5);
  const double healthy = fs.node_read_gbps(0);
  fs.set_ambient_demand(20.0);  // oversubscribe the pool
  const double contended = fs.node_read_gbps(0);
  EXPECT_LT(contended, healthy);
  EXPECT_NEAR(contended, 2.0 / fs.slowdown(), 1e-9);
}

TEST(Lustre, RemoveClientRestoresHealth) {
  LustreModel fs(10.0);
  fs.add_client(1, {0, 1, 2}, 10.0);
  EXPECT_GT(fs.slowdown(), 2.0);
  fs.remove_client(1);
  EXPECT_FALSE(fs.has_client(1));
  EXPECT_DOUBLE_EQ(fs.slowdown(), 1.0);
}

TEST(Lustre, GenerationBumpsOnMutation) {
  LustreModel fs(10.0);
  const auto g0 = fs.generation();
  fs.add_client(1, {0}, 1.0);
  EXPECT_GT(fs.generation(), g0);
  const auto g1 = fs.generation();
  fs.set_rate(1, 1.0);  // no-op
  EXPECT_EQ(fs.generation(), g1);
  fs.set_rate(1, 2.0);
  EXPECT_GT(fs.generation(), g1);
}

/// Slowdown and per-node rates recomputed from scratch: `read`/`write` are
/// the node's demands summed the way the model must sum them.
void expect_fresh(const LustreModel& fs, NodeId node, double read, double write) {
  const double slowdown = congestion_slowdown(fs.total_demand_gbps() / fs.capacity_gbps());
  EXPECT_EQ(fs.slowdown(), slowdown);
  EXPECT_EQ(fs.node_read_gbps(node), read / slowdown);
  EXPECT_EQ(fs.node_write_gbps(node), write / slowdown);
}

TEST(Lustre, EveryMutationRefreshesSlowdownAndNodeRates) {
  LustreModel fs(10.0);
  expect_fresh(fs, 1, 0.0, 0.0);
  fs.add_client(1, {0, 1}, 3.0, 0.25);
  expect_fresh(fs, 1, 0.75, 2.25);
  fs.add_client(2, {1, 2}, 4.0, 0.5);  // oversubscribed: 14 GB/s on 10
  expect_fresh(fs, 1, 0.75 + 2.0, 2.25 + 2.0);
  fs.set_rate(1, 1.0);
  expect_fresh(fs, 1, 0.25 + 2.0, 0.75 + 2.0);
  fs.set_ambient_demand(5.0);
  expect_fresh(fs, 1, 0.25 + 2.0, 0.75 + 2.0);
  fs.remove_client(2);
  expect_fresh(fs, 1, 0.25, 0.75);
  fs.set_ambient_demand(0.0);
  expect_fresh(fs, 1, 0.25, 0.75);
  fs.remove_client(1);
  expect_fresh(fs, 1, 0.0, 0.0);
}

TEST(Lustre, NodeInNoClientReadsPositiveZero) {
  LustreModel fs(10.0);
  fs.add_client(1, {2, 4}, 30.0);  // contended: slowdown > 1
  fs.add_client(2, {6}, 1.0);
  ASSERT_GT(fs.slowdown(), 1.0);
  for (const NodeId node : {-1, 0, 3, 5, 7, 100000}) {
    EXPECT_EQ(fs.node_read_gbps(node), 0.0) << node;
    EXPECT_EQ(fs.node_write_gbps(node), 0.0) << node;
    EXPECT_FALSE(std::signbit(fs.node_read_gbps(node))) << node;
    EXPECT_FALSE(std::signbit(fs.node_write_gbps(node))) << node;
  }
  fs.remove_client(2);  // node 6 leaves every client
  EXPECT_EQ(fs.node_read_gbps(6), 0.0);
  EXPECT_FALSE(std::signbit(fs.node_write_gbps(6)));
}

TEST(Lustre, NodeInSeveralClientsSumsInClientIdOrder) {
  LustreModel fs(1000.0);
  // Added against id order; 0.15 + 0.1 + 0.05 != 0.05 + 0.1 + 0.15.
  fs.add_client(30, {5, 9}, 0.3, 0.5);
  fs.add_client(20, {5}, 0.2, 0.5);
  fs.add_client(10, {1, 5}, 0.1, 0.5);
  const double slowdown = fs.slowdown();
  const double by_id = ((0.0 + 0.1 * 0.5) + 0.2 * 0.5) + 0.3 * 0.5;
  const double by_insertion = ((0.0 + 0.3 * 0.5) + 0.2 * 0.5) + 0.1 * 0.5;
  ASSERT_NE(by_id / slowdown, by_insertion / slowdown);
  EXPECT_EQ(fs.node_read_gbps(5), by_id / slowdown);
  EXPECT_EQ(fs.node_write_gbps(5), by_id / slowdown);
  EXPECT_EQ(fs.node_read_gbps(9), 0.3 * 0.5 / slowdown);
}

TEST(Lustre, PreconditionViolations) {
  EXPECT_THROW(LustreModel(0.0), PreconditionError);
  LustreModel fs(10.0);
  EXPECT_THROW(fs.add_client(1, {}, 1.0), PreconditionError);
  EXPECT_THROW(fs.add_client(1, {0}, -1.0), PreconditionError);
  EXPECT_THROW(fs.add_client(1, {0}, 1.0, 1.5), PreconditionError);
  EXPECT_THROW(fs.add_client(1, {3, -1}, 1.0), PreconditionError);
  fs.add_client(1, {0}, 1.0);
  EXPECT_THROW(fs.add_client(1, {1}, 1.0), PreconditionError);
  EXPECT_THROW(fs.set_rate(9, 1.0), PreconditionError);
  EXPECT_THROW(fs.remove_client(9), PreconditionError);
  EXPECT_THROW(fs.set_ambient_demand(-1.0), PreconditionError);
}

}  // namespace
}  // namespace rush::cluster
