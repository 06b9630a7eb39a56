#include "telemetry/features.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>

#include "common/error.hpp"
#include "telemetry/schema.hpp"

namespace rush::telemetry {
namespace {

TEST(Features, CountMatchesPaper) {
  EXPECT_EQ(FeatureAssembler::kNumFeatures, 282u);
  EXPECT_EQ(FeatureAssembler::kCounterFeatures, 270u);
  EXPECT_EQ(FeatureAssembler::feature_names().size(), 282u);
}

TEST(Features, NamesAreUnique) {
  const auto names = FeatureAssembler::feature_names();
  const std::set<std::string> unique(names.begin(), names.end());
  EXPECT_EQ(unique.size(), names.size());
}

TEST(Features, NamesAreCached) {
  // feature_names() memoizes behind a function-local static: every call
  // must hand back the same vector instance.
  const auto* first = &FeatureAssembler::feature_names();
  const auto* second = &FeatureAssembler::feature_names();
  EXPECT_EQ(first, second);
}

TEST(Features, NamesFollowLayout) {
  const auto names = FeatureAssembler::feature_names();
  EXPECT_EQ(names[0], "min_sysclassib.port_xmit_data");
  EXPECT_EQ(names[1], "max_sysclassib.port_xmit_data");
  EXPECT_EQ(names[2], "mean_sysclassib.port_xmit_data");
  EXPECT_EQ(names[270], "canary_send_min");
  EXPECT_EQ(names[278], "canary_allreduce_mean");
  EXPECT_EQ(names[279], "class_compute");
  EXPECT_EQ(names[280], "class_network");
  EXPECT_EQ(names[281], "class_io");
}

class FeatureAssemblyTest : public ::testing::Test {
 protected:
  FeatureAssemblyTest() : store_({0, 1, 2, 3}, num_counters(), 10), assembler_(store_, 300.0) {
    // Two frames with node 0 hotter than the rest on every counter.
    std::vector<float> values(4 * num_counters(), 1.0F);
    for (std::size_t c = 0; c < num_counters(); ++c) values[c] = 5.0F;
    store_.add_frame(100.0, values);
    store_.add_frame(130.0, values);
    canary_.send_wait_s = {0.1, 0.2};
    canary_.recv_wait_s = {0.3, 0.4};
    canary_.allreduce_wait_s = {0.5, 0.6};
  }
  CounterStore store_;
  FeatureAssembler assembler_;
  CanaryResult canary_;
};

TEST_F(FeatureAssemblyTest, VectorHasExpectedSections) {
  const auto v = assembler_.assemble(150.0, AggregationScope::AllNodes, {0, 1}, canary_,
                                     WorkloadClass::Network);
  ASSERT_EQ(v.size(), FeatureAssembler::kNumFeatures);
  // Counter 0 over all nodes: min 1, max 5, mean 2.
  EXPECT_DOUBLE_EQ(v[0], 1.0);
  EXPECT_DOUBLE_EQ(v[1], 5.0);
  EXPECT_DOUBLE_EQ(v[2], 2.0);
  // Canary block.
  EXPECT_DOUBLE_EQ(v[270], 0.1);
  EXPECT_DOUBLE_EQ(v[271], 0.2);
  // One-hot workload class.
  EXPECT_DOUBLE_EQ(v[279], 0.0);
  EXPECT_DOUBLE_EQ(v[280], 1.0);
  EXPECT_DOUBLE_EQ(v[281], 0.0);
}

TEST_F(FeatureAssemblyTest, JobScopeRestrictsToJobNodes) {
  // Job nodes {1, 2} exclude the hot node 0: max should be 1, not 5.
  const auto v = assembler_.assemble(150.0, AggregationScope::JobNodes, {1, 2}, canary_,
                                     WorkloadClass::Compute);
  EXPECT_DOUBLE_EQ(v[1], 1.0);
  // While all-node scope still sees the hot node.
  const auto all = assembler_.assemble(150.0, AggregationScope::AllNodes, {1, 2}, canary_,
                                       WorkloadClass::Compute);
  EXPECT_DOUBLE_EQ(all[1], 5.0);
}

TEST_F(FeatureAssemblyTest, AssembleIntoMatchesAssemble) {
  std::vector<double> out(FeatureAssembler::kNumFeatures);
  std::vector<Agg> scratch(store_.num_counters());
  for (auto scope : {AggregationScope::AllNodes, AggregationScope::JobNodes}) {
    const auto reference =
        assembler_.assemble(150.0, scope, {1, 2}, canary_, WorkloadClass::Network);
    assembler_.assemble_into(150.0, scope, {1, 2}, canary_, WorkloadClass::Network, out,
                             scratch);
    EXPECT_EQ(reference, out);
  }
}

TEST_F(FeatureAssemblyTest, WindowExcludesOldFrames) {
  // At t=500 the frames at 100/130 fall outside the 300 s window.
  const auto v = assembler_.assemble(500.0, AggregationScope::AllNodes, {0}, canary_,
                                     WorkloadClass::Io);
  EXPECT_DOUBLE_EQ(v[0], 0.0);
  EXPECT_DOUBLE_EQ(v[1], 0.0);
  // Class one-hot is still present.
  EXPECT_DOUBLE_EQ(v[281], 1.0);
}

TEST(Features, WorkloadClassNames) {
  EXPECT_STREQ(workload_class_name(WorkloadClass::Compute), "compute");
  EXPECT_STREQ(workload_class_name(WorkloadClass::Network), "network");
  EXPECT_STREQ(workload_class_name(WorkloadClass::Io), "io");
}

TEST(Features, RejectsBadWindow) {
  CounterStore store({0}, num_counters(), 4);
  EXPECT_THROW(FeatureAssembler(store, 0.0), PreconditionError);
}

TEST(Features, StalenessOnEmptyStoreIsInfinite) {
  CounterStore store({0}, num_counters(), 4);
  const FeatureAssembler assembler(store, 300.0);
  const StalenessReport report = assembler.staleness(1000.0);
  EXPECT_TRUE(std::isinf(report.newest_frame_age_s));
  EXPECT_EQ(report.frames_in_window, 0u);
  EXPECT_EQ(report.corrupt_frames_in_window, 0u);
}

TEST(Features, StalenessTracksFrameAgeAndWindowPopulation) {
  CounterStore store({0}, num_counters(), 8);
  const FeatureAssembler assembler(store, 300.0);
  const std::vector<float> values(num_counters(), 1.0F);
  store.add_frame(200.0, values);
  store.add_frame(400.0, values);

  // Fresh data: both frames sit inside the [130, 430] look-back window.
  StalenessReport report = assembler.staleness(430.0);
  EXPECT_DOUBLE_EQ(report.newest_frame_age_s, 30.0);
  EXPECT_EQ(report.frames_in_window, 2u);

  // A sampler dropout later: the newest frame ages out of trust range
  // and the look-back window empties.
  report = assembler.staleness(900.0);
  EXPECT_DOUBLE_EQ(report.newest_frame_age_s, 500.0);
  EXPECT_EQ(report.frames_in_window, 0u);
}

TEST(Features, StalenessSurfacesCorruptFrames) {
  CounterStore store({0}, num_counters(), 8);
  const FeatureAssembler assembler(store, 300.0);
  std::vector<float> values(num_counters(), 1.0F);
  store.add_frame(100.0, values);
  values[3] = std::numeric_limits<float>::quiet_NaN();
  store.add_frame(130.0, values);

  const StalenessReport report = assembler.staleness(200.0);
  EXPECT_EQ(report.frames_in_window, 2u);
  EXPECT_EQ(report.corrupt_frames_in_window, 1u);
}

}  // namespace
}  // namespace rush::telemetry
