#include "common/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace rush {
namespace {

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.stddev(), 0.0);
  EXPECT_EQ(s.min(), 0.0);
  EXPECT_EQ(s.max(), 0.0);
}

TEST(RunningStats, SingleValue) {
  RunningStats s;
  s.add(4.5);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 4.5);
  EXPECT_DOUBLE_EQ(s.min(), 4.5);
  EXPECT_DOUBLE_EQ(s.max(), 4.5);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStats, KnownValues) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 4.0, 1e-12);  // classic population-variance example
  EXPECT_NEAR(s.stddev(), 2.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, SampleVarianceUsesBessel) {
  RunningStats s;
  for (double x : {1.0, 2.0, 3.0}) s.add(x);
  EXPECT_NEAR(s.sample_variance(), 1.0, 1e-12);
  EXPECT_NEAR(s.variance(), 2.0 / 3.0, 1e-12);
}

TEST(RunningStats, ClearResets) {
  RunningStats s;
  s.add(1.0);
  s.clear();
  EXPECT_TRUE(s.empty());
}

// Property: merging partial accumulators equals accumulating everything.
class RunningStatsMergeTest : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(RunningStatsMergeTest, MergeEqualsCombined) {
  const auto [na, nb] = GetParam();
  Rng rng(static_cast<std::uint64_t>(na * 1000 + nb));
  RunningStats a, b, combined;
  for (int i = 0; i < na; ++i) {
    const double x = rng.normal(3.0, 2.0);
    a.add(x);
    combined.add(x);
  }
  for (int i = 0; i < nb; ++i) {
    const double x = rng.normal(-1.0, 0.5);
    b.add(x);
    combined.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), combined.count());
  EXPECT_NEAR(a.mean(), combined.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), combined.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), combined.min());
  EXPECT_DOUBLE_EQ(a.max(), combined.max());
}

INSTANTIATE_TEST_SUITE_P(Sizes, RunningStatsMergeTest,
                         ::testing::Values(std::pair{0, 5}, std::pair{5, 0}, std::pair{1, 1},
                                           std::pair{10, 100}, std::pair{1000, 7}));

TEST(Stats, BatchHelpersMatchRunning) {
  Rng rng(5);
  std::vector<double> xs;
  RunningStats s;
  for (int i = 0; i < 500; ++i) {
    const double x = rng.uniform(-10, 10);
    xs.push_back(x);
    s.add(x);
  }
  EXPECT_NEAR(stats::mean(xs), s.mean(), 1e-9);
  EXPECT_NEAR(stats::variance(xs), s.variance(), 1e-9);
  EXPECT_NEAR(stats::sample_stddev(xs), s.sample_stddev(), 1e-9);
  EXPECT_DOUBLE_EQ(stats::min(xs), s.min());
  EXPECT_DOUBLE_EQ(stats::max(xs), s.max());
}

TEST(Stats, EmptySpansAreZero) {
  const std::vector<double> empty;
  EXPECT_EQ(stats::mean(empty), 0.0);
  EXPECT_EQ(stats::variance(empty), 0.0);
  EXPECT_EQ(stats::min(empty), 0.0);
  EXPECT_EQ(stats::max(empty), 0.0);
}

TEST(Stats, QuantileInterpolates) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(stats::quantile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(stats::quantile(xs, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(stats::quantile(xs, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(stats::median(xs), 2.5);
}

TEST(Stats, QuantileSingleElement) {
  const std::vector<double> xs{7.0};
  EXPECT_DOUBLE_EQ(stats::quantile(xs, 0.3), 7.0);
}

TEST(Stats, QuantileIgnoresInputOrder) {
  const std::vector<double> a{5.0, 1.0, 3.0, 2.0, 4.0};
  EXPECT_DOUBLE_EQ(stats::median(a), 3.0);
}

TEST(Stats, QuantileRejectsEmptyAndBadQ) {
  const std::vector<double> empty;
  EXPECT_THROW((void)stats::quantile(empty, 0.5), PreconditionError);
  const std::vector<double> xs{1.0};
  EXPECT_THROW((void)stats::quantile(xs, 1.5), PreconditionError);
}

TEST(Stats, ZscoreBasics) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0, 5.0};  // mean 3, sample sd ~1.581
  EXPECT_NEAR(stats::zscore(3.0, xs), 0.0, 1e-12);
  EXPECT_NEAR(stats::zscore(4.581, xs), 1.0, 1e-3);
}

TEST(Stats, ZscoreDegenerateSpreadIsZero) {
  const std::vector<double> xs{2.0, 2.0, 2.0};
  EXPECT_EQ(stats::zscore(100.0, xs), 0.0);
}

TEST(Summary, FiveNumberSummary) {
  std::vector<double> xs;
  for (int i = 1; i <= 101; ++i) xs.push_back(static_cast<double>(i));
  const Summary s = summarize(xs);
  EXPECT_EQ(s.n, 101u);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 101.0);
  EXPECT_DOUBLE_EQ(s.median, 51.0);
  EXPECT_DOUBLE_EQ(s.q1, 26.0);
  EXPECT_DOUBLE_EQ(s.q3, 76.0);
  EXPECT_DOUBLE_EQ(s.mean, 51.0);
}

TEST(Summary, EmptyInput) {
  const Summary s = summarize({});
  EXPECT_EQ(s.n, 0u);
  EXPECT_EQ(s.median, 0.0);
}

}  // namespace
}  // namespace rush
