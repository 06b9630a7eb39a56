#include "common/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

namespace rush {
namespace {

TEST(Rng, SameSeedSameStream) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDifferentStreams) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a.next() == b.next()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, ZeroSeedIsUsable) {
  Rng r(0);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 100; ++i) seen.insert(r.next());
  EXPECT_GT(seen.size(), 95u);
}

TEST(Rng, UniformInUnitInterval) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = r.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformMeanIsCentered) {
  Rng r(11);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += r.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformIntCoversFullRangeInclusive) {
  Rng r(13);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const auto v = r.uniform_int(3, 8);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 8);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 6u);
}

TEST(Rng, UniformIntDegenerateRange) {
  Rng r(13);
  EXPECT_EQ(r.uniform_int(5, 5), 5);
}

TEST(Rng, NormalMomentsMatch) {
  Rng r(17);
  const int n = 200000;
  double sum = 0.0, sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = r.normal();
    sum += x;
    sum_sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.03);
}

TEST(Rng, NormalShiftScale) {
  Rng r(19);
  const int n = 100000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += r.normal(10.0, 2.0);
  EXPECT_NEAR(sum / n, 10.0, 0.05);
}

TEST(Rng, ExponentialMeanMatchesRate) {
  Rng r(23);
  const int n = 100000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = r.exponential(0.5);
    EXPECT_GE(x, 0.0);
    sum += x;
  }
  EXPECT_NEAR(sum / n, 2.0, 0.05);
}

TEST(Rng, LognormalIsPositive) {
  Rng r(29);
  for (int i = 0; i < 10000; ++i) EXPECT_GT(r.lognormal(0.0, 0.5), 0.0);
}

TEST(Rng, BernoulliFrequency) {
  Rng r(31);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i)
    if (r.bernoulli(0.3)) ++hits;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, BernoulliExtremes) {
  Rng r(37);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(r.bernoulli(0.0));
    EXPECT_TRUE(r.bernoulli(1.0));
  }
}

TEST(Rng, PoissonSmallMean) {
  Rng r(41);
  const int n = 100000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(r.poisson(3.0));
  EXPECT_NEAR(sum / n, 3.0, 0.05);
}

TEST(Rng, PoissonLargeMeanUsesNormalApprox) {
  Rng r(43);
  const int n = 50000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(r.poisson(100.0));
  EXPECT_NEAR(sum / n, 100.0, 0.5);
}

TEST(Rng, PoissonZeroMean) {
  Rng r(47);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(r.poisson(0.0), 0u);
}

TEST(Rng, SplitStreamsAreIndependent) {
  Rng parent(55);
  Rng a = parent.split(1);
  Rng b = parent.split(2);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a.next() == b.next()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, SplitIsDeterministic) {
  Rng p1(99);
  Rng p2(99);
  Rng a = p1.split(42);
  Rng b = p2.split(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, ShuffleIsAPermutation) {
  Rng r(61);
  std::vector<int> v(100);
  for (int i = 0; i < 100; ++i) v[static_cast<std::size_t>(i)] = i;
  auto shuffled = v;
  r.shuffle(shuffled);
  EXPECT_NE(shuffled, v);  // astronomically unlikely to be identity
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

TEST(Rng, ShuffleHandlesSmallInputs) {
  Rng r(67);
  std::vector<int> empty;
  r.shuffle(empty);
  EXPECT_TRUE(empty.empty());
  std::vector<int> one{42};
  r.shuffle(one);
  EXPECT_EQ(one, std::vector<int>{42});
}

TEST(Rng, SampleIndicesDistinctAndInRange) {
  // One buffer reused across draws; its prior contents and size must not
  // leak into the result.
  Rng r(71);
  std::vector<std::size_t> idx(30, 99);
  for (int trial = 0; trial < 50; ++trial) {
    r.sample_indices(20, 7, idx);
    ASSERT_EQ(idx.size(), 7u);
    std::set<std::size_t> unique(idx.begin(), idx.end());
    EXPECT_EQ(unique.size(), 7u);
    for (std::size_t i : idx) EXPECT_LT(i, 20u);
  }
}

TEST(Rng, SampleIndicesClampsOversizedRequest) {
  Rng r(73);
  std::vector<std::size_t> idx;
  r.sample_indices(5, 10, idx);
  EXPECT_EQ(idx.size(), 5u);
}

// Each possible value of a small uniform_int should appear with roughly
// equal frequency (chi-square-ish sanity sweep over several ranges).
class RngUniformityTest : public ::testing::TestWithParam<int> {};

TEST_P(RngUniformityTest, UniformIntIsBalanced) {
  const int k = GetParam();
  Rng r(1000 + static_cast<std::uint64_t>(k));
  std::vector<int> counts(static_cast<std::size_t>(k), 0);
  const int n = 20000 * k;
  for (int i = 0; i < n; ++i)
    ++counts[static_cast<std::size_t>(r.uniform_int(0, k - 1))];
  const double expected = static_cast<double>(n) / k;
  for (int c : counts) EXPECT_NEAR(c, expected, 0.05 * expected);
}

INSTANTIATE_TEST_SUITE_P(Ranges, RngUniformityTest, ::testing::Values(2, 3, 5, 7, 16));

}  // namespace
}  // namespace rush
