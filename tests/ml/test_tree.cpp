#include "ml/tree.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <sstream>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace rush::ml {
namespace {

/// Linearly separable 2-D data: label = x0 > threshold.
Dataset separable(std::size_t n, double threshold, std::uint64_t seed) {
  Rng rng(seed);
  Dataset d({"x0", "x1"});
  for (std::size_t i = 0; i < n; ++i) {
    const double x0 = rng.uniform(0.0, 10.0);
    const double x1 = rng.uniform(0.0, 10.0);
    d.add_row(std::vector<double>{x0, x1}, x0 > threshold ? 1 : 0);
  }
  return d;
}

/// XOR-style data a single axis-aligned split cannot separate.
Dataset xor_data(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Dataset d({"x0", "x1"});
  for (std::size_t i = 0; i < n; ++i) {
    const double x0 = rng.uniform(-1.0, 1.0);
    const double x1 = rng.uniform(-1.0, 1.0);
    d.add_row(std::vector<double>{x0, x1}, (x0 > 0) != (x1 > 0) ? 1 : 0);
  }
  return d;
}

double accuracy_on(const Classifier& model, const Dataset& d) {
  std::size_t correct = 0;
  for (std::size_t i = 0; i < d.rows(); ++i)
    if (model.predict(d.row(i)) == d.label(i)) ++correct;
  return static_cast<double>(correct) / static_cast<double>(d.rows());
}

TEST(DecisionTree, FitsSeparableDataPerfectly) {
  const Dataset d = separable(200, 5.0, 1);
  DecisionTree tree;
  tree.fit(d);
  EXPECT_TRUE(tree.is_fitted());
  EXPECT_DOUBLE_EQ(accuracy_on(tree, d), 1.0);
}

TEST(DecisionTree, LearnsTheRightThreshold) {
  const Dataset d = separable(2000, 7.0, 2);
  DecisionTree tree;
  tree.fit(d);
  EXPECT_EQ(tree.predict(std::vector<double>{6.5, 5.0}), 0);
  EXPECT_EQ(tree.predict(std::vector<double>{7.5, 5.0}), 1);
}

TEST(DecisionTree, SolvesXorWithDepth) {
  const Dataset d = xor_data(400, 3);
  TreeConfig cfg;
  cfg.max_depth = 6;
  DecisionTree tree(cfg);
  tree.fit(d);
  EXPECT_GT(accuracy_on(tree, d), 0.95);
}

TEST(DecisionTree, DepthOneCannotSolveXor) {
  const Dataset d = xor_data(400, 3);
  TreeConfig cfg;
  cfg.max_depth = 1;
  DecisionTree stump(cfg);
  stump.fit(d);
  EXPECT_LT(accuracy_on(stump, d), 0.75);
  EXPECT_LE(stump.depth(), 2);
}

TEST(DecisionTree, RespectsMaxDepth) {
  const Dataset d = xor_data(500, 5);
  for (int depth : {1, 2, 4, 8}) {
    TreeConfig cfg;
    cfg.max_depth = depth;
    DecisionTree tree(cfg);
    tree.fit(d);
    EXPECT_LE(tree.depth(), depth + 1);
  }
}

TEST(DecisionTree, MinSamplesLeafLimitsGrowth) {
  const Dataset d = xor_data(200, 7);
  TreeConfig big_leaf;
  big_leaf.min_samples_leaf = 50;
  DecisionTree coarse(big_leaf);
  coarse.fit(d);
  DecisionTree fine;
  fine.fit(d);
  EXPECT_LT(coarse.node_count(), fine.node_count());
}

TEST(DecisionTree, PredictProbaSumsToOne) {
  const Dataset d = xor_data(300, 9);
  DecisionTree tree;
  tree.fit(d);
  Rng rng(10);
  for (int i = 0; i < 50; ++i) {
    const std::vector<double> x{rng.uniform(-1, 1), rng.uniform(-1, 1)};
    std::vector<double> p(static_cast<std::size_t>(tree.num_classes()));
    tree.predict_proba_into(x, p);
    double total = 0.0;
    for (double v : p) total += v;
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
}

TEST(DecisionTree, SampleWeightsShiftTheBoundary) {
  // Two overlapping point masses; upweighting the minority flips leaves.
  Dataset d({"x"});
  for (int i = 0; i < 10; ++i) d.add_row(std::vector<double>{1.0}, 0);
  for (int i = 0; i < 10; ++i) d.add_row(std::vector<double>{1.0}, 1);
  d.add_row(std::vector<double>{2.0}, 1);
  std::vector<double> weights(21, 1.0);
  for (std::size_t i = 10; i < 20; ++i) weights[i] = 10.0;  // favor label 1 at x=1
  DecisionTree tree;
  tree.fit(d, weights);
  EXPECT_EQ(tree.predict(std::vector<double>{1.0}), 1);
}

TEST(DecisionTree, ImportancesConcentrateOnInformativeFeature) {
  const Dataset d = separable(500, 5.0, 11);
  DecisionTree tree;
  tree.fit(d);
  const auto imp = tree.feature_importances();
  ASSERT_EQ(imp.size(), 2u);
  EXPECT_GT(imp[0], 0.9);
  EXPECT_NEAR(imp[0] + imp[1], 1.0, 1e-9);
}

TEST(DecisionTree, MulticlassLabels) {
  Rng rng(13);
  Dataset d({"x"});
  for (int i = 0; i < 300; ++i) {
    const double x = rng.uniform(0.0, 3.0);
    d.add_row(std::vector<double>{x}, static_cast<int>(x));
  }
  DecisionTree tree;
  tree.fit(d);
  EXPECT_EQ(tree.num_classes(), 3);
  EXPECT_EQ(tree.predict(std::vector<double>{0.5}), 0);
  EXPECT_EQ(tree.predict(std::vector<double>{1.5}), 1);
  EXPECT_EQ(tree.predict(std::vector<double>{2.5}), 2);
}

TEST(DecisionTree, PureNodeBecomesLeafImmediately) {
  Dataset d({"x"});
  for (int i = 0; i < 20; ++i) d.add_row(std::vector<double>{static_cast<double>(i)}, 1);
  DecisionTree tree;
  tree.fit(d);
  EXPECT_EQ(tree.node_count(), 1u);
  EXPECT_EQ(tree.predict(std::vector<double>{100.0}), 1);
}

TEST(DecisionTree, RandomThresholdModeStillSeparates) {
  const Dataset d = separable(500, 5.0, 17);
  TreeConfig cfg;
  cfg.random_thresholds = true;
  DecisionTree tree(cfg);
  tree.fit(d);
  EXPECT_GT(accuracy_on(tree, d), 0.97);
}

TEST(DecisionTree, DeterministicGivenSeed) {
  const Dataset d = xor_data(300, 19);
  TreeConfig cfg;
  cfg.max_features = 1;
  cfg.seed = 77;
  DecisionTree a(cfg), b(cfg);
  a.fit(d);
  b.fit(d);
  Rng rng(20);
  for (int i = 0; i < 50; ++i) {
    const std::vector<double> x{rng.uniform(-1, 1), rng.uniform(-1, 1)};
    EXPECT_EQ(a.predict(x), b.predict(x));
  }
}

TEST(DecisionTree, SerializationRoundTripPreservesPredictions) {
  const Dataset d = xor_data(300, 21);
  DecisionTree tree;
  tree.fit(d);
  std::stringstream ss;
  tree.save_body(ss);
  DecisionTree loaded;
  loaded.load_body(ss);
  EXPECT_EQ(loaded.num_classes(), tree.num_classes());
  EXPECT_EQ(loaded.node_count(), tree.node_count());
  for (std::size_t i = 0; i < d.rows(); ++i)
    EXPECT_EQ(loaded.predict(d.row(i)), tree.predict(d.row(i)));
}

TEST(DecisionTree, LoadRejectsGarbage) {
  DecisionTree tree;
  std::stringstream bad("classes -1\n");
  EXPECT_THROW(tree.load_body(bad), ParseError);
  std::stringstream truncated("classes 2\nfeatures 2\nnodes 1\nbogus");
  EXPECT_THROW(tree.load_body(truncated), ParseError);
}

TEST(DecisionTree, PreconditionViolations) {
  DecisionTree tree;
  EXPECT_THROW((void)tree.predict(std::vector<double>{1.0}), PreconditionError);  // unfitted
  const Dataset d = separable(50, 5.0, 23);
  tree.fit(d);
  EXPECT_THROW((void)tree.predict(std::vector<double>{1.0}), PreconditionError);  // wrong arity
  EXPECT_THROW(tree.fit(d, std::vector<double>(3, 1.0)), PreconditionError);  // weight size
  TreeConfig bad;
  bad.max_depth = 0;
  EXPECT_THROW(DecisionTree{bad}, PreconditionError);
}

// Property sweep: the tree must reach high training accuracy on separable
// data across configurations.
struct TreeParam {
  int max_depth;
  bool random_thresholds;
  // gtest names each case after the raw bytes of this struct; explicit zeroed
  // padding keeps stack garbage out of those names so they are stable.
  std::array<std::uint8_t, 3> padding{};
  std::size_t max_features;
};

class TreeConfigSweep : public ::testing::TestWithParam<TreeParam> {};

TEST_P(TreeConfigSweep, SeparatesTrainingData) {
  const auto p = GetParam();
  TreeConfig cfg;
  cfg.max_depth = p.max_depth;
  cfg.random_thresholds = p.random_thresholds;
  cfg.max_features = p.max_features;
  const Dataset d = separable(300, 4.0, 31);
  DecisionTree tree(cfg);
  tree.fit(d);
  EXPECT_GT(accuracy_on(tree, d), 0.93);
}

INSTANTIATE_TEST_SUITE_P(Configs, TreeConfigSweep,
                         ::testing::Values(TreeParam{4, false, {}, 0}, TreeParam{8, false, {}, 1},
                                           TreeParam{12, true, {}, 0}, TreeParam{8, true, {}, 2},
                                           TreeParam{16, false, {}, 2}));

}  // namespace
}  // namespace rush::ml
