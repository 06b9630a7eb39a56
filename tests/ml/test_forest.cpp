#include "ml/forest.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace rush::ml {
namespace {

/// Noisy concentric-ish data: label from a nonlinear rule + label noise.
Dataset noisy_rings(std::size_t n, std::uint64_t seed, double flip = 0.05) {
  Rng rng(seed);
  Dataset d({"x0", "x1", "junk"});
  for (std::size_t i = 0; i < n; ++i) {
    const double x0 = rng.uniform(-1.0, 1.0);
    const double x1 = rng.uniform(-1.0, 1.0);
    int label = (x0 * x0 + x1 * x1 > 0.5) ? 1 : 0;
    if (rng.bernoulli(flip)) label = 1 - label;
    d.add_row(std::vector<double>{x0, x1, rng.uniform(-1, 1)}, label);
  }
  return d;
}

double accuracy_on(const Classifier& model, const Dataset& d) {
  std::size_t correct = 0;
  for (std::size_t i = 0; i < d.rows(); ++i)
    if (model.predict(d.row(i)) == d.label(i)) ++correct;
  return static_cast<double>(correct) / static_cast<double>(d.rows());
}

ForestConfig small(std::size_t trees, bool extra) {
  ForestConfig cfg = extra ? extra_trees_config(trees) : decision_forest_config(trees);
  cfg.max_depth = 10;
  return cfg;
}

TEST(Forest, GeneralizesOnHeldOutData) {
  const Dataset train = noisy_rings(600, 1);
  const Dataset test = noisy_rings(300, 2);
  Forest forest(small(30, false));
  forest.fit(train);
  EXPECT_GT(accuracy_on(forest, test), 0.85);
}

TEST(Forest, ExtraTreesGeneralizeToo) {
  const Dataset train = noisy_rings(600, 3);
  const Dataset test = noisy_rings(300, 4);
  Forest extra(small(30, true));
  extra.fit(train);
  EXPECT_GT(accuracy_on(extra, test), 0.85);
}

TEST(Forest, TypeNameReflectsFlavor) {
  EXPECT_EQ(Forest(decision_forest_config()).type_name(), "decision_forest");
  EXPECT_EQ(Forest(extra_trees_config()).type_name(), "extra_trees");
}

TEST(Forest, TreeCountMatchesConfig) {
  const Dataset d = noisy_rings(200, 5);
  Forest forest(small(17, false));
  forest.fit(d);
  EXPECT_EQ(forest.tree_count(), 17u);
}

TEST(Forest, ProbaIsAveragedAndNormalized) {
  const Dataset d = noisy_rings(300, 6);
  Forest forest(small(20, false));
  forest.fit(d);
  Rng rng(7);
  for (int i = 0; i < 30; ++i) {
    const std::vector<double> x{rng.uniform(-1, 1), rng.uniform(-1, 1), 0.0};
    std::vector<double> p(static_cast<std::size_t>(forest.num_classes()));
    forest.predict_proba_into(x, p);
    double total = 0.0;
    for (double v : p) {
      EXPECT_GE(v, 0.0);
      total += v;
    }
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
}

TEST(Forest, DeterministicGivenSeed) {
  const Dataset d = noisy_rings(300, 8);
  Forest a(small(10, false)), b(small(10, false));
  a.fit(d);
  b.fit(d);
  Rng rng(9);
  for (int i = 0; i < 40; ++i) {
    const std::vector<double> x{rng.uniform(-1, 1), rng.uniform(-1, 1), 0.0};
    EXPECT_EQ(a.predict(x), b.predict(x));
  }
}

TEST(Forest, DifferentSeedsDifferentModels) {
  const Dataset d = noisy_rings(300, 10);
  ForestConfig ca = small(10, false);
  ForestConfig cb = small(10, false);
  cb.seed = ca.seed + 1;
  Forest a(ca), b(cb);
  a.fit(d);
  b.fit(d);
  Rng rng(11);
  bool any_diff = false;
  std::vector<double> pa(static_cast<std::size_t>(a.num_classes()));
  std::vector<double> pb(static_cast<std::size_t>(b.num_classes()));
  for (int i = 0; i < 200 && !any_diff; ++i) {
    const std::vector<double> x{rng.uniform(-1, 1), rng.uniform(-1, 1), 0.0};
    a.predict_proba_into(x, pa);
    b.predict_proba_into(x, pb);
    if (pa != pb) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(Forest, ImportancesFavorInformativeFeatures) {
  const Dataset d = noisy_rings(500, 12, 0.0);
  Forest forest(small(20, false));
  forest.fit(d);
  const auto imp = forest.feature_importances();
  ASSERT_EQ(imp.size(), 3u);
  EXPECT_GT(imp[0], imp[2]);  // junk feature is least important
  EXPECT_GT(imp[1], imp[2]);
  EXPECT_NEAR(imp[0] + imp[1] + imp[2], 1.0, 1e-9);
}

TEST(Forest, HonorsSampleWeights) {
  // All mass at one x but conflicting labels; weights decide the vote.
  Dataset d({"x"});
  for (int i = 0; i < 10; ++i) d.add_row(std::vector<double>{1.0}, 0);
  for (int i = 0; i < 10; ++i) d.add_row(std::vector<double>{1.0}, 1);
  std::vector<double> weights(20, 1.0);
  for (std::size_t i = 10; i < 20; ++i) weights[i] = 25.0;
  Forest forest(small(15, false));
  forest.fit(d, weights);
  EXPECT_EQ(forest.predict(std::vector<double>{1.0}), 1);
}

TEST(Forest, SerializationRoundTripPreservesPredictions) {
  const Dataset d = noisy_rings(300, 13);
  Forest forest(small(8, true));
  forest.fit(d);
  std::stringstream ss;
  forest.save_body(ss);
  Forest loaded;
  loaded.load_body(ss);
  EXPECT_EQ(loaded.tree_count(), forest.tree_count());
  EXPECT_EQ(loaded.type_name(), "extra_trees");
  for (std::size_t i = 0; i < 50; ++i)
    EXPECT_EQ(loaded.predict(d.row(i)), forest.predict(d.row(i)));
}

TEST(Forest, CloneConfigProducesUnfittedTwin) {
  Forest forest(small(5, false));
  const auto clone = forest.clone_config();
  EXPECT_FALSE(clone->is_fitted());
  EXPECT_EQ(clone->type_name(), forest.type_name());
}

TEST(Forest, PreconditionViolations) {
  Forest forest;
  EXPECT_THROW((void)forest.predict(std::vector<double>{1.0}), PreconditionError);
  ForestConfig bad;
  bad.num_trees = 0;
  EXPECT_THROW(Forest{bad}, PreconditionError);
}

}  // namespace
}  // namespace rush::ml
