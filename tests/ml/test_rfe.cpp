#include "ml/rfe.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "ml/forest.hpp"
#include "ml/knn.hpp"
#include "ml/tree.hpp"

namespace rush::ml {
namespace {

/// Two informative features among many pure-noise columns.
Dataset needle_in_noise(std::size_t n, std::size_t noise_features, std::uint64_t seed) {
  Rng rng(seed);
  Dataset d(2 + noise_features);  // two signal columns, then the noise
  std::vector<double> row(2 + noise_features);
  for (std::size_t i = 0; i < n; ++i) {
    const double s0 = rng.uniform(-1.0, 1.0);
    const double s1 = rng.uniform(-1.0, 1.0);
    row[0] = s0;
    row[1] = s1;
    for (std::size_t f = 0; f < noise_features; ++f) row[2 + f] = rng.uniform(-1.0, 1.0);
    d.add_row(row, (s0 + s1) > 0.0 ? 1 : 0);
  }
  return d;
}

TEST(Rfe, RecoversInformativeFeaturesWithTreeImportances) {
  const Dataset d = needle_in_noise(400, 10, 1);
  Forest prototype(decision_forest_config(15));
  RfeConfig cfg;
  cfg.min_features = 2;
  cfg.cv_folds = 3;
  const RfeResult result = recursive_feature_elimination(prototype, d, cfg);
  // The two signal columns (indices 0, 1) must survive.
  EXPECT_TRUE(std::find(result.selected.begin(), result.selected.end(), 0u) !=
              result.selected.end());
  EXPECT_TRUE(std::find(result.selected.begin(), result.selected.end(), 1u) !=
              result.selected.end());
  EXPECT_GT(result.best_f1, 0.75);
}

TEST(Rfe, HistoryShrinksMonotonically) {
  const Dataset d = needle_in_noise(200, 8, 2);
  DecisionTree prototype;
  RfeConfig cfg;
  cfg.min_features = 2;
  cfg.cv_folds = 3;
  const RfeResult result = recursive_feature_elimination(prototype, d, cfg);
  ASSERT_GE(result.history.size(), 2u);
  for (std::size_t i = 1; i < result.history.size(); ++i)
    EXPECT_LT(result.history[i].num_features, result.history[i - 1].num_features);
  EXPECT_EQ(result.history.front().num_features, d.cols());
  EXPECT_EQ(result.history.back().num_features, cfg.min_features);
}

TEST(Rfe, SelectedIndicesAreSortedAndValid) {
  const Dataset d = needle_in_noise(200, 6, 3);
  DecisionTree prototype;
  RfeConfig cfg;
  cfg.min_features = 3;
  cfg.cv_folds = 3;
  const RfeResult result = recursive_feature_elimination(prototype, d, cfg);
  EXPECT_TRUE(std::is_sorted(result.selected.begin(), result.selected.end()));
  for (std::size_t f : result.selected) EXPECT_LT(f, d.cols());
  EXPECT_GE(result.selected.size(), cfg.min_features);
}

TEST(Rfe, FallsBackToCorrelationForImportanceFreeModels) {
  const Dataset d = needle_in_noise(300, 6, 4);
  Knn prototype(KnnConfig{.k = 5});
  RfeConfig cfg;
  cfg.min_features = 2;
  cfg.cv_folds = 3;
  const RfeResult result = recursive_feature_elimination(prototype, d, cfg);
  // Correlation ranking should also keep at least one signal column.
  const bool kept_signal =
      std::find(result.selected.begin(), result.selected.end(), 0u) != result.selected.end() ||
      std::find(result.selected.begin(), result.selected.end(), 1u) != result.selected.end();
  EXPECT_TRUE(kept_signal);
}

TEST(Rfe, MinFeaturesEqualToWidthIsANoOpRound) {
  const Dataset d = needle_in_noise(100, 2, 5);
  DecisionTree prototype;
  RfeConfig cfg;
  cfg.min_features = d.cols();
  cfg.cv_folds = 3;
  const RfeResult result = recursive_feature_elimination(prototype, d, cfg);
  EXPECT_EQ(result.selected.size(), d.cols());
  EXPECT_EQ(result.history.size(), 1u);
}

TEST(Rfe, RejectsBadConfig) {
  const Dataset d = needle_in_noise(50, 2, 6);
  DecisionTree prototype;
  RfeConfig bad;
  bad.step_fraction = 0.0;
  EXPECT_THROW((void)recursive_feature_elimination(prototype, d, bad), PreconditionError);
  bad = RfeConfig{};
  bad.min_features = 0;
  EXPECT_THROW((void)recursive_feature_elimination(prototype, d, bad), PreconditionError);
}

}  // namespace
}  // namespace rush::ml
