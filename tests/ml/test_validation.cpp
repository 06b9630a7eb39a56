#include "ml/validation.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/error.hpp"
#include "ml/tree.hpp"

namespace rush::ml {
namespace {

std::vector<int> imbalanced_labels(std::size_t n, double positive_rate, Rng& rng) {
  std::vector<int> labels(n);
  for (auto& y : labels) y = rng.bernoulli(positive_rate) ? 1 : 0;
  return labels;
}

TEST(StratifiedKFold, EveryRowAppearsExactlyOnce) {
  Rng rng(1);
  const auto labels = imbalanced_labels(103, 0.2, rng);
  const auto folds = stratified_kfold(labels, 5, rng);
  ASSERT_EQ(folds.size(), 5u);
  std::vector<int> seen(labels.size(), 0);
  for (const auto& fold : folds)
    for (std::size_t r : fold) ++seen[r];
  for (int count : seen) EXPECT_EQ(count, 1);
}

TEST(StratifiedKFold, PreservesClassBalancePerFold) {
  Rng rng(2);
  std::vector<int> labels(200, 0);
  for (std::size_t i = 0; i < 40; ++i) labels[i] = 1;  // 20% positive
  const auto folds = stratified_kfold(labels, 4, rng);
  for (const auto& fold : folds) {
    std::size_t positives = 0;
    for (std::size_t r : fold)
      if (labels[r] == 1) ++positives;
    EXPECT_EQ(positives, 10u);  // 40 positives over 4 folds
    EXPECT_EQ(fold.size(), 50u);
  }
}

TEST(StratifiedKFold, PerClassCountsDifferByAtMostOne) {
  Rng rng(3);
  std::vector<int> labels(17, 0);
  for (std::size_t i = 0; i < 5; ++i) labels[i] = 1;
  const auto folds = stratified_kfold(labels, 3, rng);
  std::vector<std::size_t> pos_counts;
  for (const auto& fold : folds) {
    std::size_t p = 0;
    for (std::size_t r : fold)
      if (labels[r] == 1) ++p;
    pos_counts.push_back(p);
  }
  const auto [lo, hi] = std::minmax_element(pos_counts.begin(), pos_counts.end());
  EXPECT_LE(*hi - *lo, 1u);
}

TEST(StratifiedKFold, Preconditions) {
  Rng rng(4);
  std::vector<int> labels{0, 1};
  EXPECT_THROW((void)stratified_kfold(labels, 1, rng), PreconditionError);
  EXPECT_THROW((void)stratified_kfold(labels, 3, rng), PreconditionError);
}

TEST(LeaveOneGroupOut, OneFoldPerGroupInAscendingOrder) {
  const std::vector<int> groups{2, 0, 1, 0, 2, 2};
  const auto folds = leave_one_group_out(groups);
  ASSERT_EQ(folds.size(), 3u);
  EXPECT_EQ(folds[0], (std::vector<std::size_t>{1, 3}));  // group 0
  EXPECT_EQ(folds[1], (std::vector<std::size_t>{2}));     // group 1
  EXPECT_EQ(folds[2], (std::vector<std::size_t>{0, 4, 5}));
}

TEST(LeaveOneGroupOut, RequiresTwoGroups) {
  EXPECT_THROW((void)leave_one_group_out({1, 1, 1}), PreconditionError);
  EXPECT_THROW((void)leave_one_group_out({}), PreconditionError);
}

Dataset grouped_separable(std::size_t n_per_group, int groups, std::uint64_t seed) {
  Rng rng(seed);
  Dataset d(2);
  for (int g = 0; g < groups; ++g) {
    for (std::size_t i = 0; i < n_per_group; ++i) {
      const double x0 = rng.uniform(0.0, 10.0);
      d.add_row(std::vector<double>{x0, rng.uniform(0, 1)}, x0 > 5.0 ? 1 : 0, g);
    }
  }
  return d;
}

TEST(CrossValidate, HighScoreOnLearnableProblem) {
  const Dataset d = grouped_separable(80, 4, 5);
  const auto folds = leave_one_group_out(d.groups());
  DecisionTree prototype;
  const CvResult result = cross_validate(prototype, d, folds);
  ASSERT_EQ(result.folds.size(), 4u);
  EXPECT_GT(result.mean_f1(), 0.9);
  EXPECT_GT(result.mean_accuracy(), 0.9);
  EXPECT_GT(result.mean_macro_f1(), 0.9);
  for (const auto& fold : result.folds) EXPECT_EQ(fold.test_size, 80u);
}

TEST(CrossValidate, RandomLabelsScoreNearChance) {
  Rng rng(6);
  Dataset d(1);
  for (int i = 0; i < 400; ++i)
    d.add_row(std::vector<double>{rng.uniform(0, 1)}, rng.bernoulli(0.5) ? 1 : 0, i % 4);
  const auto folds = leave_one_group_out(d.groups());
  DecisionTree prototype(TreeConfig{.max_depth = 3});
  const CvResult result = cross_validate(prototype, d, folds);
  EXPECT_LT(result.mean_f1(), 0.75);
  EXPECT_GT(result.mean_accuracy(), 0.3);
}

TEST(CrossValidate, EmptyResultAggregatesToZero) {
  CvResult empty;
  EXPECT_EQ(empty.mean_f1(), 0.0);
  EXPECT_EQ(empty.mean_accuracy(), 0.0);
}

TEST(CrossValidate, RejectsOutOfRangeFoldIndices) {
  const Dataset d = grouped_separable(10, 2, 7);
  DecisionTree prototype;
  const std::vector<std::vector<std::size_t>> bad_folds{{999}};
  EXPECT_THROW((void)cross_validate(prototype, d, bad_folds), PreconditionError);
}

}  // namespace
}  // namespace rush::ml
