#include "ml/metrics.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace rush::ml {
namespace {

TEST(ConfusionMatrix, CountsCells) {
  ConfusionMatrix cm(2);
  cm.add(0, 0);
  cm.add(0, 1);
  cm.add(1, 1);
  cm.add(1, 1);
  EXPECT_EQ(cm.count(0, 0), 1u);
  EXPECT_EQ(cm.count(0, 1), 1u);
  EXPECT_EQ(cm.count(1, 1), 2u);
  EXPECT_EQ(cm.count(1, 0), 0u);
  EXPECT_EQ(cm.total(), 4u);
}

TEST(ConfusionMatrix, FromVectors) {
  const std::vector<int> y_true{0, 0, 1, 1, 1};
  const std::vector<int> y_pred{0, 1, 1, 1, 0};
  const ConfusionMatrix cm(y_true, y_pred, 2);
  EXPECT_EQ(cm.count(1, 1), 2u);
  EXPECT_DOUBLE_EQ(cm.accuracy(), 3.0 / 5.0);
}

TEST(ConfusionMatrix, PrecisionRecallF1KnownValues) {
  // tp=8, fp=2, fn=4 -> precision 0.8, recall 2/3, F1 = 8/(8+3) = 0.7272..
  ConfusionMatrix cm(2);
  for (int i = 0; i < 8; ++i) cm.add(1, 1);
  for (int i = 0; i < 2; ++i) cm.add(0, 1);
  for (int i = 0; i < 4; ++i) cm.add(1, 0);
  for (int i = 0; i < 20; ++i) cm.add(0, 0);
  EXPECT_DOUBLE_EQ(cm.precision(1), 0.8);
  EXPECT_NEAR(cm.recall(1), 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(cm.f1(1), 8.0 / 11.0, 1e-12);  // the paper's tp/(tp+(fp+fn)/2)
}

TEST(ConfusionMatrix, F1MatchesHarmonicMeanForm) {
  ConfusionMatrix cm(2);
  for (int i = 0; i < 5; ++i) cm.add(1, 1);
  for (int i = 0; i < 3; ++i) cm.add(0, 1);
  for (int i = 0; i < 2; ++i) cm.add(1, 0);
  const double p = cm.precision(1);
  const double r = cm.recall(1);
  EXPECT_NEAR(cm.f1(1), 2.0 * p * r / (p + r), 1e-12);
}

TEST(ConfusionMatrix, DegenerateCasesAreZeroNotNan) {
  ConfusionMatrix cm(2);
  cm.add(0, 0);
  EXPECT_EQ(cm.precision(1), 0.0);
  EXPECT_EQ(cm.recall(1), 0.0);
  EXPECT_EQ(cm.f1(1), 0.0);
  EXPECT_EQ(ConfusionMatrix(2).accuracy(), 0.0);
}

TEST(ConfusionMatrix, MultiClassMacroF1) {
  ConfusionMatrix cm(3);
  // Perfect on class 0 (2 samples), perfect on class 1 (1), all class 2
  // misclassified as 0 (1 sample).
  cm.add(0, 0);
  cm.add(0, 0);
  cm.add(1, 1);
  cm.add(2, 0);
  const double f1_0 = cm.f1(0);  // tp=2, fp=1, fn=0 -> 2/2.5
  EXPECT_NEAR(f1_0, 0.8, 1e-12);
  EXPECT_DOUBLE_EQ(cm.f1(1), 1.0);
  EXPECT_DOUBLE_EQ(cm.f1(2), 0.0);
  EXPECT_NEAR(cm.macro_f1(), (0.8 + 1.0 + 0.0) / 3.0, 1e-12);
}

TEST(ConfusionMatrix, BoundsChecking) {
  ConfusionMatrix cm(2);
  EXPECT_THROW(cm.add(2, 0), PreconditionError);
  EXPECT_THROW(cm.add(0, -1), PreconditionError);
  EXPECT_THROW((void)cm.count(0, 5), PreconditionError);
  EXPECT_THROW(ConfusionMatrix(0), PreconditionError);
}

TEST(Scores, PerfectAndWorstCase) {
  const std::vector<int> y{1, 0, 1, 0};
  EXPECT_DOUBLE_EQ(ConfusionMatrix(y, y, 2).f1(1), 1.0);
  const std::vector<int> inverted{0, 1, 0, 1};
  EXPECT_DOUBLE_EQ(ConfusionMatrix(y, inverted, 2).f1(1), 0.0);
}

}  // namespace
}  // namespace rush::ml
