#include "ml/adaboost.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace rush::ml {
namespace {

Dataset xor_data(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Dataset d(2);
  for (std::size_t i = 0; i < n; ++i) {
    const double x0 = rng.uniform(-1.0, 1.0);
    const double x1 = rng.uniform(-1.0, 1.0);
    d.add_row(std::vector<double>{x0, x1}, (x0 > 0) != (x1 > 0) ? 1 : 0);
  }
  return d;
}

Dataset three_bands(std::size_t n, std::uint64_t seed, double flip = 0.0) {
  Rng rng(seed);
  Dataset d(2);
  for (std::size_t i = 0; i < n; ++i) {
    const double x = rng.uniform(0.0, 3.0);
    int label = static_cast<int>(x);
    if (flip > 0.0 && rng.bernoulli(flip)) label = (label + 1) % 3;
    d.add_row(std::vector<double>{x, rng.uniform(0, 1)}, label);
  }
  return d;
}

double accuracy_on(const Classifier& model, const Dataset& d) {
  std::size_t correct = 0;
  for (std::size_t i = 0; i < d.rows(); ++i)
    if (model.predict(d.row(i)) == d.label(i)) ++correct;
  return static_cast<double>(correct) / static_cast<double>(d.rows());
}

/// Diagonal boundary: a single axis-aligned shallow tree approximates it
/// coarsely; boosting staircases toward it.
Dataset diagonal_data(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Dataset d(2);
  for (std::size_t i = 0; i < n; ++i) {
    const double x0 = rng.uniform(-1.0, 1.0);
    const double x1 = rng.uniform(-1.0, 1.0);
    d.add_row(std::vector<double>{x0, x1}, x0 + 2.0 * x1 > 0.0 ? 1 : 0);
  }
  return d;
}

TEST(AdaBoost, BoostingBeatsASingleShallowTree) {
  const Dataset train = diagonal_data(500, 1);
  const Dataset test = diagonal_data(250, 2);
  AdaBoostConfig cfg;
  cfg.num_rounds = 40;
  cfg.base_max_depth = 1;
  AdaBoost boosted(cfg);
  boosted.fit(train);
  DecisionTree shallow(TreeConfig{.max_depth = 1});
  shallow.fit(train);
  EXPECT_GT(accuracy_on(boosted, test), accuracy_on(shallow, test) + 0.03);
  EXPECT_GT(accuracy_on(boosted, test), 0.9);
}

TEST(AdaBoost, MultiClassSamme) {
  const Dataset train = three_bands(600, 3, 0.05);
  const Dataset test = three_bands(300, 4, 0.0);
  AdaBoost model;
  model.fit(train);
  EXPECT_EQ(model.num_classes(), 3);
  EXPECT_GT(accuracy_on(model, test), 0.9);
}

TEST(AdaBoost, StopsEarlyOnPerfectStage) {
  // Trivially separable: the first stage is perfect, boosting stops.
  Rng rng(5);
  Dataset d(1);
  for (int i = 0; i < 100; ++i) {
    const double x = rng.uniform(0.0, 2.0);
    d.add_row(std::vector<double>{x}, x > 1.0 ? 1 : 0);
  }
  AdaBoost model;
  model.fit(d);
  EXPECT_EQ(model.stage_count(), 1u);
  EXPECT_DOUBLE_EQ(accuracy_on(model, d), 1.0);
}

TEST(AdaBoost, SingleClassDataFallsBackGracefully) {
  Dataset d(1);
  for (int i = 0; i < 20; ++i) d.add_row(std::vector<double>{static_cast<double>(i)}, 0);
  AdaBoost model;
  model.fit(d);
  EXPECT_TRUE(model.is_fitted());
  EXPECT_EQ(model.predict(std::vector<double>{5.0}), 0);
}

TEST(AdaBoost, PredictProbaIsNormalized) {
  const Dataset d = xor_data(300, 7);
  AdaBoost model;
  model.fit(d);
  Rng rng(8);
  for (int i = 0; i < 30; ++i) {
    const std::vector<double> x{rng.uniform(-1, 1), rng.uniform(-1, 1)};
    std::vector<double> p(static_cast<std::size_t>(model.num_classes()));
    model.predict_proba_into(x, p);
    double total = 0.0;
    for (double v : p) total += v;
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
}

TEST(AdaBoost, InitialSampleWeightsBiasTheModel) {
  // Conflicting labels at the same point; external weights break the tie.
  Dataset d(1);
  for (int i = 0; i < 10; ++i) d.add_row(std::vector<double>{1.0}, 0);
  for (int i = 0; i < 10; ++i) d.add_row(std::vector<double>{1.0}, 1);
  std::vector<double> weights(20, 1.0);
  for (std::size_t i = 10; i < 20; ++i) weights[i] = 30.0;
  AdaBoost model;
  model.fit(d, weights);
  EXPECT_EQ(model.predict(std::vector<double>{1.0}), 1);
}

TEST(AdaBoost, ImportancesAreAlphaWeightedAndNormalized) {
  const Dataset d = xor_data(300, 9);
  AdaBoost model;
  model.fit(d);
  const auto imp = model.feature_importances();
  ASSERT_EQ(imp.size(), 2u);
  double total = 0.0;
  for (double v : imp) total += v;
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(AdaBoost, DeterministicGivenSeed) {
  const Dataset d = xor_data(300, 10);
  AdaBoost a, b;
  a.fit(d);
  b.fit(d);
  for (std::size_t i = 0; i < 50; ++i) EXPECT_EQ(a.predict(d.row(i)), b.predict(d.row(i)));
}

TEST(AdaBoost, SerializationRoundTripPreservesPredictions) {
  const Dataset d = three_bands(400, 11, 0.05);
  AdaBoostConfig cfg;
  cfg.num_rounds = 20;
  AdaBoost model(cfg);
  model.fit(d);
  std::stringstream ss;
  model.save_body(ss);
  AdaBoost loaded;
  loaded.load_body(ss);
  EXPECT_EQ(loaded.stage_count(), model.stage_count());
  EXPECT_EQ(loaded.num_classes(), model.num_classes());
  for (std::size_t i = 0; i < 100; ++i)
    EXPECT_EQ(loaded.predict(d.row(i)), model.predict(d.row(i)));
}

TEST(AdaBoost, LoadRejectsGarbage) {
  AdaBoost model;
  std::stringstream bad("classes 1\n");
  EXPECT_THROW(model.load_body(bad), ParseError);
}

TEST(AdaBoost, PreconditionViolations) {
  AdaBoost model;
  EXPECT_THROW((void)model.predict(std::vector<double>{1.0}), PreconditionError);
  AdaBoostConfig bad;
  bad.num_rounds = 0;
  EXPECT_THROW(AdaBoost{bad}, PreconditionError);
}

}  // namespace
}  // namespace rush::ml
