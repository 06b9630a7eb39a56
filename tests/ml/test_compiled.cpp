// Differential tests for the flat compiled inference plane and the
// presorted CART trainer.
//
// Two properties are asserted at byte granularity:
//  - training with presorted feature indices reproduces the exact node
//    arrays (thresholds, links, leaf probabilities, importances) of the
//    per-node-sort reference trainer, via save_body string equality,
//    including AdaBoost rounds that share one PresortedIndex;
//  - the compiled SoA predict paths reproduce the nested predict_proba
//    reference bit for bit, including across save/load round trips.
#include "ml/compiled.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "ml/adaboost.hpp"
#include "ml/forest.hpp"
#include "ml/tree.hpp"
#include "ml/validation.hpp"

namespace rush::ml {
namespace {

/// Three-class data over `cols` continuous features.
Dataset synthetic(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::string> names;
  for (std::size_t c = 0; c < cols; ++c) names.push_back("f" + std::to_string(c));
  Dataset d(names);
  for (std::size_t i = 0; i < rows; ++i) {
    std::vector<double> x(cols);
    for (double& v : x) v = rng.uniform(0.0, 10.0);
    const int label = x[0] > 6.0 ? 2 : (x[1] > 5.0 ? 1 : 0);
    d.add_row(x, label);
  }
  return d;
}

/// Values drawn from a coarse grid so every feature carries heavy ties —
/// the case where the (value, row) tie-break order matters most.
Dataset tied(std::size_t rows, std::uint64_t seed) {
  Rng rng(seed);
  Dataset d({"f0", "f1", "f2"});
  for (std::size_t i = 0; i < rows; ++i) {
    std::vector<double> x(3);
    for (double& v : x) v = static_cast<double>(rng.uniform_int(0, 4));
    const int label = (x[0] + x[1] > 4.0) ? 1 : 0;
    d.add_row(x, label);
  }
  return d;
}

/// The pipeline's training shape in miniature: three imbalanced classes,
/// seven groups (applications), a mix of continuous and coarse-grid (heavily
/// tied) features, and label noise so boosting never reaches a perfect stage.
Dataset pipeline_like(std::size_t rows, std::uint64_t seed) {
  constexpr std::size_t kCols = 12;
  Rng rng(seed);
  std::vector<std::string> names;
  for (std::size_t c = 0; c < kCols; ++c) names.push_back("f" + std::to_string(c));
  Dataset d(names);
  for (std::size_t i = 0; i < rows; ++i) {
    std::vector<double> x(kCols);
    for (std::size_t c = 0; c < kCols; ++c)
      x[c] = c % 2 == 0 ? rng.uniform(0.0, 10.0) : static_cast<double>(rng.uniform_int(0, 3));
    int label = x[0] + x[1] > 9.0 ? 1 : (x[2] > 8.0 ? 2 : 0);
    if (rng.uniform(0.0, 1.0) < 0.15) label = static_cast<int>(rng.uniform_int(0, 2));
    d.add_row(x, label, static_cast<int>(i % 7));
  }
  return d;
}

/// Inverse-frequency class weights, as PredictorTrainer balances classes.
std::vector<double> balanced_weights(const Dataset& d) {
  const auto counts = d.class_counts();
  const auto k = static_cast<double>(counts.size());
  const auto n = static_cast<double>(d.rows());
  std::vector<double> weights(d.rows());
  for (std::size_t i = 0; i < d.rows(); ++i) {
    const auto c = static_cast<std::size_t>(d.label(i));
    weights[i] = n / (k * static_cast<double>(counts[c]));
  }
  return weights;
}

std::string body_of(const Classifier& model) {
  std::ostringstream os;
  model.save_body(os);
  return os.str();
}

bool bytes_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// Compiled fast paths must agree with the nested predict_proba reference
/// byte for byte on every row of `probe`.
void expect_compiled_matches_reference(const Classifier& model, const Dataset& probe) {
  const auto k = static_cast<std::size_t>(model.num_classes());
  std::vector<double> into(k);
  std::vector<int> many(probe.rows());
  model.predict_many(probe, many);
  for (std::size_t i = 0; i < probe.rows(); ++i) {
    const auto reference = model.predict_proba(probe.row(i));
    ASSERT_EQ(reference.size(), k);
    model.predict_proba_into(probe.row(i), into);
    EXPECT_TRUE(bytes_equal(reference, into)) << "row " << i;
    int expected = 0;
    for (std::size_t c = 1; c < k; ++c)
      if (reference[c] > reference[expected]) expected = static_cast<int>(c);
    EXPECT_EQ(model.predict(probe.row(i)), expected) << "row " << i;
    EXPECT_EQ(model.predict_into(probe.row(i), into), expected) << "row " << i;
    EXPECT_EQ(many[i], expected) << "row " << i;
  }
}

TEST(PresortedTraining, ReproducesReferenceTreeExactly) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    const Dataset d = synthetic(300, 6, seed);
    TreeConfig ref_cfg;
    ref_cfg.presort = false;
    TreeConfig fast_cfg;
    fast_cfg.presort = true;
    DecisionTree reference(ref_cfg);
    DecisionTree fast(fast_cfg);
    reference.fit(d);
    fast.fit(d);
    EXPECT_EQ(body_of(reference), body_of(fast)) << "seed " << seed;
  }
}

TEST(PresortedTraining, ReproducesReferenceUnderTies) {
  const Dataset d = tied(400, 11);
  TreeConfig ref_cfg;
  ref_cfg.presort = false;
  TreeConfig fast_cfg;
  fast_cfg.presort = true;
  DecisionTree reference(ref_cfg);
  DecisionTree fast(fast_cfg);
  reference.fit(d);
  fast.fit(d);
  EXPECT_EQ(body_of(reference), body_of(fast));
}

TEST(PresortedTraining, ReproducesReferenceWithWeightsAndLeafFloor) {
  const Dataset d = synthetic(250, 5, 7);
  Rng rng(99);
  std::vector<double> weights(d.rows());
  for (double& w : weights) w = rng.uniform(0.1, 2.0);

  TreeConfig ref_cfg;
  ref_cfg.presort = false;
  ref_cfg.min_samples_leaf = 4;
  TreeConfig fast_cfg = ref_cfg;
  fast_cfg.presort = true;
  DecisionTree reference(ref_cfg);
  DecisionTree fast(fast_cfg);
  reference.fit(d, weights);
  fast.fit(d, weights);
  EXPECT_EQ(body_of(reference), body_of(fast));
}

TEST(PresortedTraining, ReproducesReferenceWithFeatureSubsampling) {
  // max_features draws candidates from the node RNG; the presorted path
  // must consume the identical stream.
  const Dataset d = synthetic(300, 8, 13);
  TreeConfig ref_cfg;
  ref_cfg.presort = false;
  ref_cfg.max_features = 3;
  ref_cfg.seed = 21;
  TreeConfig fast_cfg = ref_cfg;
  fast_cfg.presort = true;
  DecisionTree reference(ref_cfg);
  DecisionTree fast(fast_cfg);
  reference.fit(d);
  fast.fit(d);
  EXPECT_EQ(body_of(reference), body_of(fast));
}

TEST(PresortedTraining, RandomThresholdModeIsUnaffected) {
  // Extra-trees mode never presorts; the flag must not perturb its RNG
  // stream or its trees.
  const Dataset d = synthetic(300, 6, 17);
  TreeConfig a;
  a.random_thresholds = true;
  a.presort = true;
  TreeConfig b = a;
  b.presort = false;
  DecisionTree ta(a);
  DecisionTree tb(b);
  ta.fit(d);
  tb.fit(d);
  EXPECT_EQ(body_of(ta), body_of(tb));
}

TEST(PresortedTraining, ReproducesReferenceForestAndAdaBoost) {
  const Dataset d = synthetic(300, 6, 23);

  ForestConfig f_ref = decision_forest_config(12, 5);
  f_ref.presort = false;
  ForestConfig f_fast = f_ref;
  f_fast.presort = true;
  Forest forest_ref(f_ref);
  Forest forest_fast(f_fast);
  forest_ref.fit(d);
  forest_fast.fit(d);
  EXPECT_EQ(body_of(forest_ref), body_of(forest_fast));

  AdaBoostConfig a_ref;
  a_ref.num_rounds = 15;
  a_ref.presort = false;
  AdaBoostConfig a_fast = a_ref;
  a_fast.presort = true;
  AdaBoost ada_ref(a_ref);
  AdaBoost ada_fast(a_fast);
  ada_ref.fit(d);
  ada_fast.fit(d);
  EXPECT_EQ(body_of(ada_ref), body_of(ada_fast));
}

TEST(PresortedTraining, SharedPresortAdaBoostMatchesReferenceOnPipelineShape) {
  // Every round fits from the one index AdaBoost built for the dataset,
  // under weights that drift further from the balanced start each round.
  const Dataset d = pipeline_like(190, 5);
  const auto weights = balanced_weights(d);
  AdaBoostConfig ref_cfg;
  ref_cfg.num_rounds = 48;
  ref_cfg.presort = false;
  AdaBoostConfig fast_cfg = ref_cfg;
  fast_cfg.presort = true;
  AdaBoost reference(ref_cfg);
  AdaBoost fast(fast_cfg);
  reference.fit(d, weights);
  fast.fit(d, weights);
  ASSERT_EQ(fast.stage_count(), fast_cfg.num_rounds);
  EXPECT_EQ(body_of(reference), body_of(fast));
}

TEST(PresortedTraining, SharedPresortAdaBoostMatchesReferenceWhenStoppingEarly) {
  // Labels are a step function of one tied feature, so the first stage is
  // perfect and boosting stops there.
  Rng rng(3);
  Dataset d({"f0", "f1", "f2"});
  for (std::size_t i = 0; i < 150; ++i) {
    std::vector<double> x(3);
    for (double& v : x) v = static_cast<double>(rng.uniform_int(0, 9));
    d.add_row(x, x[0] < 3.0 ? 0 : (x[0] < 7.0 ? 1 : 2));
  }
  AdaBoostConfig ref_cfg;
  ref_cfg.num_rounds = 40;
  ref_cfg.presort = false;
  AdaBoostConfig fast_cfg = ref_cfg;
  fast_cfg.presort = true;
  AdaBoost reference(ref_cfg);
  AdaBoost fast(fast_cfg);
  reference.fit(d, balanced_weights(d));
  fast.fit(d, balanced_weights(d));
  ASSERT_EQ(fast.stage_count(), 1u);
  EXPECT_EQ(body_of(reference), body_of(fast));
}

TEST(PresortedTraining, LeaveOneGroupOutScoresMatchReference) {
  const Dataset d = pipeline_like(210, 9);
  const auto folds = leave_one_group_out(d.groups());
  AdaBoostConfig ref_cfg;
  ref_cfg.num_rounds = 20;
  ref_cfg.presort = false;
  AdaBoostConfig fast_cfg = ref_cfg;
  fast_cfg.presort = true;
  const CvResult reference = cross_validate(AdaBoost(ref_cfg), d, folds);
  const CvResult fast = cross_validate(AdaBoost(fast_cfg), d, folds);
  ASSERT_EQ(fast.folds.size(), 7u);
  ASSERT_EQ(reference.folds.size(), fast.folds.size());
  for (std::size_t i = 0; i < fast.folds.size(); ++i) {
    const FoldScores& r = reference.folds[i];
    const FoldScores& f = fast.folds[i];
    EXPECT_TRUE(bytes_equal({r.f1, r.precision, r.recall, r.accuracy, r.macro_f1},
                            {f.f1, f.precision, f.recall, f.accuracy, f.macro_f1}))
        << "fold " << i;
    EXPECT_EQ(r.test_size, f.test_size) << "fold " << i;
  }
}

TEST(PresortedTraining, RejectsPresortOfAnotherShape) {
  const Dataset d = synthetic(100, 4, 1);
  const PresortedIndex fewer_rows(synthetic(99, 4, 1));
  const PresortedIndex fewer_cols(synthetic(100, 3, 1));
  DecisionTree tree;
  EXPECT_THROW(tree.fit(d, {}, fewer_rows), PreconditionError);
  EXPECT_THROW(tree.fit(d, {}, fewer_cols), PreconditionError);
  // The per-node-sort reference never takes an index.
  TreeConfig ref_cfg;
  ref_cfg.presort = false;
  DecisionTree reference(ref_cfg);
  EXPECT_THROW(reference.fit(d, {}, PresortedIndex(d)), PreconditionError);
}

TEST(CompiledPlane, TreeMatchesNestedReference) {
  const Dataset train = synthetic(300, 6, 31);
  const Dataset probe = synthetic(120, 6, 32);
  DecisionTree tree;
  tree.fit(train);
  EXPECT_EQ(tree.compiled().node_count(), tree.node_count());
  expect_compiled_matches_reference(tree, probe);
}

TEST(CompiledPlane, ForestMatchesNestedReference) {
  const Dataset train = synthetic(300, 6, 41);
  const Dataset probe = synthetic(120, 6, 42);
  Forest forest(decision_forest_config(16, 3));
  forest.fit(train);
  EXPECT_EQ(forest.compiled().tree_count(), forest.tree_count());
  expect_compiled_matches_reference(forest, probe);
}

TEST(CompiledPlane, ExtraTreesMatchesNestedReference) {
  const Dataset train = synthetic(300, 6, 43);
  const Dataset probe = synthetic(120, 6, 44);
  Forest forest(extra_trees_config(16, 3));
  forest.fit(train);
  expect_compiled_matches_reference(forest, probe);
}

TEST(CompiledPlane, AdaBoostMatchesNestedReference) {
  const Dataset train = synthetic(300, 6, 51);
  const Dataset probe = synthetic(120, 6, 52);
  AdaBoostConfig cfg;
  cfg.num_rounds = 20;
  AdaBoost ada(cfg);
  ada.fit(train);
  EXPECT_EQ(ada.compiled().tree_count(), ada.stage_count());
  expect_compiled_matches_reference(ada, probe);
}

TEST(CompiledPlane, SurvivesSaveLoadRoundTrip) {
  // load_body must recompile: the loaded model's flat plane has to match
  // its own nested reference and the original's predictions exactly.
  const Dataset train = synthetic(300, 6, 61);
  const Dataset probe = synthetic(120, 6, 62);

  Forest original(decision_forest_config(12, 9));
  original.fit(train);
  std::stringstream ss;
  original.save_body(ss);
  Forest loaded;
  loaded.load_body(ss);
  expect_compiled_matches_reference(loaded, probe);
  for (std::size_t i = 0; i < probe.rows(); ++i) {
    EXPECT_TRUE(bytes_equal(original.predict_proba(probe.row(i)),
                            loaded.predict_proba(probe.row(i))));
    EXPECT_EQ(original.predict(probe.row(i)), loaded.predict(probe.row(i)));
  }

  AdaBoostConfig cfg;
  cfg.num_rounds = 12;
  AdaBoost ada(cfg);
  ada.fit(train);
  std::stringstream ss2;
  ada.save_body(ss2);
  AdaBoost ada_loaded;
  ada_loaded.load_body(ss2);
  expect_compiled_matches_reference(ada_loaded, probe);
  for (std::size_t i = 0; i < probe.rows(); ++i)
    EXPECT_EQ(ada.predict(probe.row(i)), ada_loaded.predict(probe.row(i)));
}

}  // namespace
}  // namespace rush::ml
