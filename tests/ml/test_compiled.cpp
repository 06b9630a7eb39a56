// Golden digests for the presorted CART trainer and the flat compiled
// inference plane.
//
// Two properties are pinned at byte granularity:
//  - each fit below produces the save_body text whose digest is recorded
//    in its row, including AdaBoost rounds that share one PresortedIndex;
//  - predict_proba_into writes the recorded bytes over each probe set,
//    and predict returns the argmax of those bytes, including after a
//    save/load round trip.
// The digests were recorded from runs in which the production paths and
// the per-node-sort trainer and nested predict walks they replaced agreed
// byte for byte. A mismatch prints the observed digest; see
// tests/golden.hpp for how a deliberate change updates it.
#include "ml/compiled.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <iterator>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "golden.hpp"
#include "ml/adaboost.hpp"
#include "ml/forest.hpp"
#include "ml/tree.hpp"
#include "ml/validation.hpp"
#include "tree_depth.hpp"

namespace rush::ml {
namespace {

/// Three-class data over `cols` continuous features.
Dataset synthetic(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  Rng rng(seed);
  Dataset d(cols);
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
  Dataset d(3);
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
  Dataset d(kCols);
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

/// The round's own training shape in miniature: three imbalanced classes,
/// every sixth column constant (idle counters), the other columns a mix of
/// continuous values and 20-value grids (a corpus feature holds about 21
/// distinct values), and label noise so boosting never stops early.
Dataset counters_like(std::size_t rows, std::uint64_t seed) {
  constexpr std::size_t kCols = 24;
  Rng rng(seed);
  Dataset d(kCols);
  for (std::size_t i = 0; i < rows; ++i) {
    std::vector<double> x(kCols);
    for (std::size_t c = 0; c < kCols; ++c) {
      if (c % 6 == 5) {
        x[c] = static_cast<double>(c);
      } else if (c % 3 == 0) {
        x[c] = rng.uniform(0.0, 10.0);
      } else {
        x[c] = 0.5 * static_cast<double>(rng.uniform_int(0, 19));
      }
    }
    int label = x[0] + x[1] > 12.0 ? 1 : (x[2] > 7.0 ? 2 : 0);
    if (rng.uniform(0.0, 1.0) < 0.15) label = static_cast<int>(rng.uniform_int(0, 2));
    d.add_row(x, label, static_cast<int>(i % 7));
  }
  return d;
}

/// Five classes over four 10-value grids, so a fit runs the split scan for
/// a class count known only at run time.
Dataset five_classes(std::size_t rows, std::uint64_t seed) {
  Rng rng(seed);
  Dataset d(4);
  for (std::size_t i = 0; i < rows; ++i) {
    std::vector<double> x(4);
    for (double& v : x) v = static_cast<double>(rng.uniform_int(0, 9));
    int label = static_cast<int>(x[0] + x[1]) / 4;
    if (rng.uniform(0.0, 1.0) < 0.1) label = static_cast<int>(rng.uniform_int(0, 4));
    d.add_row(x, label);
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

/// One golden row: a fit's save_body text, a probe set's score bytes, or
/// the cross-validation fold scores.
struct Golden {
  const char* name;
  std::uint64_t digest;
};

constexpr Golden kGolden[] = {
    {"tree seed 1", 0x183a8cae8670e33fULL},
    {"tree seed 2", 0x9ed33f8825f0d1a4ULL},
    {"tree seed 3", 0xa64dac449652e858ULL},
    {"tree under ties", 0x5ba5cba34de392c8ULL},
    {"tree with weights and leaf floor", 0x7160765ced4b32a6ULL},
    {"tree with max_features 3", 0x34d45ec1354b8bddULL},
    {"extra tree", 0x098f556bc28a937cULL},
    {"forest", 0x4f393ad28ad7df8cULL},
    {"adaboost 15 rounds", 0xad7b46706125b2a5ULL},
    {"adaboost 48 rounds on the pipeline shape", 0x298dbfa1506412b5ULL},
    {"adaboost stopping early", 0x8cf0732dc19ea36fULL},
    {"leave-one-group-out fold scores", 0xb0cf94e0282a7e2eULL},
    {"adaboost 80 rounds on constant columns and 20-value grids", 0xb9fd1fb9567dc963ULL},
    {"tree at max_depth 1", 0x50a379c9d6b2e0afULL},
    {"tree at max_depth 2", 0x28cc91c66206a742ULL},
    {"tree at max_depth 3", 0x88ea603acd3bb8ceULL},
    {"tree over five classes", 0xc18ea0a93490788dULL},
    {"tree with zero-weight rows", 0xdfee2843c38b0b0eULL},
    {"forest drawing constant columns", 0x4bf530d0d65c3b70ULL},
    {"extra trees on constant columns", 0x9b269111510f9419ULL},
    {"tree predict", 0x758af1e45ea305e5ULL},
    {"forest predict", 0x83832a65111d079bULL},
    {"extra trees predict", 0xb594f4a6cf6673a8ULL},
    {"adaboost predict", 0x0860d1a9107d6725ULL},
};

void expect_golden(std::string_view name, std::string_view bytes) {
  const auto row = std::find_if(std::begin(kGolden), std::end(kGolden),
                                [&](const Golden& g) { return name == g.name; });
  ASSERT_NE(row, std::end(kGolden)) << name;
  EXPECT_EQ(golden::hex(golden::fnv1a(bytes)), golden::hex(row->digest)) << name;
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

/// Every probe row's predict_proba_into bytes, back to back. predict must
/// return the argmax of them.
std::vector<double> scores_over(const Classifier& model, const Dataset& probe) {
  const auto k = static_cast<std::size_t>(model.num_classes());
  std::vector<double> scores(probe.rows() * k);
  for (std::size_t i = 0; i < probe.rows(); ++i) {
    const std::span<double> row(scores.data() + i * k, k);
    model.predict_proba_into(probe.row(i), row);
    EXPECT_EQ(model.predict(probe.row(i)), argmax_first(row)) << "row " << i;
  }
  return scores;
}

TEST(PresortedTraining, ReproducesReferenceTreeExactly) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    DecisionTree tree;
    tree.fit(synthetic(300, 6, seed));
    expect_golden("tree seed " + std::to_string(seed), body_of(tree));
  }
}

TEST(PresortedTraining, ReproducesReferenceUnderTies) {
  DecisionTree tree;
  tree.fit(tied(400, 11));
  expect_golden("tree under ties", body_of(tree));
}

TEST(PresortedTraining, ReproducesReferenceWithWeightsAndLeafFloor) {
  const Dataset d = synthetic(250, 5, 7);
  Rng rng(99);
  std::vector<double> weights(d.rows());
  for (double& w : weights) w = rng.uniform(0.1, 2.0);
  TreeConfig cfg;
  cfg.min_samples_leaf = 4;
  DecisionTree tree(cfg);
  tree.fit(d, weights);
  expect_golden("tree with weights and leaf floor", body_of(tree));
}

TEST(PresortedTraining, ReproducesReferenceWithFeatureSubsampling) {
  // max_features draws candidates from the node RNG, so the row also pins
  // the RNG stream the split search consumes.
  TreeConfig cfg;
  cfg.max_features = 3;
  cfg.seed = 21;
  DecisionTree tree(cfg);
  tree.fit(synthetic(300, 8, 13));
  expect_golden("tree with max_features 3", body_of(tree));
}

TEST(PresortedTraining, RandomThresholdModeIsUnaffected) {
  // Extra-trees mode never presorts; its RNG stream and trees stay the
  // recorded ones.
  TreeConfig cfg;
  cfg.random_thresholds = true;
  DecisionTree tree(cfg);
  tree.fit(synthetic(300, 6, 17));
  expect_golden("extra tree", body_of(tree));
}

TEST(PresortedTraining, ReproducesReferenceForestAndAdaBoost) {
  const Dataset d = synthetic(300, 6, 23);
  Forest forest(decision_forest_config(12, 5));
  forest.fit(d);
  expect_golden("forest", body_of(forest));

  AdaBoostConfig cfg;
  cfg.num_rounds = 15;
  AdaBoost ada(cfg);
  ada.fit(d);
  expect_golden("adaboost 15 rounds", body_of(ada));
}

TEST(PresortedTraining, SharedPresortAdaBoostMatchesReferenceOnPipelineShape) {
  // Every round fits from the one index AdaBoost built for the dataset,
  // under weights that drift further from the balanced start each round.
  const Dataset d = pipeline_like(190, 5);
  AdaBoostConfig cfg;
  cfg.num_rounds = 48;
  AdaBoost ada(cfg);
  ada.fit(d, balanced_weights(d));
  ASSERT_EQ(ada.stage_count(), cfg.num_rounds);
  expect_golden("adaboost 48 rounds on the pipeline shape", body_of(ada));
}

TEST(PresortedTraining, SharedPresortAdaBoostMatchesReferenceWhenStoppingEarly) {
  // Labels are a step function of one tied feature, so the first stage is
  // perfect and boosting stops there.
  Rng rng(3);
  Dataset d(3);
  for (std::size_t i = 0; i < 150; ++i) {
    std::vector<double> x(3);
    for (double& v : x) v = static_cast<double>(rng.uniform_int(0, 9));
    d.add_row(x, x[0] < 3.0 ? 0 : (x[0] < 7.0 ? 1 : 2));
  }
  AdaBoostConfig cfg;
  cfg.num_rounds = 40;
  AdaBoost ada(cfg);
  ada.fit(d, balanced_weights(d));
  ASSERT_EQ(ada.stage_count(), 1u);
  expect_golden("adaboost stopping early", body_of(ada));
}

TEST(PresortedTraining, LeaveOneGroupOutScoresMatchReference) {
  const Dataset d = pipeline_like(210, 9);
  AdaBoostConfig cfg;
  cfg.num_rounds = 20;
  const CvResult cv = cross_validate(AdaBoost(cfg), d, leave_one_group_out(d.groups()));
  ASSERT_EQ(cv.folds.size(), 7u);
  std::string bytes;
  for (const FoldScores& f : cv.folds) {
    const double scores[] = {f.f1, f.precision, f.recall, f.accuracy, f.macro_f1};
    bytes += golden::bytes_of(scores);
    bytes += std::to_string(f.test_size) + "\n";
  }
  expect_golden("leave-one-group-out fold scores", bytes);
}

TEST(PresortedTraining, AdaBoostOnTheRoundsShape) {
  // Default rounds and depth, balanced weights, constant columns that no
  // node can split and tie-heavy grids: the production fit.
  const Dataset d = counters_like(190, 42);
  AdaBoost ada;
  ada.fit(d, balanced_weights(d));
  ASSERT_EQ(ada.stage_count(), AdaBoostConfig{}.num_rounds);
  expect_golden("adaboost 80 rounds on constant columns and 20-value grids", body_of(ada));
}

TEST(PresortedTraining, ShallowTreesEndInLeavesAtMaxDepth) {
  // A split one level above max_depth makes two leaves.
  const Dataset d = counters_like(190, 7);
  for (int depth : {1, 2, 3}) {
    TreeConfig cfg;
    cfg.max_depth = depth;
    DecisionTree tree(cfg);
    tree.fit(d, balanced_weights(d));
    ASSERT_EQ(depth_of(tree), depth + 1);
    expect_golden("tree at max_depth " + std::to_string(depth), body_of(tree));
  }
}

TEST(PresortedTraining, FiveClassTree) {
  DecisionTree tree;
  tree.fit(five_classes(300, 5));
  ASSERT_EQ(tree.num_classes(), 5);
  expect_golden("tree over five classes", body_of(tree));
}

TEST(PresortedTraining, ZeroWeightRows) {
  // Every third row weighs nothing: it still sits in its node's range and
  // in every boundary count, but adds nothing to any class sum.
  const Dataset d = counters_like(190, 11);
  Rng rng(5);
  std::vector<double> weights(d.rows());
  for (std::size_t i = 0; i < d.rows(); ++i) weights[i] = i % 3 == 0 ? 0.0 : rng.uniform(0.1, 2.0);
  DecisionTree tree;
  tree.fit(d, weights);
  expect_golden("tree with zero-weight rows", body_of(tree));
}

TEST(PresortedTraining, EnsemblesOnConstantColumns) {
  // Three candidates per node out of 24, four of them constant: many
  // draws hit a column no node can split on.
  const Dataset d = counters_like(190, 13);
  ForestConfig forest_cfg = decision_forest_config(8, 3);
  forest_cfg.max_features = 3;
  Forest forest(forest_cfg);
  forest.fit(d);
  expect_golden("forest drawing constant columns", body_of(forest));

  Forest extra(extra_trees_config(8, 3));
  extra.fit(d);
  expect_golden("extra trees on constant columns", body_of(extra));
}

TEST(PresortedTraining, RejectsPresortOfAnotherShape) {
  const Dataset d = synthetic(100, 4, 1);
  const PresortedIndex fewer_rows(synthetic(99, 4, 1));
  const PresortedIndex fewer_cols(synthetic(100, 3, 1));
  FitWorkspace fewer_rows_ws(fewer_rows);
  FitWorkspace fewer_cols_ws(fewer_cols);
  DecisionTree tree;
  EXPECT_THROW(tree.fit(d, {}, fewer_rows_ws), PreconditionError);
  EXPECT_THROW(tree.fit(d, {}, fewer_cols_ws), PreconditionError);
  // Random-threshold trees never take an index.
  TreeConfig extra_cfg;
  extra_cfg.random_thresholds = true;
  DecisionTree extra(extra_cfg);
  const PresortedIndex own(d);
  FitWorkspace own_ws(own);
  EXPECT_THROW(extra.fit(d, {}, own_ws), PreconditionError);
}

TEST(CompiledPlane, TreeMatchesNestedReference) {
  DecisionTree tree;
  tree.fit(synthetic(300, 6, 31));
  EXPECT_EQ(tree.compiled().node_count(), tree.node_count());
  expect_golden("tree predict", golden::bytes_of(scores_over(tree, synthetic(120, 6, 32))));
}

TEST(CompiledPlane, ForestMatchesNestedReference) {
  Forest forest(decision_forest_config(16, 3));
  forest.fit(synthetic(300, 6, 41));
  EXPECT_EQ(forest.compiled().tree_count(), forest.tree_count());
  expect_golden("forest predict", golden::bytes_of(scores_over(forest, synthetic(120, 6, 42))));
}

TEST(CompiledPlane, ExtraTreesMatchesNestedReference) {
  Forest forest(extra_trees_config(16, 3));
  forest.fit(synthetic(300, 6, 43));
  expect_golden("extra trees predict",
                golden::bytes_of(scores_over(forest, synthetic(120, 6, 44))));
}

TEST(CompiledPlane, AdaBoostMatchesNestedReference) {
  AdaBoostConfig cfg;
  cfg.num_rounds = 20;
  AdaBoost ada(cfg);
  ada.fit(synthetic(300, 6, 51));
  EXPECT_EQ(ada.compiled().tree_count(), ada.stage_count());
  expect_golden("adaboost predict", golden::bytes_of(scores_over(ada, synthetic(120, 6, 52))));
}

TEST(CompiledPlane, SurvivesSaveLoadRoundTrip) {
  // load_body must recompile: the loaded model's flat plane has to write
  // the original's score bytes exactly.
  const Dataset train = synthetic(300, 6, 61);
  const Dataset probe = synthetic(120, 6, 62);

  Forest original(decision_forest_config(12, 9));
  original.fit(train);
  std::stringstream ss;
  original.save_body(ss);
  Forest loaded;
  loaded.load_body(ss);
  EXPECT_TRUE(bytes_equal(scores_over(original, probe), scores_over(loaded, probe)));

  AdaBoostConfig cfg;
  cfg.num_rounds = 12;
  AdaBoost ada(cfg);
  ada.fit(train);
  std::stringstream ss2;
  ada.save_body(ss2);
  AdaBoost ada_loaded;
  ada_loaded.load_body(ss2);
  EXPECT_TRUE(bytes_equal(scores_over(ada, probe), scores_over(ada_loaded, probe)));
}

}  // namespace
}  // namespace rush::ml
