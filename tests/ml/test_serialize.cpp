#include "ml/serialize.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "ml/adaboost.hpp"
#include "ml/forest.hpp"
#include "ml/knn.hpp"
#include "ml/tree.hpp"

namespace rush::ml {
namespace {

Dataset tiny_data(std::uint64_t seed) {
  Rng rng(seed);
  Dataset d({"x0", "x1"});
  for (int i = 0; i < 120; ++i) {
    const double x0 = rng.uniform(0.0, 10.0);
    d.add_row(std::vector<double>{x0, rng.uniform(0, 1)}, x0 > 5.0 ? 1 : 0);
  }
  return d;
}

TEST(Registry, MakesEveryKnownType) {
  for (const char* name :
       {"decision_tree", "decision_forest", "extra_trees", "adaboost", "knn"}) {
    const auto model = make_classifier(name);
    ASSERT_NE(model, nullptr) << name;
    EXPECT_EQ(model->type_name(), name);
    EXPECT_FALSE(model->is_fitted());
  }
}

TEST(Registry, RejectsUnknownType) {
  EXPECT_THROW((void)make_classifier("svm"), ParseError);
  EXPECT_THROW((void)make_classifier(""), ParseError);
}

class SerializeRoundTrip : public ::testing::TestWithParam<const char*> {};

TEST_P(SerializeRoundTrip, PredictionsSurviveSaveLoad) {
  const Dataset d = tiny_data(7);
  auto model = make_classifier(GetParam());
  model->fit(d);
  std::stringstream ss;
  save_classifier(*model, ss);
  const auto loaded = load_classifier(ss);
  ASSERT_NE(loaded, nullptr);
  EXPECT_EQ(loaded->type_name(), model->type_name());
  EXPECT_EQ(loaded->num_classes(), model->num_classes());
  EXPECT_EQ(loaded->num_features(), model->num_features());
  for (std::size_t i = 0; i < d.rows(); ++i)
    EXPECT_EQ(loaded->predict(d.row(i)), model->predict(d.row(i)));
}

INSTANTIATE_TEST_SUITE_P(AllModels, SerializeRoundTrip,
                         ::testing::Values("decision_tree", "decision_forest", "extra_trees",
                                           "adaboost", "knn"));

TEST(Serialize, RefusesUnfittedModel) {
  DecisionTree tree;
  std::stringstream ss;
  EXPECT_THROW(save_classifier(tree, ss), PreconditionError);
}

TEST(Serialize, LoadRejectsWrongMagic) {
  std::stringstream ss("not-a-model 1\ntype decision_tree\n");
  EXPECT_THROW((void)load_classifier(ss), ParseError);
}

TEST(Serialize, LoadRejectsWrongVersion) {
  std::stringstream ss("rush-model 99\ntype decision_tree\n");
  EXPECT_THROW((void)load_classifier(ss), ParseError);
}

TEST(Serialize, LoadRejectsUnknownEmbeddedType) {
  std::stringstream ss("rush-model 1\ntype mystery\n");
  EXPECT_THROW((void)load_classifier(ss), ParseError);
}

/// Loads `text` and predicts once, so a malformed body that slipped past
/// the loader would walk out of bounds (caught under ASan).
void load_and_predict(const std::string& text) {
  std::stringstream ss(text);
  const auto model = load_classifier(ss);
  const std::vector<double> x(model->num_features(), 0.0);
  std::vector<double> out(static_cast<std::size_t>(model->num_classes()));
  model->predict_proba_into(x, out);
}

TEST(Serialize, LoadRejectsChildIndexPastTheNodeCount) {
  EXPECT_THROW(load_and_predict("rush-model 1\ntype decision_tree\nclasses 2\nfeatures 1\n"
                                "nodes 3\nsplit 0 0.5 7 8\nleaf 1 0\nleaf 0 1\n"
                                "importances 1\n"),
               ParseError);
}

TEST(Serialize, LoadRejectsASplitThatIsItsOwnChild) {
  EXPECT_THROW(load_and_predict("rush-model 1\ntype decision_tree\nclasses 2\nfeatures 1\n"
                                "nodes 3\nsplit 0 0.5 0 2\nleaf 1 0\nleaf 0 1\n"
                                "importances 1\n"),
               ParseError);
}

TEST(Serialize, LoadRejectsANodeThatIsTheChildOfTwoSplits) {
  EXPECT_THROW(load_and_predict("rush-model 1\ntype decision_tree\nclasses 2\nfeatures 1\n"
                                "nodes 4\nsplit 0 0.5 1 2\nsplit 0 0.2 2 3\nleaf 1 0\n"
                                "leaf 0 1\nimportances 1\n"),
               ParseError);
}

TEST(Serialize, LoadRejectsSplitFeatureOutOfRange) {
  EXPECT_THROW(load_and_predict("rush-model 1\ntype decision_tree\nclasses 2\nfeatures 3\n"
                                "nodes 3\nsplit 99 0.5 1 2\nleaf 1 0\nleaf 0 1\n"
                                "importances 1 0 0\n"),
               ParseError);
}

TEST(Serialize, LoadRejectsForestTreeOfAnotherFeatureCount) {
  EXPECT_THROW(load_and_predict("rush-model 1\ntype decision_forest\nflavor 0\nclasses 2\n"
                                "features 1\ntrees 1\nclasses 2\nfeatures 3\nnodes 3\n"
                                "split 2 0.5 1 2\nleaf 1 0\nleaf 0 1\nimportances 0 0 1\n"),
               ParseError);
}

TEST(Serialize, LoadRejectsAdaBoostStageWithMoreClasses) {
  EXPECT_THROW(load_and_predict("rush-model 1\ntype adaboost\nclasses 2\nfeatures 1\n"
                                "stages 1\nalpha 1\nclasses 4\nfeatures 1\nnodes 3\n"
                                "split 0 0.5 1 2\nleaf 0 0 0 1\nleaf 0 0 1 0\n"
                                "importances 1\n"),
               ParseError);
}

TEST(Serialize, ForestFlavorSurvivesRoundTrip) {
  const Dataset d = tiny_data(8);
  Forest extra(extra_trees_config(5));
  extra.fit(d);
  std::stringstream ss;
  save_classifier(extra, ss);
  const auto loaded = load_classifier(ss);
  EXPECT_EQ(loaded->type_name(), "extra_trees");
}

}  // namespace
}  // namespace rush::ml
