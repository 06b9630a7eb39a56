// Seeded mutation test for the model-text reader (TrainedPredictor::load
// and the ml::load_classifier bodies under it). Byte flips, truncations,
// splices and hostile tokens (tests/mutation.hpp) are applied to saved
// decision-tree, forest, extra-trees, AdaBoost and KNN predictors and to a
// tree nested 200 levels deep. Every mutant must load or throw
// ParseError, and whatever loads must save, load and save again to the
// same bytes. The unmutated predictors must save to their own bytes.
#include <gtest/gtest.h>

#include <array>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/pipeline.hpp"
#include "ml/adaboost.hpp"
#include "ml/forest.hpp"
#include "ml/knn.hpp"
#include "ml/serialize.hpp"
#include "ml/tree.hpp"
#include "mutation.hpp"

namespace rush::core {
namespace {

using mutation::mutate;
using mutation::resave;

constexpr int kMutants = 1500;
constexpr std::array<std::string_view, 5> kHostileTokens{"nan", "inf", "1e400", "-1",
                                                         "18446744073709551616"};
// The three features the predictors select, out of the 282.
constexpr std::string_view kHeader =
    "rush-predictor 1\nscope all\nthresholds 1.2 1.5\nconfidence 0.36\nselected 3 5 140 281\n";
// Label thresholds and a confidence gate that need more than six digits.
constexpr std::string_view kPreciseHeader =
    "rush-predictor 1\nscope job\nthresholds 1.2345678 1.5\nconfidence 0.123456789\n"
    "selected 3 5 140 281\n";

ml::Dataset three_class_data() {
  Rng rng(31);
  ml::Dataset d(3);
  for (int i = 0; i < 40; ++i) {
    const double a = rng.uniform(0.0, 3.0);
    d.add_row(std::vector<double>{a, rng.uniform(0.0, 1.0), rng.normal()}, static_cast<int>(a));
  }
  return d;
}

std::string predictor_text(ml::Classifier&& model, std::string_view header = kHeader) {
  model.fit(three_class_data());
  std::ostringstream os;
  os << header;
  ml::save_classifier(model, os);
  return os.str();
}

/// A decision tree whose left spine is `depth` splits deep: split k has
/// its left child at k + 1 and its right child, a leaf, after the spine.
std::string deep_tree_text(int depth) {
  std::ostringstream os;
  os << kHeader << "rush-model 1\ntype decision_tree\nclasses 3\nfeatures 3\nnodes "
     << 2 * depth + 1 << "\n";
  for (int k = 0; k < depth; ++k)
    os << "split " << k % 3 << " 0.5 " << k + 1 << " " << 2 * depth - k << "\n";
  for (int k = 0; k <= depth; ++k) os << "leaf " << k % 3 << " 0.25 0.75\n";
  os << "importances 0.5 0.25 0.25\n";
  return os.str();
}

TEST(PredictorMutation, EveryMutantLoadsOrThrowsParseError) {
  const std::vector<std::string> seeds{
      predictor_text(ml::DecisionTree(ml::TreeConfig{.max_depth = 4})),
      predictor_text(ml::Forest(ml::ForestConfig{.num_trees = 3, .max_depth = 4})),
      predictor_text(ml::Forest(ml::extra_trees_config(3))),
      predictor_text(ml::AdaBoost(ml::AdaBoostConfig{.num_rounds = 4, .base_max_depth = 2})),
      predictor_text(ml::Knn(ml::KnnConfig{.k = 3})),
      deep_tree_text(200),
  };
  const auto load = [](std::istream& is) { return TrainedPredictor::load(is); };
  const auto save = [](const TrainedPredictor& p, std::ostream& os) { p.save(os); };
  for (const std::string& seed : seeds) ASSERT_EQ(resave(seed, load, save), seed);
  const std::string precise =
      predictor_text(ml::DecisionTree(ml::TreeConfig{.max_depth = 4}), kPreciseHeader);
  ASSERT_EQ(resave(precise, load, save), precise);

  Rng rng(20222);
  int loaded = 0;
  for (int i = 0; i < kMutants; ++i) {
    const std::string& base = seeds[static_cast<std::size_t>(i) % seeds.size()];
    const std::string& other = seeds[static_cast<std::size_t>(i + 1) % seeds.size()];
    const std::string mutant = mutate(rng, base, other, kHostileTokens, " \n");
    SCOPED_TRACE("mutant " + std::to_string(i));
    try {
      loaded += resave(mutant, load, save) ? 1 : 0;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "threw " << e.what() << " instead of ParseError";
    }
  }
  // About one in twelve loads: damage to a value parses, damage to a tag,
  // a count or the structure does not. Neither bound is close.
  EXPECT_GT(loaded, kMutants / 30);
  EXPECT_LT(loaded, kMutants / 3);
}

}  // namespace
}  // namespace rush::core
