// AdaBoost (SAMME) over shallow CART trees.
//
// The paper finds AdaBoost the best-performing classifier (Fig. 3) and
// uses it for all scheduling experiments. SAMME generalizes the classic
// two-class algorithm to K classes: round m fits a weighted base tree,
// computes weighted error e_m, sets
//     alpha_m = log((1 - e_m) / e_m) + log(K - 1)
// and re-weights misclassified samples by exp(alpha_m).
#pragma once

#include "ml/tree.hpp"

namespace rush::ml {

struct AdaBoostConfig {
  std::size_t num_rounds = 80;
  int base_max_depth = 3;
  std::uint64_t seed = 11;
};

class AdaBoost final : public Classifier {
 public:
  explicit AdaBoost(AdaBoostConfig config = {});

  void fit(const Dataset& data, std::span<const double> sample_weights = {}) override;
  /// Argmax over the compiled forest's weighted votes; no temporary
  /// vector for ensembles up to 16 classes.
  [[nodiscard]] int predict(std::span<const double> x) const override;
  void predict_proba_into(std::span<const double> x, std::span<double> out) const override;
  void predict_many(const Dataset& data, std::span<int> out) const override;
  [[nodiscard]] int num_classes() const noexcept override { return num_classes_; }
  [[nodiscard]] std::size_t num_features() const noexcept override { return num_features_; }
  [[nodiscard]] bool is_fitted() const noexcept override { return !stages_.empty(); }
  [[nodiscard]] std::string type_name() const override { return "adaboost"; }
  [[nodiscard]] std::vector<double> feature_importances() const override;
  [[nodiscard]] std::unique_ptr<Classifier> clone_config() const override;
  void save_body(std::ostream& os) const override;
  void load_body(std::istream& is) override;

  [[nodiscard]] std::size_t stage_count() const noexcept { return stages_.size(); }
  [[nodiscard]] const AdaBoostConfig& config() const noexcept { return config_; }
  /// Flat concatenation of every stage tree weighted by its alpha
  /// (rebuilt after fit and load).
  [[nodiscard]] const CompiledForest& compiled() const noexcept { return compiled_; }

 private:
  struct Stage {
    DecisionTree tree;
    double alpha = 0.0;
  };

  void compile_();

  AdaBoostConfig config_;
  int num_classes_ = 0;
  std::size_t num_features_ = 0;
  std::vector<Stage> stages_;
  CompiledForest compiled_;
};

}  // namespace rush::ml
