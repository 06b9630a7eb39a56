// Tree ensembles: Decision (random) Forest and Extremely Randomized Trees.
//
// DecisionForest: bootstrap-resampled exact CART trees with per-node
// feature subsampling (sqrt(d) by default), majority soft-vote.
// ExtraTrees: all training rows per tree, random thresholds.
// These are two of the four model families compared in the paper's Fig. 3.
#pragma once

#include "ml/tree.hpp"

namespace rush::ml {

struct ForestConfig {
  std::size_t num_trees = 60;
  int max_depth = 14;
  /// Candidate features per node; 0 means sqrt(num_features).
  std::size_t max_features = 0;
  bool bootstrap = true;
  bool random_thresholds = false;
  std::uint64_t seed = 7;
};

class Forest : public Classifier {
 public:
  explicit Forest(ForestConfig config = {});

  void fit(const Dataset& data, std::span<const double> sample_weights = {}) override;
  /// The compiled forest's mean leaf probabilities.
  void predict_proba_into(std::span<const double> x, std::span<double> out) const override;
  [[nodiscard]] int num_classes() const noexcept override { return num_classes_; }
  [[nodiscard]] std::size_t num_features() const noexcept override { return num_features_; }
  [[nodiscard]] bool is_fitted() const noexcept override { return !trees_.empty(); }
  [[nodiscard]] std::string type_name() const override {
    return config_.random_thresholds ? "extra_trees" : "decision_forest";
  }
  [[nodiscard]] std::vector<double> feature_importances() const override;
  [[nodiscard]] std::unique_ptr<Classifier> clone_config() const override;
  void save_body(std::ostream& os) const override;
  void load_body(std::istream& is) override;

  [[nodiscard]] const ForestConfig& config() const noexcept { return config_; }
  [[nodiscard]] std::size_t tree_count() const noexcept { return trees_.size(); }
  /// Flat concatenation of every tree's compiled plane (rebuilt after fit
  /// and load).
  [[nodiscard]] const CompiledForest& compiled() const noexcept { return compiled_; }

 private:
  void compile_();

  ForestConfig config_;
  int num_classes_ = 0;
  std::size_t num_features_ = 0;
  std::vector<DecisionTree> trees_;
  CompiledForest compiled_;
};

/// Factory helpers with the paper's two forest flavors.
ForestConfig decision_forest_config(std::size_t num_trees = 60, std::uint64_t seed = 7);
ForestConfig extra_trees_config(std::size_t num_trees = 60, std::uint64_t seed = 7);

}  // namespace rush::ml
