// CART decision tree with weighted samples.
//
// One implementation serves two ensemble styles:
//  - exact mode: every candidate feature is scanned in the sorted order
//    of a PresortedIndex and the best weighted Gini split chosen (classic
//    CART, used by DecisionForest and as the AdaBoost base learner);
//  - random-threshold mode: one uniform threshold per candidate feature
//    (Extremely Randomized Trees).
// Per-node feature subsampling (`max_features`) supports both forests.
#pragma once

#include <cstdint>

#include "common/rng.hpp"
#include "ml/classifier.hpp"
#include "ml/compiled.hpp"

namespace rush::ml {

struct TreeConfig {
  int max_depth = 18;
  std::size_t min_samples_leaf = 1;
  /// Candidate features per node; 0 means all features.
  std::size_t max_features = 0;
  /// Extra-trees style uniform random thresholds instead of exact search.
  bool random_thresholds = false;
  std::uint64_t seed = 1;
};

/// Per-feature (value, row) sort orders of one dataset plus a feature-major
/// copy of its values. It belongs to the dataset, not to a tree, and no fit
/// writes it: boosting rounds change only the sample weights, so AdaBoost
/// builds one index per fit and every round's tree fits from it.
class PresortedIndex {
 public:
  explicit PresortedIndex(const Dataset& data);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t features() const noexcept { return features_; }
  /// Feature `f`'s row indices sorted by (value, row).
  [[nodiscard]] std::span<const std::uint32_t> order(std::size_t f) const noexcept {
    return {order_.data() + f * rows_, rows_};
  }
  /// Feature `f`'s values indexed by row.
  [[nodiscard]] std::span<const double> column(std::size_t f) const noexcept {
    return {values_.data() + f * rows_, rows_};
  }

 private:
  std::size_t rows_ = 0;
  std::size_t features_ = 0;
  std::vector<std::uint32_t> order_;  // features x rows, feature-major
  std::vector<double> values_;        // features x rows, feature-major
};

/// The scratch of exact-mode fits over one PresortedIndex, which must
/// outlive it. A node is a range [lo, hi) of its blocks: a row block in
/// ascending row order, and one block per feature in (value, row) order.
/// A fit writes every block before it reads it, so one workspace serves
/// any number of fits on its index, one at a time: AdaBoost makes one per
/// fit and hands it to every round's tree.
class FitWorkspace {
 public:
  explicit FitWorkspace(const PresortedIndex& index);
  explicit FitWorkspace(PresortedIndex&&) = delete;

 private:
  friend class DecisionTree;
  /// Random-threshold mode: the row block only.
  explicit FitWorkspace(std::size_t rows);

  [[nodiscard]] std::uint32_t* row_block() noexcept { return blocks_.data(); }
  [[nodiscard]] std::uint32_t* block(std::size_t f) noexcept {
    return blocks_.data() + (f + 1) * rows_;
  }

  const PresortedIndex* index_ = nullptr;
  std::size_t rows_ = 0;
  std::vector<std::uint32_t> blocks_;     // the row block, then one block per feature
  std::vector<unsigned char> constant_;   // per feature: one value over the whole index
  std::vector<std::size_t> varying_;      // the features that are not constant
  std::vector<unsigned char> goes_left_;  // per row: its side during a partition
  std::vector<std::uint32_t> spill_;      // right-side rows during a partition
  std::vector<double> class_w_;           // rows x classes: a row's weight in its label's slot
  std::vector<double> node_w_;            // per class: the weight of a node or leaf
  std::vector<double> left_w_;            // per class, for a run-time class count
  std::vector<double> right_w_;           // per class, for a run-time class count
  std::vector<std::size_t> candidates_;
};

class DecisionTree final : public Classifier {
 public:
  explicit DecisionTree(TreeConfig config = {});

  /// Exact mode builds its own PresortedIndex of `data`.
  void fit(const Dataset& data, std::span<const double> sample_weights = {}) override;
  /// Exact mode only: fit over a shared workspace, whose index must have
  /// been built for a dataset of `data`'s shape (in practice, `data`).
  void fit(const Dataset& data, std::span<const double> sample_weights,
           FitWorkspace& workspace);
  /// The probabilities of the compiled leaf `x` falls into.
  void predict_proba_into(std::span<const double> x, std::span<double> out) const override;
  [[nodiscard]] int num_classes() const noexcept override { return num_classes_; }
  [[nodiscard]] std::size_t num_features() const noexcept override { return num_features_; }
  [[nodiscard]] bool is_fitted() const noexcept override { return !compiled_.empty(); }
  [[nodiscard]] std::string type_name() const override { return "decision_tree"; }
  [[nodiscard]] std::vector<double> feature_importances() const override;
  [[nodiscard]] std::unique_ptr<Classifier> clone_config() const override;
  void save_body(std::ostream& os) const override;
  void load_body(std::istream& is) override;

  [[nodiscard]] const TreeConfig& config() const noexcept { return config_; }
  [[nodiscard]] std::size_t node_count() const noexcept { return compiled_.node_count(); }
  /// The fitted tree's pre-order nodes and leaf probabilities, which fit
  /// and load write, predict walks and save_body writes out.
  [[nodiscard]] const CompiledTree& compiled() const noexcept { return compiled_; }

 private:
  /// One fit's recursion over a FitWorkspace (tree.cpp).
  class Builder;

  void fit_impl(const Dataset& data, std::span<const double> sample_weights, FitWorkspace& ws);

  TreeConfig config_;
  int num_classes_ = 0;
  std::size_t num_features_ = 0;
  std::vector<double> importances_;       // accumulated impurity decrease
  CompiledTree compiled_;                 // the nodes; node 0 is the root when fitted
};

}  // namespace rush::ml
