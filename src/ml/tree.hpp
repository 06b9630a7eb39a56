// CART decision tree with weighted samples.
//
// One implementation serves two ensemble styles:
//  - exact mode: every candidate feature is sorted and the best weighted
//    Gini split chosen (classic CART, used by DecisionForest and as the
//    AdaBoost base learner);
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
  std::size_t min_samples_split = 2;
  std::size_t min_samples_leaf = 1;
  /// Candidate features per node; 0 means all features.
  std::size_t max_features = 0;
  /// Extra-trees style uniform random thresholds instead of exact search.
  bool random_thresholds = false;
  /// Exact mode only: start from a PresortedIndex of the dataset (one
  /// O(features·n log n) sort, shared by every tree fitted on the same
  /// dataset) and thread it through the recursion by stable partitioning,
  /// O(depth·features·n) per tree, instead of re-sorting every candidate
  /// feature at every node (O(depth·features·n log n) per tree). Both
  /// algorithms produce bit-identical trees; the per-node-sort path is
  /// retained as the reference for differential testing.
  bool presort = true;
  std::uint64_t seed = 1;
};

/// Per-feature (value, row) sort orders of one dataset plus a feature-major
/// copy of its values. It belongs to the dataset, not to a tree: boosting
/// rounds change only the sample weights, so AdaBoost builds one index per
/// fit and hands it to every round's tree.
class PresortedIndex {
 public:
  explicit PresortedIndex(const Dataset& data);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t features() const noexcept { return features_; }
  /// Every feature's row order back to back: `features()` blocks of
  /// `rows()` row indices, each sorted by (value, row).
  [[nodiscard]] std::span<const std::uint32_t> orders() const noexcept { return order_; }
  /// Feature `f`'s values indexed by row.
  [[nodiscard]] std::span<const double> column(std::size_t f) const noexcept {
    return {values_.data() + f * rows_, rows_};
  }

 private:
  std::size_t rows_ = 0;
  std::size_t features_ = 0;
  std::vector<std::uint32_t> order_;
  std::vector<double> values_;  // features x rows, feature-major
};

class DecisionTree final : public Classifier {
 public:
  explicit DecisionTree(TreeConfig config = {});

  /// Exact presorted mode builds its own PresortedIndex of `data`.
  void fit(const Dataset& data, std::span<const double> sample_weights = {}) override;
  /// Exact presorted mode only: fit from a shared index, which must have
  /// been built for a dataset of `data`'s shape (in practice, `data`).
  void fit(const Dataset& data, std::span<const double> sample_weights,
           const PresortedIndex& presorted);
  /// Direct argmax walk over the compiled arrays — no temporary vector.
  [[nodiscard]] int predict(std::span<const double> x) const override;
  /// Nested-node walk kept as the reference the compiled plane is
  /// differentially tested against.
  [[nodiscard]] std::vector<double> predict_proba(std::span<const double> x) const override;
  void predict_proba_into(std::span<const double> x, std::span<double> out) const override;
  void predict_many(const Dataset& data, std::span<int> out) const override;
  [[nodiscard]] int num_classes() const noexcept override { return num_classes_; }
  [[nodiscard]] std::size_t num_features() const noexcept override { return num_features_; }
  [[nodiscard]] bool is_fitted() const noexcept override { return !nodes_.empty(); }
  [[nodiscard]] std::string type_name() const override { return "decision_tree"; }
  [[nodiscard]] std::vector<double> feature_importances() const override;
  [[nodiscard]] std::unique_ptr<Classifier> clone_config() const override;
  void save_body(std::ostream& os) const override;
  void load_body(std::istream& is) override;

  [[nodiscard]] const TreeConfig& config() const noexcept { return config_; }
  [[nodiscard]] std::size_t node_count() const noexcept { return nodes_.size(); }
  [[nodiscard]] int depth() const noexcept;
  /// Flat SoA twin of the fitted tree (rebuilt after fit and load).
  [[nodiscard]] const CompiledTree& compiled() const noexcept { return compiled_; }

 private:
  struct Node {
    int feature = -1;  // -1 marks a leaf
    double threshold = 0.0;
    std::int32_t left = -1;
    std::int32_t right = -1;
    std::vector<double> proba;  // leaf only: per-class probability
  };

  struct SplitResult {
    bool found = false;
    int feature = -1;
    double threshold = 0.0;
    double impurity_decrease = 0.0;
  };

  /// Per-fit scratch: a working copy of the presorted feature orders, the
  /// partition buffers that thread them through the recursion, and the
  /// split scan's per-class weight buffers.
  struct FitWorkspace;

  /// `presorted` is null on the per-node-sort and random-threshold paths.
  void fit_impl(const Dataset& data, std::span<const double> sample_weights,
                const PresortedIndex* presorted);
  std::int32_t build(const Dataset& data, std::span<const double> weights,
                     std::vector<std::size_t>& indices, int depth, Rng& rng, FitWorkspace& ws,
                     std::size_t lo, std::size_t hi);
  SplitResult find_split(const Dataset& data, std::span<const double> weights,
                         const std::vector<std::size_t>& indices, Rng& rng, FitWorkspace& ws,
                         std::size_t lo, std::size_t hi) const;
  std::int32_t make_leaf(const Dataset& data, std::span<const double> weights,
                         const std::vector<std::size_t>& indices);
  void compile();

  TreeConfig config_;
  int num_classes_ = 0;
  std::size_t num_features_ = 0;
  std::vector<Node> nodes_;               // nodes_[0] is the root when fitted
  std::vector<double> importances_;       // accumulated impurity decrease
  CompiledTree compiled_;                 // flat inference plane
};

}  // namespace rush::ml
