// Flat, allocation-free inference plane for the CART ensembles.
//
// CompiledTree flattens DecisionTree's node vector (an AoS layout where
// every leaf owns its own heap probability vector) into one contiguous
// array of packed 16-byte nodes plus a pooled leaf-probability arena.
// Nodes are laid out in BFS order with a split's two children adjacent,
// so a node carries only its left-child index (right = left + 1): a
// prediction walk touches one cache line per visited node — four nodes
// per line, hot upper levels contiguous — and no allocator.
//
// CompiledForest concatenates many compiled trees into one shared node
// array (child and arena indices rebased at insertion) and walks the
// trees in interleaved groups: each round advances every cursor in the
// group one level, so the walks' independent cache misses overlap
// instead of serializing. It supports the two combine rules used by the
// ensembles: mean of leaf probabilities (Forest) and weighted argmax
// votes (AdaBoost/SAMME), both accumulated in tree order. The golden
// digests in tests/ml/test_compiled.cpp pin the bytes they write.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace rush::ml {

/// Index of the first maximum, as std::max_element returns.
[[nodiscard]] inline int argmax_first(std::span<const double> v) noexcept {
  int best = 0;
  for (std::size_t i = 1; i < v.size(); ++i) {
    if (v[i] > v[static_cast<std::size_t>(best)]) best = static_cast<int>(i);
  }
  return best;
}

/// One packed tree node. Splits branch on threshold and hold the left
/// child in `index` (the right child is `index + 1` by construction);
/// leaves mark `feature` with kLeaf and hold their arena offset in
/// `index`.
struct CompiledNode {
  double threshold;
  std::int32_t feature;
  std::int32_t index;
};
static_assert(sizeof(CompiledNode) == 16);

class CompiledTree {
 public:
  static constexpr std::int32_t kLeaf = -1;

  void clear() noexcept;
  void reserve(std::size_t nodes, int num_classes);

  /// Append the next node; nodes must arrive in an order where a split's
  /// children land at `left` and `left + 1` (DecisionTree::compile emits
  /// BFS order). A leaf's probabilities are copied into the pooled arena.
  void add_split(int feature, double threshold, std::int32_t left);
  void add_leaf(std::span<const double> proba);

  [[nodiscard]] bool empty() const noexcept { return nodes_.empty(); }
  [[nodiscard]] std::size_t node_count() const noexcept { return nodes_.size(); }
  [[nodiscard]] int num_classes() const noexcept { return num_classes_; }

  /// Probability slice (size num_classes) of the leaf `x` falls into.
  [[nodiscard]] std::span<const double> leaf(std::span<const double> x) const noexcept;
  /// Argmax label of the leaf slice (first maximum wins).
  [[nodiscard]] int predict(std::span<const double> x) const noexcept;

 private:
  friend class CompiledForest;

  std::vector<CompiledNode> nodes_;
  std::vector<double> leaf_proba_;  // pooled arena, num_classes_ stride
  int num_classes_ = 0;
};

class CompiledForest {
 public:
  void clear() noexcept;
  /// Append a compiled tree with the given vote weight (1 for soft-vote
  /// forests, the stage alpha for AdaBoost).
  void add_tree(const CompiledTree& tree, double weight = 1.0);

  [[nodiscard]] bool empty() const noexcept { return roots_.empty(); }
  [[nodiscard]] std::size_t tree_count() const noexcept { return roots_.size(); }

  /// Forest combine: per-class mean of every tree's leaf probabilities,
  /// written into `out`. Trees fitted on bootstrap samples may carry
  /// fewer classes than the ensemble; their missing tail contributes 0.
  void mean_proba_into(std::span<const double> x, std::span<double> out) const noexcept;
  /// AdaBoost/SAMME combine: weight-normalized argmax votes into `out`.
  void vote_proba_into(std::span<const double> x, std::span<double> out) const noexcept;

 private:
  /// Walks trees [base, base + n) to their leaves concurrently, leaving
  /// each walk's final node index in `cur`.
  void walk_group(std::span<const double> x, std::size_t base, std::size_t n,
                  std::int32_t* cur) const noexcept;

  std::vector<CompiledNode> nodes_;
  std::vector<double> leaf_proba_;
  std::vector<std::int32_t> roots_;    // per tree: root node index
  std::vector<std::int32_t> classes_;  // per tree: class count (arena stride)
  std::vector<double> weights_;        // per tree: vote weight
  double total_weight_ = 0.0;
};

}  // namespace rush::ml
