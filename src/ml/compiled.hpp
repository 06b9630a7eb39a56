// Flat, allocation-free tree storage and inference plane for the CART
// ensembles.
//
// CompiledTree is the one representation of a fitted tree: the trainer
// appends into it, the predict walks read it and save_body writes it. It
// is one contiguous array of packed 16-byte nodes in pre-order plus a
// pooled leaf-probability arena. A split's left child is the next node,
// so a node carries only the distance to its right child: a prediction
// walk touches one cache line per visited node (four nodes per line, a
// split and its left child usually on the same one) and no allocator.
//
// CompiledForest concatenates many compiled trees into one shared node
// array (arena offsets rebased at insertion) and walks the
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

/// One packed tree node, in pre-order. A split branches on threshold; its
/// left child is the next node, and `index` counts the nodes of its left
/// subtree, so its right child is `index` nodes after the left one. A
/// leaf marks `feature` with kLeaf and holds its arena offset in `index`.
struct CompiledNode {
  double threshold;
  std::int32_t feature;
  std::int32_t index;
};
static_assert(sizeof(CompiledNode) == 16);

class CompiledTree {
 public:
  static constexpr std::int32_t kLeaf = -1;

  CompiledTree() = default;
  explicit CompiledTree(int num_classes);

  /// Append nodes in pre-order: a split, its left subtree, then its
  /// right subtree, whose first node the caller names with set_right.
  /// Returns the split's index.
  std::int32_t add_split(int feature, double threshold);
  /// Make node `right`, past the split's left child, its right child.
  void set_right(std::int32_t split, std::int32_t right);
  /// Append a leaf; its probabilities are copied into the pooled arena.
  void add_leaf(std::span<const double> proba);

  [[nodiscard]] bool empty() const noexcept { return nodes_.empty(); }
  [[nodiscard]] std::size_t node_count() const noexcept { return nodes_.size(); }
  [[nodiscard]] std::span<const CompiledNode> nodes() const noexcept { return nodes_; }
  /// The right child of split `i`; its left child is `i + 1`.
  [[nodiscard]] std::size_t right_child(std::size_t i) const noexcept {
    return i + 1 + static_cast<std::size_t>(nodes_[i].index);
  }
  /// The probability slice (size num_classes) of a leaf of this tree.
  [[nodiscard]] std::span<const double> proba(const CompiledNode& leaf) const noexcept {
    return {leaf_proba_.data() + leaf.index, static_cast<std::size_t>(num_classes_)};
  }

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
