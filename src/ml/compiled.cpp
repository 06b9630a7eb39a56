#include "ml/compiled.hpp"

#include <algorithm>
#include <limits>

#include "common/error.hpp"

namespace rush::ml {

namespace {

/// Number of tree walks advanced concurrently by the ensemble combiners.
/// Wider than the core's miss buffers on purpose: the surplus keeps the
/// load queue full across rounds. Also bounds the combiners' stack
/// scratch (two small index arrays).
constexpr std::size_t kWalkGroup = 64;

/// The child of split `n`, at index `i`, that `x` takes: the next node
/// (left) or the node `n.index` past it (right). A mask select, because
/// GCC compiles a `?:` between the two into a branch, which random
/// inputs mispredict half the time.
inline std::int32_t child(std::int32_t i, const CompiledNode& n,
                          std::span<const double> x) noexcept {
  const std::int32_t go_right = x[static_cast<std::size_t>(n.feature)] <= n.threshold ? 0 : 1;
  return i + 1 + (n.index & -go_right);
}

}  // namespace

CompiledTree::CompiledTree(int num_classes) : num_classes_(num_classes) {
  RUSH_EXPECTS(num_classes > 0);
}

std::int32_t CompiledTree::add_split(int feature, double threshold) {
  RUSH_EXPECTS(feature >= 0);
  RUSH_EXPECTS(nodes_.size() <
               static_cast<std::size_t>(std::numeric_limits<std::int32_t>::max()));
  nodes_.push_back({threshold, feature, 0});
  return static_cast<std::int32_t>(nodes_.size() - 1);
}

void CompiledTree::set_right(std::int32_t split, std::int32_t right) {
  RUSH_EXPECTS(split >= 0 && static_cast<std::size_t>(split) < nodes_.size());
  RUSH_EXPECTS(nodes_[static_cast<std::size_t>(split)].feature != kLeaf && right > split + 1);
  nodes_[static_cast<std::size_t>(split)].index = right - split - 1;
}

void CompiledTree::add_leaf(std::span<const double> proba) {
  RUSH_EXPECTS(proba.size() == static_cast<std::size_t>(num_classes_));
  RUSH_EXPECTS(leaf_proba_.size() + proba.size() <=
               static_cast<std::size_t>(std::numeric_limits<std::int32_t>::max()));
  nodes_.push_back({0.0, kLeaf, static_cast<std::int32_t>(leaf_proba_.size())});
  leaf_proba_.insert(leaf_proba_.end(), proba.begin(), proba.end());
}

std::span<const double> CompiledTree::leaf(std::span<const double> x) const noexcept {
  const CompiledNode* nodes = nodes_.data();
  std::int32_t node = 0;
  while (nodes[node].feature != kLeaf) node = child(node, nodes[node], x);
  return proba(nodes[node]);
}

int CompiledTree::predict(std::span<const double> x) const noexcept {
  return argmax_first(leaf(x));
}

void CompiledForest::clear() noexcept {
  nodes_.clear();
  leaf_proba_.clear();
  roots_.clear();
  classes_.clear();
  weights_.clear();
  total_weight_ = 0.0;
}

void CompiledForest::add_tree(const CompiledTree& tree, double weight) {
  RUSH_EXPECTS(!tree.empty());
  const auto node_base = static_cast<std::int32_t>(nodes_.size());
  const auto arena_base = static_cast<std::int32_t>(leaf_proba_.size());
  RUSH_EXPECTS(nodes_.size() + tree.nodes_.size() <=
               static_cast<std::size_t>(std::numeric_limits<std::int32_t>::max()));
  RUSH_EXPECTS(leaf_proba_.size() + tree.leaf_proba_.size() <=
               static_cast<std::size_t>(std::numeric_limits<std::int32_t>::max()));

  // A split's children are relative to it, so only the leaves' arena
  // offsets move.
  for (CompiledNode n : tree.nodes_) {
    if (n.feature == CompiledTree::kLeaf) n.index += arena_base;
    nodes_.push_back(n);
  }
  leaf_proba_.insert(leaf_proba_.end(), tree.leaf_proba_.begin(), tree.leaf_proba_.end());
  roots_.push_back(node_base);
  classes_.push_back(tree.num_classes_);
  weights_.push_back(weight);
  total_weight_ += weight;
}

void CompiledForest::walk_group(std::span<const double> x, std::size_t base, std::size_t n,
                                std::int32_t* cur) const noexcept {
  const CompiledNode* nodes = nodes_.data();
  // Advance every live cursor one level per round: the group's node
  // loads are independent, so their cache misses overlap instead of
  // forming one serial dependency chain per tree. Walks that reach a
  // leaf are compacted out so late rounds only touch the deep trees.
  std::size_t live[kWalkGroup];
  std::size_t count = n;
  for (std::size_t i = 0; i < n; ++i) {
    cur[i] = roots_[base + i];
    live[i] = i;
  }
  while (count > 0) {
    std::size_t kept = 0;
    for (std::size_t a = 0; a < count; ++a) {
      const std::size_t i = live[a];
      const CompiledNode nd = nodes[static_cast<std::size_t>(cur[i])];
      if (nd.feature == CompiledTree::kLeaf) continue;
      cur[i] = child(cur[i], nd, x);
      live[kept++] = i;
    }
    count = kept;
  }
}

// rush: noalloc
void CompiledForest::mean_proba_into(std::span<const double> x, std::span<double> out) const
    noexcept {
  std::fill(out.begin(), out.end(), 0.0);
  std::int32_t cur[kWalkGroup];
  for (std::size_t base = 0; base < roots_.size(); base += kWalkGroup) {
    const std::size_t n = std::min(kWalkGroup, roots_.size() - base);
    walk_group(x, base, n, cur);
    // Accumulate in tree order.
    for (std::size_t i = 0; i < n; ++i) {
      const double* leaf = leaf_proba_.data() + nodes_[static_cast<std::size_t>(cur[i])].index;
      const std::size_t k = std::min(out.size(), static_cast<std::size_t>(classes_[base + i]));
      for (std::size_t c = 0; c < k; ++c) out[c] += leaf[c];
    }
  }
  const auto trees = static_cast<double>(roots_.size());
  for (double& p : out) p /= trees;
}

// rush: noalloc
void CompiledForest::vote_proba_into(std::span<const double> x, std::span<double> out) const
    noexcept {
  std::fill(out.begin(), out.end(), 0.0);
  std::int32_t cur[kWalkGroup];
  for (std::size_t base = 0; base < roots_.size(); base += kWalkGroup) {
    const std::size_t n = std::min(kWalkGroup, roots_.size() - base);
    walk_group(x, base, n, cur);
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t t = base + i;
      const double* leaf = leaf_proba_.data() + nodes_[static_cast<std::size_t>(cur[i])].index;
      const int label = argmax_first({leaf, static_cast<std::size_t>(classes_[t])});
      out[static_cast<std::size_t>(label)] += weights_[t];
    }
  }
  if (total_weight_ > 0.0)
    for (double& v : out) v /= total_weight_;
}

}  // namespace rush::ml
