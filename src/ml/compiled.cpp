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

}  // namespace

void CompiledTree::clear() noexcept {
  nodes_.clear();
  leaf_proba_.clear();
  num_classes_ = 0;
}

void CompiledTree::reserve(std::size_t nodes, int num_classes) {
  RUSH_EXPECTS(num_classes > 0);
  num_classes_ = num_classes;
  nodes_.reserve(nodes);
}

void CompiledTree::add_split(int feature, double threshold, std::int32_t left) {
  RUSH_EXPECTS(feature >= 0 && left > 0);
  nodes_.push_back({threshold, feature, left});
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
  std::size_t node = 0;
  while (nodes[node].feature != kLeaf) {
    const CompiledNode n = nodes[node];
    node = static_cast<std::size_t>(n.index) +
           (x[static_cast<std::size_t>(n.feature)] <= n.threshold ? 0u : 1u);
  }
  return {leaf_proba_.data() + nodes[node].index, static_cast<std::size_t>(num_classes_)};
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

  // Children stay adjacent under a uniform shift, so the packed nodes
  // rebase by plain index arithmetic.
  for (const CompiledNode& n : tree.nodes_) {
    nodes_.push_back({n.threshold, n.feature,
                      n.index + (n.feature == CompiledTree::kLeaf ? arena_base : node_base)});
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
      cur[i] = nd.index +
               (x[static_cast<std::size_t>(nd.feature)] <= nd.threshold ? 0 : 1);
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
