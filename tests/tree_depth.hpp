// Depth of a fitted tree, read from its pre-order nodes.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "ml/tree.hpp"

namespace rush::ml {

/// Levels from the root to the deepest leaf (a lone leaf is depth 1).
/// Both children of a split come after it, so one forward pass reaches
/// every parent before its children.
[[nodiscard]] inline int depth_of(const DecisionTree& tree) {
  const CompiledTree& t = tree.compiled();
  std::vector<int> level(t.node_count(), 1);
  int deepest = 0;
  for (std::size_t i = 0; i < t.node_count(); ++i) {
    deepest = std::max(deepest, level[i]);
    if (t.nodes()[i].feature == CompiledTree::kLeaf) continue;
    level[i + 1] = level[t.right_child(i)] = level[i] + 1;
  }
  return deepest;
}

}  // namespace rush::ml
