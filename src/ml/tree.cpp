#include "ml/tree.hpp"

#include <algorithm>
#include <cmath>
#include <istream>
#include <limits>
#include <ostream>

#include "common/error.hpp"

namespace rush::ml {

namespace {

/// Weighted Gini impurity from per-class weight totals.
double gini(const std::vector<double>& class_weights, double total) noexcept {
  if (total <= 0.0) return 0.0;
  double sum_sq = 0.0;
  for (double w : class_weights) {
    const double p = w / total;
    sum_sq += p * p;
  }
  return 1.0 - sum_sq;
}

}  // namespace

PresortedIndex::PresortedIndex(const Dataset& data)
    : rows_(data.rows()), features_(data.cols()) {
  RUSH_EXPECTS(rows_ <= std::numeric_limits<std::uint32_t>::max());
  values_.resize(features_ * rows_);
  for (std::size_t i = 0; i < rows_; ++i) {
    const auto row = data.row(i);
    for (std::size_t f = 0; f < features_; ++f) values_[f * rows_ + i] = row[f];
  }
  order_.resize(features_ * rows_);
  for (std::size_t f = 0; f < features_; ++f) {
    std::uint32_t* blk = order_.data() + f * rows_;
    const double* col = values_.data() + f * rows_;
    for (std::size_t i = 0; i < rows_; ++i) blk[i] = static_cast<std::uint32_t>(i);
    std::sort(blk, blk + rows_, [col](std::uint32_t a, std::uint32_t b) {
      return col[a] < col[b] || (col[a] == col[b] && a < b);
    });
  }
}

// Exact-mode presort state. `order` starts as a copy of the index's
// per-feature blocks, each sorted by (value, row), so any contiguous
// sub-range visits a node's samples in (value, row) order. When a node
// splits, every block's [lo, hi) range is stable-partitioned into left
// members then right members, which preserves that order for both
// children without re-sorting. The index itself stays untouched, so
// the next tree fitted on the same dataset can copy it again.
struct DecisionTree::FitWorkspace {
  std::size_t rows = 0;
  std::size_t features = 0;
  const PresortedIndex* presorted = nullptr;
  std::vector<std::uint32_t> order;      // features blocks of `rows` entries
  std::vector<unsigned char> goes_left;  // per row: membership mark during partition
  std::vector<std::uint32_t> spill;      // right-side buffer for the stable partition
  // find_split scratch, reused by every node and every candidate boundary.
  std::vector<double> parent_w;  // per class
  std::vector<double> left_w;    // per class
  std::vector<double> right_w;   // per class
  std::vector<std::size_t> candidates;

  [[nodiscard]] std::uint32_t* block(std::size_t f) noexcept { return order.data() + f * rows; }
};

DecisionTree::DecisionTree(TreeConfig config) : config_(config) {
  RUSH_EXPECTS(config_.max_depth > 0);
  RUSH_EXPECTS(config_.min_samples_leaf >= 1);
}

void DecisionTree::fit(const Dataset& data, std::span<const double> sample_weights) {
  if (!config_.random_thresholds) {
    const PresortedIndex presorted(data);
    fit_impl(data, sample_weights, &presorted);
  } else {
    fit_impl(data, sample_weights, nullptr);
  }
}

void DecisionTree::fit(const Dataset& data, std::span<const double> sample_weights,
                       const PresortedIndex& presorted) {
  RUSH_EXPECTS(!config_.random_thresholds);
  RUSH_EXPECTS(presorted.rows() == data.rows() && presorted.features() == data.cols());
  fit_impl(data, sample_weights, &presorted);
}

void DecisionTree::fit_impl(const Dataset& data, std::span<const double> sample_weights,
                            const PresortedIndex* presorted) {
  RUSH_EXPECTS(!data.empty());
  RUSH_EXPECTS(sample_weights.empty() || sample_weights.size() == data.rows());

  nodes_.clear();
  num_classes_ = data.num_classes();
  num_features_ = data.cols();
  importances_.assign(num_features_, 0.0);

  std::vector<double> weights;
  if (sample_weights.empty()) {
    weights.assign(data.rows(), 1.0);
  } else {
    weights.assign(sample_weights.begin(), sample_weights.end());
  }

  std::vector<std::size_t> indices(data.rows());
  for (std::size_t i = 0; i < indices.size(); ++i) indices[i] = i;

  const auto k = static_cast<std::size_t>(num_classes_);
  FitWorkspace ws;
  ws.rows = data.rows();
  ws.features = num_features_;
  ws.parent_w.resize(k);
  ws.left_w.resize(k);
  ws.right_w.resize(k);
  if (presorted != nullptr) {
    ws.presorted = presorted;
    ws.order.assign(presorted->orders().begin(), presorted->orders().end());
    ws.goes_left.assign(ws.rows, 0);
    ws.spill.reserve(ws.rows);
  }

  Rng rng(config_.seed);
  build(data, weights, indices, 0, rng, ws, 0, data.rows());
  compile();

  // Normalize importances to sum to 1 (when any split was made).
  double total = 0.0;
  for (double v : importances_) total += v;
  if (total > 0.0)
    for (double& v : importances_) v /= total;
}

std::int32_t DecisionTree::make_leaf(const Dataset& data, std::span<const double> weights,
                                     const std::vector<std::size_t>& indices) {
  Node leaf;
  leaf.proba.assign(static_cast<std::size_t>(num_classes_), 0.0);
  double total = 0.0;
  for (std::size_t i : indices) {
    leaf.proba[static_cast<std::size_t>(data.label(i))] += weights[i];
    total += weights[i];
  }
  if (total > 0.0)
    for (double& p : leaf.proba) p /= total;
  nodes_.push_back(std::move(leaf));
  return static_cast<std::int32_t>(nodes_.size() - 1);
}

DecisionTree::SplitResult DecisionTree::find_split(const Dataset& data,
                                                   std::span<const double> weights,
                                                   const std::vector<std::size_t>& indices,
                                                   Rng& rng, FitWorkspace& ws,
                                                   std::size_t lo, std::size_t hi) const {
  const std::size_t k = static_cast<std::size_t>(num_classes_);
  const std::vector<int>& labels = data.labels();
  std::vector<double>& parent_w = ws.parent_w;
  std::vector<double>& left_w = ws.left_w;

  // Parent impurity.
  std::fill(parent_w.begin(), parent_w.end(), 0.0);
  double total_w = 0.0;
  for (std::size_t i : indices) {
    parent_w[static_cast<std::size_t>(data.label(i))] += weights[i];
    total_w += weights[i];
  }
  const double parent_gini = gini(parent_w, total_w);
  if (parent_gini <= 0.0 || total_w <= 0.0) return {};

  // Candidate features: all, or a random subset of max_features.
  std::vector<std::size_t>& candidates = ws.candidates;
  if (config_.max_features == 0 || config_.max_features >= num_features_) {
    candidates.resize(num_features_);
    for (std::size_t f = 0; f < num_features_; ++f) candidates[f] = f;
  } else {
    rng.sample_indices(num_features_, config_.max_features, candidates);
  }

  SplitResult best;
  for (std::size_t f : candidates) {
    if (config_.random_thresholds) {
      // Extra-trees: one uniform threshold in (min, max).
      double lo = std::numeric_limits<double>::max();
      double hi = std::numeric_limits<double>::lowest();
      for (std::size_t i : indices) {
        const double v = data.row(i)[f];
        lo = std::min(lo, v);
        hi = std::max(hi, v);
      }
      if (hi <= lo) continue;
      const double threshold = rng.uniform(lo, hi);
      std::fill(left_w.begin(), left_w.end(), 0.0);
      double lw = 0.0;
      std::size_t left_n = 0;
      for (std::size_t i : indices) {
        if (data.row(i)[f] <= threshold) {
          left_w[static_cast<std::size_t>(data.label(i))] += weights[i];
          lw += weights[i];
          ++left_n;
        }
      }
      const std::size_t right_n = indices.size() - left_n;
      if (left_n < config_.min_samples_leaf || right_n < config_.min_samples_leaf) continue;
      for (std::size_t c = 0; c < k; ++c) ws.right_w[c] = parent_w[c] - left_w[c];
      const double rw = total_w - lw;
      const double child =
          (lw * gini(left_w, lw) + rw * gini(ws.right_w, rw)) / total_w;
      const double decrease = parent_gini - child;
      if (decrease > best.impurity_decrease) {
        best = SplitResult{true, static_cast<int>(f), threshold, decrease};
      }
    } else {
      // Exact CART over the presorted index: the node's samples arrive in
      // (value, row) order directly from the partitioned block. Values
      // come from the index's feature-major column, not the row-major
      // matrix.
      const std::uint32_t* blk = ws.block(f) + lo;
      const double* col = ws.presorted->column(f).data();
      const std::size_t count = hi - lo;
      if (col[blk[0]] == col[blk[count - 1]]) continue;

      std::fill(left_w.begin(), left_w.end(), 0.0);
      double lw = 0.0;
      for (std::size_t pos = 0; pos + 1 < count; ++pos) {
        const std::uint32_t row = blk[pos];
        const double value = col[row];
        left_w[static_cast<std::size_t>(labels[row])] += weights[row];
        lw += weights[row];
        const double next = col[blk[pos + 1]];
        if (value == next) continue;  // not a boundary
        const std::size_t left_n = pos + 1;
        const std::size_t right_n = count - left_n;
        if (left_n < config_.min_samples_leaf || right_n < config_.min_samples_leaf) continue;
        for (std::size_t c = 0; c < k; ++c) ws.right_w[c] = parent_w[c] - left_w[c];
        const double rw = total_w - lw;
        const double child =
            (lw * gini(left_w, lw) + rw * gini(ws.right_w, rw)) / total_w;
        const double decrease = parent_gini - child;
        if (decrease > best.impurity_decrease) {
          best.found = true;
          best.feature = static_cast<int>(f);
          best.threshold = 0.5 * (value + next);
          best.impurity_decrease = decrease;
        }
      }
    }
  }
  return best;
}

std::int32_t DecisionTree::build(const Dataset& data, std::span<const double> weights,
                                 std::vector<std::size_t>& indices, int depth, Rng& rng,
                                 FitWorkspace& ws, std::size_t lo, std::size_t hi) {
  RUSH_ASSERT(!indices.empty());
  RUSH_ASSERT(ws.presorted == nullptr || hi - lo == indices.size());
  SplitResult split;
  if (depth < config_.max_depth) split = find_split(data, weights, indices, rng, ws, lo, hi);
  if (!split.found) return make_leaf(data, weights, indices);

  // Total node weight scales the recorded importance so splits near the
  // root matter more.
  double total_w = 0.0;
  for (std::size_t i : indices) total_w += weights[i];
  importances_[static_cast<std::size_t>(split.feature)] += total_w * split.impurity_decrease;

  std::vector<std::size_t> left_idx;
  std::vector<std::size_t> right_idx;
  for (std::size_t i : indices) {
    if (data.row(i)[static_cast<std::size_t>(split.feature)] <= split.threshold)
      left_idx.push_back(i);
    else
      right_idx.push_back(i);
  }
  RUSH_ASSERT(!left_idx.empty() && !right_idx.empty());
  indices.clear();
  indices.shrink_to_fit();

  const std::size_t mid = lo + left_idx.size();
  if (ws.presorted != nullptr) {
    // Thread the presorted order down to the children: stable-partition
    // every feature block's [lo, hi) range into left members then right
    // members, preserving (value, row) order on both sides.
    for (std::size_t i : left_idx) ws.goes_left[i] = 1;
    for (std::size_t f = 0; f < ws.features; ++f) {
      std::uint32_t* blk = ws.block(f);
      ws.spill.clear();
      std::size_t write = lo;
      for (std::size_t pos = lo; pos < hi; ++pos) {
        const std::uint32_t row = blk[pos];
        if (ws.goes_left[row] != 0) {
          blk[write++] = row;
        } else {
          ws.spill.push_back(row);
        }
      }
      RUSH_ASSERT(write == mid);
      std::copy(ws.spill.begin(), ws.spill.end(), blk + write);
    }
    for (std::size_t i : left_idx) ws.goes_left[i] = 0;
  }

  Node internal;
  internal.feature = split.feature;
  internal.threshold = split.threshold;
  nodes_.push_back(std::move(internal));
  const auto self = static_cast<std::int32_t>(nodes_.size() - 1);

  const std::int32_t left = build(data, weights, left_idx, depth + 1, rng, ws, lo, mid);
  const std::int32_t right = build(data, weights, right_idx, depth + 1, rng, ws, mid, hi);
  nodes_[static_cast<std::size_t>(self)].left = left;
  nodes_[static_cast<std::size_t>(self)].right = right;
  return self;
}

int DecisionTree::predict(std::span<const double> x) const {
  RUSH_EXPECTS(is_fitted());
  RUSH_EXPECTS(x.size() == num_features_);
  return compiled_.predict(x);
}

void DecisionTree::predict_proba_into(std::span<const double> x, std::span<double> out) const {
  RUSH_EXPECTS(is_fitted());
  RUSH_EXPECTS(x.size() == num_features_);
  RUSH_EXPECTS(out.size() == static_cast<std::size_t>(num_classes_));
  const auto leaf = compiled_.leaf(x);
  std::copy(leaf.begin(), leaf.end(), out.begin());
}

void DecisionTree::predict_many(const Dataset& data, std::span<int> out) const {
  RUSH_EXPECTS(is_fitted());
  RUSH_EXPECTS(data.cols() == num_features_);
  RUSH_EXPECTS(out.size() == data.rows());
  for (std::size_t i = 0; i < data.rows(); ++i) out[i] = compiled_.predict(data.row(i));
}

void DecisionTree::compile() {
  compiled_.clear();
  if (nodes_.empty()) return;
  compiled_.reserve(nodes_.size(), num_classes_);
  // BFS relayout: dest slot d holds source node order[d], and a split's
  // children are appended together so they land adjacently — the packed
  // node then needs only the left index (right = left + 1), and the hot
  // upper levels of the tree share cache lines.
  std::vector<std::int32_t> order;
  order.reserve(nodes_.size());
  order.push_back(0);
  for (std::size_t dest = 0; dest < order.size(); ++dest) {
    const Node& n = nodes_[static_cast<std::size_t>(order[dest])];
    if (n.feature >= 0) {
      compiled_.add_split(n.feature, n.threshold, static_cast<std::int32_t>(order.size()));
      order.push_back(n.left);
      order.push_back(n.right);
    } else {
      compiled_.add_leaf(n.proba);
    }
  }
}

std::vector<double> DecisionTree::feature_importances() const { return importances_; }

std::unique_ptr<Classifier> DecisionTree::clone_config() const {
  return std::make_unique<DecisionTree>(config_);
}

int DecisionTree::depth() const noexcept {
  if (nodes_.empty()) return 0;
  // Iterative depth computation over the node array.
  std::vector<std::pair<std::int32_t, int>> stack{{0, 1}};
  int max_depth = 0;
  while (!stack.empty()) {
    const auto [idx, d] = stack.back();
    stack.pop_back();
    max_depth = std::max(max_depth, d);
    const Node& n = nodes_[static_cast<std::size_t>(idx)];
    if (n.feature >= 0) {
      stack.emplace_back(n.left, d + 1);
      stack.emplace_back(n.right, d + 1);
    }
  }
  return max_depth;
}

void DecisionTree::save_body(std::ostream& os) const {
  RUSH_EXPECTS(is_fitted());
  os << "classes " << num_classes_ << "\n";
  os << "features " << num_features_ << "\n";
  os << "nodes " << nodes_.size() << "\n";
  os.precision(17);
  for (const Node& n : nodes_) {
    if (n.feature >= 0) {
      os << "split " << n.feature << " " << n.threshold << " " << n.left << " " << n.right
         << "\n";
    } else {
      os << "leaf";
      for (double p : n.proba) os << " " << p;
      os << "\n";
    }
  }
  os << "importances";
  for (double v : importances_) os << " " << v;
  os << "\n";
}

void DecisionTree::load_body(std::istream& is) {
  std::string tag;
  std::size_t node_count = 0;
  is >> tag >> num_classes_;
  if (tag != "classes" || num_classes_ <= 0) throw ParseError("tree: bad classes header");
  is >> tag >> num_features_;
  if (tag != "features" || num_features_ == 0) throw ParseError("tree: bad features header");
  is >> tag >> node_count;
  if (tag != "nodes" || node_count == 0) throw ParseError("tree: bad nodes header");

  nodes_.clear();
  nodes_.reserve(node_count);
  // save_body writes pre-order, so a split's children follow it and no
  // node is anyone's child twice. Holding every file to that keeps
  // compile() and the predict walks inside the node array and the input.
  std::vector<bool> is_child(node_count, false);
  for (std::size_t i = 0; i < node_count; ++i) {
    is >> tag;
    Node n;
    if (tag == "split") {
      is >> n.feature >> n.threshold >> n.left >> n.right;
      if (!is || n.feature < 0 || n.left < 0 || n.right < 0)
        throw ParseError("tree: malformed split node");
      if (static_cast<std::size_t>(n.feature) >= num_features_)
        throw ParseError("tree: split feature out of range");
      for (const std::int32_t child : {n.left, n.right}) {
        const auto c = static_cast<std::size_t>(child);
        if (c <= i || c >= node_count) throw ParseError("tree: child index out of range");
        if (is_child[c]) throw ParseError("tree: node is the child of two splits");
        is_child[c] = true;
      }
    } else if (tag == "leaf") {
      n.proba.resize(static_cast<std::size_t>(num_classes_));
      for (double& p : n.proba) is >> p;
      if (!is) throw ParseError("tree: malformed leaf node");
    } else {
      throw ParseError("tree: unknown node tag '" + tag + "'");
    }
    nodes_.push_back(std::move(n));
  }
  is >> tag;
  if (tag != "importances") throw ParseError("tree: missing importances");
  importances_.resize(num_features_);
  for (double& v : importances_) is >> v;
  if (!is) throw ParseError("tree: malformed importances");
  compile();
}

}  // namespace rush::ml
