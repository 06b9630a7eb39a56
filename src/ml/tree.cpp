#include "ml/tree.hpp"

#include <algorithm>
#include <cmath>
#include <istream>
#include <limits>
#include <numeric>
#include <ostream>

#include "common/error.hpp"

namespace rush::ml {

namespace {

/// Weighted Gini impurity from `k` per-class weight totals.
inline double gini(const double* class_weights, std::size_t k, double total) noexcept {
  if (total <= 0.0) return 0.0;
  double sum_sq = 0.0;
  for (std::size_t c = 0; c < k; ++c) {
    const double p = class_weights[c] / total;
    sum_sq += p * p;
  }
  return 1.0 - sum_sq;
}

/// Impurity decrease of a split that sends `left` (per class, `lw` in all)
/// of a node's `parent` weights (`total_w` in all) to the left child.
/// `right` is scratch for the right child's per-class weights.
inline double decrease_of(const double* parent, const double* left, double* right,
                          std::size_t k, double lw, double total_w,
                          double parent_gini) noexcept {
  for (std::size_t c = 0; c < k; ++c) right[c] = parent[c] - left[c];
  const double rw = total_w - lw;
  const double child = (lw * gini(left, k, lw) + rw * gini(right, k, rw)) / total_w;
  return parent_gini - child;
}

/// The threshold between two adjacent distinct values of a scan: their
/// midpoint, or `value` when the midpoint rounds up to `next` (adjacent
/// doubles) or overflows, as scikit-learn does. Either way
/// value <= threshold < next, so the split sends left exactly the rows the
/// scan counted.
inline double threshold_between(double value, double next) noexcept {
  const double mid = 0.5 * (value + next);
  return mid < next ? mid : value;
}

/// Stable partition of src[lo, hi) into dst[lo, hi): the rows marked in
/// `goes_left` fill [lo, mid) and the rest [mid, hi), each side in source
/// order. `src` may be `dst`: the left cursor never passes the read
/// cursor, and right rows wait in `spill`. A row's side is a coin flip, so
/// the loop stores every row in both places and advances one cursor
/// instead of branching.
void stable_partition(const std::uint32_t* src, std::uint32_t* dst, std::size_t lo,
                      std::size_t hi, std::size_t mid, const unsigned char* goes_left,
                      std::uint32_t* spill) {
  std::size_t l = lo;
  std::size_t r = 0;
  for (std::size_t pos = lo; pos < hi; ++pos) {
    const std::uint32_t row = src[pos];
    const std::size_t g = goes_left[row];
    dst[l] = row;
    spill[r] = row;
    l += g;
    r += 1 - g;
  }
  RUSH_ASSERT(l == mid);
  std::copy_n(spill, r, dst + mid);
}

/// One feature's values by row: the index's feature-major column, or in
/// random-threshold mode a strided walk down the row-major matrix.
struct Column {
  const double* base;
  std::size_t stride;
  double operator[](std::uint32_t row) const noexcept { return base[row * stride]; }
};

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

FitWorkspace::FitWorkspace(std::size_t rows)
    : rows_(rows), blocks_(rows), goes_left_(rows), spill_(rows) {}

FitWorkspace::FitWorkspace(const PresortedIndex& index) : FitWorkspace(index.rows()) {
  index_ = &index;
  blocks_.resize((index.features() + 1) * rows_);
  constant_.resize(index.features());
  for (std::size_t f = 0; f < index.features(); ++f) {
    const auto order = index.order(f);
    const auto col = index.column(f);
    constant_[f] = rows_ == 0 || col[order.front()] == col[order.back()];
    if (constant_[f] == 0) varying_.push_back(f);
  }
}

// One fit. The root's feature blocks are the index's own orders; a split
// stable-partitions its node's range of each block the children will scan
// into the workspace, left rows then right rows, so every range below the
// root visits its rows in (value, row) order without re-sorting, and the
// row block in ascending row order. Parent weights, leaf probabilities and
// importances sum over the row block: ascending row order fixes their bits.
class DecisionTree::Builder {
 public:
  Builder(DecisionTree& tree, const Dataset& data, std::span<const double> weights,
          FitWorkspace& ws)
      : tree_(tree),
        cfg_(tree.config_),
        data_(data),
        labels_(data.labels().data()),
        weights_(weights.data()),
        ws_(ws),
        k_(static_cast<std::size_t>(tree.num_classes_)),
        rng_(cfg_.seed) {
    ws_.node_w_.resize(k_);
    ws_.left_w_.resize(k_);
    ws_.right_w_.resize(k_);
    std::iota(ws_.row_block(), ws_.row_block() + data.rows(), 0U);
    if (ws_.index_ == nullptr) return;
    // Each row's weight in its label's slot and +0.0 in the others, so the
    // exact scan adds to every class sum with no branch on the label (a
    // coin flip per row) and no store-to-load chain through memory. A sum
    // starts at +0.0 and so never becomes -0.0, and adding +0.0 to it
    // changes no bit: each class sum adds the same weights in the same
    // order as `left[label] += w` would. A select, not w * (label == c),
    // which would turn an infinite weight into NaN.
    ws_.class_w_.resize(data.rows() * k_);
    for (std::size_t row = 0; row < data.rows(); ++row)
      for (std::size_t c = 0; c < k_; ++c)
        ws_.class_w_[row * k_ + c] =
            static_cast<std::size_t>(labels_[row]) == c ? weights_[row] : 0.0;
  }

  void build(std::size_t lo, std::size_t hi, int depth);

 private:
  struct Split {
    bool found = false;
    int feature = -1;
    double threshold = 0.0;
    double impurity_decrease = 0.0;
    std::size_t left_n = 0;
    double node_weight = 0.0;
  };

  /// What every candidate feature's scan of one node shares.
  struct NodeStats {
    std::size_t lo;
    std::size_t hi;
    double total_w;
    double gini;
  };

  Split find_split(std::size_t lo, std::size_t hi, int depth);
  template <std::size_t K>
  void scan(std::size_t f, const std::uint32_t* blk, const NodeStats& node, Split& best);
  void draw_threshold(std::size_t f, const NodeStats& node, Split& best);
  std::size_t partition(const Split& split, std::size_t lo, std::size_t hi, int depth);
  void make_leaf(std::size_t lo, std::size_t hi);
  [[nodiscard]] Column column(std::size_t f) const;

  DecisionTree& tree_;
  const TreeConfig& cfg_;
  const Dataset& data_;
  const int* labels_;
  const double* weights_;
  FitWorkspace& ws_;
  std::size_t k_;
  Rng rng_;
};

DecisionTree::DecisionTree(TreeConfig config) : config_(config) {
  RUSH_EXPECTS(config_.max_depth > 0);
  RUSH_EXPECTS(config_.min_samples_leaf >= 1);
}

void DecisionTree::fit(const Dataset& data, std::span<const double> sample_weights) {
  if (config_.random_thresholds) {
    FitWorkspace ws(data.rows());
    fit_impl(data, sample_weights, ws);
  } else {
    const PresortedIndex presorted(data);
    FitWorkspace ws(presorted);
    fit_impl(data, sample_weights, ws);
  }
}

void DecisionTree::fit(const Dataset& data, std::span<const double> sample_weights,
                       FitWorkspace& workspace) {
  RUSH_EXPECTS(!config_.random_thresholds);
  const PresortedIndex& presorted = *workspace.index_;
  RUSH_EXPECTS(presorted.rows() == data.rows() && presorted.features() == data.cols());
  fit_impl(data, sample_weights, workspace);
}

void DecisionTree::fit_impl(const Dataset& data, std::span<const double> sample_weights,
                            FitWorkspace& ws) {
  RUSH_EXPECTS(!data.empty());
  RUSH_EXPECTS(sample_weights.empty() || sample_weights.size() == data.rows());

  num_classes_ = data.num_classes();
  num_features_ = data.cols();
  compiled_ = CompiledTree(num_classes_);
  importances_.assign(num_features_, 0.0);

  std::vector<double> unit;
  if (sample_weights.empty()) {
    unit.assign(data.rows(), 1.0);
    sample_weights = unit;
  }
  Builder(*this, data, sample_weights, ws).build(0, data.rows(), 0);

  // Normalize importances to sum to 1 (when any split was made).
  double total = 0.0;
  for (double v : importances_) total += v;
  if (total > 0.0)
    for (double& v : importances_) v /= total;
}

Column DecisionTree::Builder::column(std::size_t f) const {
  if (ws_.index_ != nullptr) return {ws_.index_->column(f).data(), 1};
  return {data_.row(0).data() + f, data_.cols()};
}

void DecisionTree::Builder::make_leaf(std::size_t lo, std::size_t hi) {
  const std::uint32_t* rows = ws_.row_block();
  const std::span<double> proba(ws_.node_w_);
  std::fill(proba.begin(), proba.end(), 0.0);
  double total = 0.0;
  for (std::size_t pos = lo; pos < hi; ++pos) {
    const std::uint32_t row = rows[pos];
    proba[static_cast<std::size_t>(labels_[row])] += weights_[row];
    total += weights_[row];
  }
  if (total > 0.0)
    for (double& p : proba) p /= total;
  tree_.compiled_.add_leaf(proba);
}

DecisionTree::Builder::Split DecisionTree::Builder::find_split(std::size_t lo, std::size_t hi,
                                                               int depth) {
  // Parent impurity, summed in ascending row order.
  const std::uint32_t* rows = ws_.row_block();
  double* parent_w = ws_.node_w_.data();
  std::fill_n(parent_w, k_, 0.0);
  double total_w = 0.0;
  for (std::size_t pos = lo; pos < hi; ++pos) {
    const std::uint32_t row = rows[pos];
    parent_w[static_cast<std::size_t>(labels_[row])] += weights_[row];
    total_w += weights_[row];
  }
  const NodeStats node{lo, hi, total_w, gini(parent_w, k_, total_w)};
  if (node.gini <= 0.0 || total_w <= 0.0) return {};

  // Candidate features: all, or a random subset of max_features.
  const std::size_t features = tree_.num_features_;
  std::vector<std::size_t>& candidates = ws_.candidates_;
  if (cfg_.max_features == 0 || cfg_.max_features >= features) {
    candidates.resize(features);
    for (std::size_t f = 0; f < features; ++f) candidates[f] = f;
  } else {
    rng_.sample_indices(features, cfg_.max_features, candidates);
  }

  Split best;
  for (std::size_t f : candidates) {
    if (cfg_.random_thresholds) {
      draw_threshold(f, node, best);
      continue;
    }
    // A feature with one value over the whole fit splits no node, and its
    // block is never partitioned.
    if (ws_.constant_[f] != 0) continue;
    const std::uint32_t* blk =
        (depth == 0 ? ws_.index_->order(f).data() : ws_.block(f)) + node.lo;
    if (k_ == 2) {
      scan<2>(f, blk, node, best);
    } else if (k_ == 3) {
      scan<3>(f, blk, node, best);
    } else {
      scan<0>(f, blk, node, best);
    }
  }
  best.node_weight = total_w;
  return best;
}

// The exact split scan of one candidate feature: the node's rows arrive
// in (value, row) order from `blk`, and every boundary between distinct
// values is offered to `best`. K is the class count, or 0 for a count
// known only at run time. Production fits have 2 or 3 classes, and for
// those the left side's per-class sums live in registers.
template <std::size_t K>
void DecisionTree::Builder::scan(std::size_t f, const std::uint32_t* blk, const NodeStats& node,
                                 Split& best) {
  const double* col = ws_.index_->column(f).data();
  const std::size_t count = node.hi - node.lo;
  double value = col[blk[0]];
  if (value == col[blk[count - 1]]) return;  // one value in this node

  const std::size_t k = K == 0 ? k_ : K;
  const double* class_w = ws_.class_w_.data();
  double left_regs[K == 0 ? 1 : K] = {};
  double right_regs[K == 0 ? 1 : K] = {};
  double* const left = K == 0 ? ws_.left_w_.data() : left_regs;
  double* const right = K == 0 ? ws_.right_w_.data() : right_regs;
  std::fill_n(left, k, 0.0);
  double lw = 0.0;
  for (std::size_t pos = 0; pos + 1 < count; ++pos) {
    const std::uint32_t row = blk[pos];
    const double* row_w = class_w + row * k;
    for (std::size_t c = 0; c < k; ++c) left[c] += row_w[c];
    lw += weights_[row];
    const double here = value;
    value = col[blk[pos + 1]];
    if (here == value) continue;  // not a boundary
    const std::size_t left_n = pos + 1;
    const std::size_t right_n = count - left_n;
    if (left_n < cfg_.min_samples_leaf || right_n < cfg_.min_samples_leaf) continue;
    const double decrease =
        decrease_of(ws_.node_w_.data(), left, right, k, lw, node.total_w, node.gini);
    if (decrease > best.impurity_decrease) {
      best = Split{true, static_cast<int>(f), threshold_between(here, value), decrease, left_n};
    }
  }
}

// Extra-trees: one uniform threshold in (min, max) of the node's values.
void DecisionTree::Builder::draw_threshold(std::size_t f, const NodeStats& node, Split& best) {
  const std::uint32_t* rows = ws_.row_block();
  const Column col = column(f);
  double min_v = std::numeric_limits<double>::max();
  double max_v = std::numeric_limits<double>::lowest();
  for (std::size_t pos = node.lo; pos < node.hi; ++pos) {
    const double v = col[rows[pos]];
    min_v = std::min(min_v, v);
    max_v = std::max(max_v, v);
  }
  if (max_v <= min_v) return;
  const double threshold = rng_.uniform(min_v, max_v);
  double* left = ws_.left_w_.data();
  std::fill_n(left, k_, 0.0);
  double lw = 0.0;
  std::size_t left_n = 0;
  for (std::size_t pos = node.lo; pos < node.hi; ++pos) {
    const std::uint32_t row = rows[pos];
    if (col[row] <= threshold) {
      left[static_cast<std::size_t>(labels_[row])] += weights_[row];
      lw += weights_[row];
      ++left_n;
    }
  }
  const std::size_t right_n = node.hi - node.lo - left_n;
  if (left_n < cfg_.min_samples_leaf || right_n < cfg_.min_samples_leaf) return;
  const double decrease = decrease_of(ws_.node_w_.data(), left, ws_.right_w_.data(), k_, lw,
                                      node.total_w, node.gini);
  if (decrease > best.impurity_decrease) {
    best = Split{true, static_cast<int>(f), threshold, decrease, left_n};
  }
}

std::size_t DecisionTree::Builder::partition(const Split& split, std::size_t lo, std::size_t hi,
                                             int depth) {
  // Each row's side, read from the split feature's column.
  std::uint32_t* rows = ws_.row_block();
  unsigned char* goes_left = ws_.goes_left_.data();
  const Column col = column(static_cast<std::size_t>(split.feature));
  std::size_t left_n = 0;
  for (std::size_t pos = lo; pos < hi; ++pos) {
    const std::uint32_t row = rows[pos];
    const bool left = col[row] <= split.threshold;
    goes_left[row] = left ? 1 : 0;
    left_n += left ? 1 : 0;
  }
  RUSH_ASSERT(left_n == split.left_n);
  const std::size_t mid = lo + left_n;

  std::uint32_t* spill = ws_.spill_.data();
  stable_partition(rows, rows, lo, hi, mid, goes_left, spill);
  // Random-threshold mode has no feature blocks, and children at
  // max_depth are leaves, which read only the row block.
  if (ws_.index_ == nullptr || depth + 1 >= cfg_.max_depth) return mid;
  for (std::size_t f : ws_.varying_) {
    const std::uint32_t* src = depth == 0 ? ws_.index_->order(f).data() : ws_.block(f);
    stable_partition(src, ws_.block(f), lo, hi, mid, goes_left, spill);
  }
  return mid;
}

// Depth first, left subtree before right: the nodes land in pre-order.
void DecisionTree::Builder::build(std::size_t lo, std::size_t hi, int depth) {
  RUSH_ASSERT(lo < hi);
  Split split;
  if (depth < cfg_.max_depth) split = find_split(lo, hi, depth);
  if (!split.found) return make_leaf(lo, hi);

  // Total node weight scales the recorded importance so splits near the
  // root matter more.
  tree_.importances_[static_cast<std::size_t>(split.feature)] +=
      split.node_weight * split.impurity_decrease;
  const std::size_t mid = partition(split, lo, hi, depth);

  CompiledTree& nodes = tree_.compiled_;
  const std::int32_t self = nodes.add_split(split.feature, split.threshold);
  build(lo, mid, depth + 1);
  nodes.set_right(self, static_cast<std::int32_t>(nodes.node_count()));
  build(mid, hi, depth + 1);
}

void DecisionTree::predict_proba_into(std::span<const double> x, std::span<double> out) const {
  RUSH_EXPECTS(is_fitted());
  RUSH_EXPECTS(x.size() == num_features_);
  RUSH_EXPECTS(out.size() == static_cast<std::size_t>(num_classes_));
  const auto leaf = compiled_.leaf(x);
  std::copy(leaf.begin(), leaf.end(), out.begin());
}

std::vector<double> DecisionTree::feature_importances() const { return importances_; }

std::unique_ptr<Classifier> DecisionTree::clone_config() const {
  return std::make_unique<DecisionTree>(config_);
}

void DecisionTree::save_body(std::ostream& os) const {
  RUSH_EXPECTS(is_fitted());
  os << "classes " << num_classes_ << "\n";
  os << "features " << num_features_ << "\n";
  os << "nodes " << compiled_.node_count() << "\n";
  os.precision(17);
  const auto nodes = compiled_.nodes();
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const CompiledNode& n = nodes[i];
    if (n.feature != CompiledTree::kLeaf) {
      os << "split " << n.feature << " " << n.threshold << " " << i + 1 << " "
         << compiled_.right_child(i) << "\n";
    } else {
      os << "leaf";
      for (double p : compiled_.proba(n)) os << " " << p;
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

  // Containers grow as entries arrive, so a huge count in a header fails
  // at the first missing entry instead of allocating up front.
  compiled_ = CompiledTree(num_classes_);
  std::vector<double> proba;
  for (std::size_t i = 0; i < node_count; ++i) {
    is >> tag;
    if (tag == "split") {
      int feature = -1;
      double threshold = 0.0;
      std::int32_t left = -1;
      std::int32_t right = -1;
      is >> feature >> threshold >> left >> right;
      if (!is || feature < 0 || left < 0 || right < 0)
        throw ParseError("tree: malformed split node");
      if (static_cast<std::size_t>(feature) >= num_features_)
        throw ParseError("tree: split feature out of range");
      if (static_cast<std::size_t>(left) != i + 1)
        throw ParseError("tree: a split's left child is not the next node");
      if (static_cast<std::size_t>(right) <= i + 1 || static_cast<std::size_t>(right) >= node_count)
        throw ParseError("tree: child index out of range");
      compiled_.set_right(compiled_.add_split(feature, threshold), right);
    } else if (tag == "leaf") {
      proba.clear();
      for (int c = 0; c < num_classes_; ++c) {
        double p = 0.0;
        if (!(is >> p)) throw ParseError("tree: malformed leaf node");
        proba.push_back(p);
      }
      compiled_.add_leaf(proba);
    } else {
      throw ParseError("tree: unknown node tag '" + tag + "'");
    }
  }
  // save_body writes pre-order, so a split's children follow it and no
  // node is anyone's child twice. Holding every file to that keeps the
  // predict walks inside the node array and the input.
  std::vector<bool> is_child(node_count, false);
  for (std::size_t i = 0; i < node_count; ++i) {
    if (compiled_.nodes()[i].feature == CompiledTree::kLeaf) continue;
    for (const std::size_t c : {i + 1, compiled_.right_child(i)}) {
      if (is_child[c]) throw ParseError("tree: node is the child of two splits");
      is_child[c] = true;
    }
  }
  is >> tag;
  if (tag != "importances") throw ParseError("tree: missing importances");
  importances_.clear();
  for (std::size_t f = 0; f < num_features_; ++f) {
    double v = 0.0;
    if (!(is >> v)) throw ParseError("tree: malformed importances");
    importances_.push_back(v);
  }
}

}  // namespace rush::ml
