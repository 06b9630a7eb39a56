#include "ml/forest.hpp"

#include <algorithm>
#include <cmath>
#include <istream>
#include <ostream>

#include "common/error.hpp"
#include "common/task_pool.hpp"

namespace rush::ml {

Forest::Forest(ForestConfig config) : config_(config) {
  RUSH_EXPECTS(config_.num_trees > 0);
}

void Forest::fit(const Dataset& data, std::span<const double> sample_weights) {
  RUSH_EXPECTS(!data.empty());
  trees_.clear();
  num_classes_ = data.num_classes();
  num_features_ = data.cols();

  std::size_t max_features = config_.max_features;
  if (max_features == 0) {
    max_features = static_cast<std::size_t>(
        std::max(1.0, std::round(std::sqrt(static_cast<double>(data.cols())))));
  }

  // Seeds are drawn sequentially up front so results are identical
  // regardless of how many threads fit the (independent) trees.
  Rng rng(config_.seed);
  std::vector<std::uint64_t> tree_seeds(config_.num_trees);
  std::vector<std::uint64_t> boot_seeds(config_.num_trees);
  for (std::size_t t = 0; t < config_.num_trees; ++t) {
    tree_seeds[t] = rng.next();
    boot_seeds[t] = rng.next();
  }

  trees_.clear();
  trees_.reserve(config_.num_trees);
  for (std::size_t t = 0; t < config_.num_trees; ++t) {
    TreeConfig tc;
    tc.max_depth = config_.max_depth;
    tc.max_features = max_features;
    tc.random_thresholds = config_.random_thresholds;
    tc.seed = tree_seeds[t];
    trees_.emplace_back(tc);
  }

  // Trees are independent and their seeds are fixed above, so they fit
  // on the shared task pool; each writes only trees_[t].
  shared_pool().parallel_for_indexed(config_.num_trees, [&](std::size_t t) {
    if (config_.bootstrap) {
      Rng boot_rng(boot_seeds[t]);
      std::vector<std::size_t> sample(data.rows());
      for (auto& s : sample)
        s = static_cast<std::size_t>(
            boot_rng.uniform_int(0, static_cast<std::int64_t>(data.rows()) - 1));
      const Dataset boot = data.subset(sample);
      // Bootstrapped rows inherit their original weights.
      if (sample_weights.empty()) {
        trees_[t].fit(boot);
      } else {
        std::vector<double> w(sample.size());
        for (std::size_t i = 0; i < sample.size(); ++i) w[i] = sample_weights[sample[i]];
        trees_[t].fit(boot, w);
      }
    } else {
      trees_[t].fit(data, sample_weights);
    }
  });

  compile_();
}

void Forest::compile_() {
  compiled_.clear();
  for (const DecisionTree& tree : trees_) compiled_.add_tree(tree.compiled());
}

void Forest::predict_proba_into(std::span<const double> x, std::span<double> out) const {
  RUSH_EXPECTS(is_fitted());
  RUSH_EXPECTS(x.size() == num_features_);
  RUSH_EXPECTS(out.size() == static_cast<std::size_t>(num_classes_));
  compiled_.mean_proba_into(x, out);
}

std::vector<double> Forest::feature_importances() const {
  if (!is_fitted()) return {};
  std::vector<double> out(num_features_, 0.0);
  for (const DecisionTree& tree : trees_) {
    const auto imp = tree.feature_importances();
    for (std::size_t f = 0; f < out.size(); ++f) out[f] += imp[f];
  }
  double total = 0.0;
  for (double v : out) total += v;
  if (total > 0.0)
    for (double& v : out) v /= total;
  return out;
}

std::unique_ptr<Classifier> Forest::clone_config() const {
  return std::make_unique<Forest>(config_);
}

void Forest::save_body(std::ostream& os) const {
  RUSH_EXPECTS(is_fitted());
  os << "flavor " << (config_.random_thresholds ? 1 : 0) << "\n";
  os << "classes " << num_classes_ << "\n";
  os << "features " << num_features_ << "\n";
  os << "trees " << trees_.size() << "\n";
  for (const DecisionTree& tree : trees_) tree.save_body(os);
}

void Forest::load_body(std::istream& is) {
  std::string tag;
  int flavor = 0;
  std::size_t tree_count = 0;
  is >> tag >> flavor;
  if (tag != "flavor") throw ParseError("forest: bad flavor header");
  config_.random_thresholds = flavor != 0;
  is >> tag >> num_classes_;
  if (tag != "classes" || num_classes_ <= 0) throw ParseError("forest: bad classes header");
  is >> tag >> num_features_;
  if (tag != "features") throw ParseError("forest: bad features header");
  is >> tag >> tree_count;
  if (tag != "trees" || tree_count == 0) throw ParseError("forest: bad trees header");
  trees_.clear();
  for (std::size_t t = 0; t < tree_count; ++t) {
    DecisionTree tree;
    tree.load_body(is);
    if (tree.num_features() != num_features_ || tree.num_classes() > num_classes_)
      throw ParseError("forest: tree shape does not match the header");
    trees_.push_back(std::move(tree));
  }
  config_.num_trees = tree_count;
  compile_();
}

ForestConfig decision_forest_config(std::size_t num_trees, std::uint64_t seed) {
  ForestConfig c;
  c.num_trees = num_trees;
  c.bootstrap = true;
  c.random_thresholds = false;
  c.seed = seed;
  return c;
}

ForestConfig extra_trees_config(std::size_t num_trees, std::uint64_t seed) {
  ForestConfig c;
  c.num_trees = num_trees;
  c.bootstrap = false;
  c.random_thresholds = true;
  c.seed = seed;
  return c;
}

}  // namespace rush::ml
