#include "ml/adaboost.hpp"

#include <algorithm>
#include <cmath>
#include <istream>
#include <ostream>

#include "common/error.hpp"

namespace rush::ml {

AdaBoost::AdaBoost(AdaBoostConfig config) : config_(config) {
  RUSH_EXPECTS(config_.num_rounds > 0);
  RUSH_EXPECTS(config_.base_max_depth > 0);
}

void AdaBoost::fit(const Dataset& data, std::span<const double> sample_weights) {
  RUSH_EXPECTS(!data.empty());
  stages_.clear();
  num_classes_ = std::max(2, data.num_classes());
  num_features_ = data.cols();
  const double k = static_cast<double>(num_classes_);

  std::vector<double> weights;
  if (sample_weights.empty()) {
    weights.assign(data.rows(), 1.0 / static_cast<double>(data.rows()));
  } else {
    RUSH_EXPECTS(sample_weights.size() == data.rows());
    weights.assign(sample_weights.begin(), sample_weights.end());
    double total = 0.0;
    for (double w : weights) total += w;
    RUSH_EXPECTS(total > 0.0);
    for (double& w : weights) w /= total;
  }

  // Rounds change only the sample weights, so one presort of the dataset
  // and one workspace serve every round's tree.
  const PresortedIndex presorted(data);
  FitWorkspace workspace(presorted);
  stages_.reserve(config_.num_rounds);

  Rng rng(config_.seed);
  std::vector<bool> wrong(data.rows());
  for (std::size_t round = 0; round < config_.num_rounds; ++round) {
    TreeConfig tc;
    tc.max_depth = config_.base_max_depth;
    tc.min_samples_leaf = 1;
    tc.seed = rng.next();
    Stage stage{DecisionTree(tc), 0.0};
    stage.tree.fit(data, weights, workspace);

    double error = 0.0;
    for (std::size_t i = 0; i < data.rows(); ++i) {
      wrong[i] = stage.tree.compiled().predict(data.row(i)) != data.label(i);
      if (wrong[i]) error += weights[i];
    }

    if (error <= 1e-12) {
      // Perfect stage: give it a large but finite say and stop boosting.
      stage.alpha = std::log(1e12) + std::log(k - 1.0);
      stages_.push_back(std::move(stage));
      break;
    }
    // SAMME requires the base learner to beat random guessing (1 - 1/K).
    if (error >= 1.0 - 1.0 / k) break;

    stage.alpha = std::log((1.0 - error) / error) + std::log(k - 1.0);
    const double boost = std::exp(stage.alpha);
    double total = 0.0;
    for (std::size_t i = 0; i < data.rows(); ++i) {
      if (wrong[i]) weights[i] *= boost;
      total += weights[i];
    }
    for (double& w : weights) w /= total;
    stages_.push_back(std::move(stage));
  }

  // Degenerate data (single class, unbeatable error): fall back to one
  // unweighted tree so the model is still usable.
  if (stages_.empty()) {
    TreeConfig tc;
    tc.max_depth = config_.base_max_depth;
    tc.seed = rng.next();
    Stage stage{DecisionTree(tc), 1.0};
    stage.tree.fit(data, {}, workspace);
    stages_.push_back(std::move(stage));
  }

  compile_();
}

void AdaBoost::compile_() {
  compiled_.clear();
  for (const Stage& s : stages_) compiled_.add_tree(s.tree.compiled(), s.alpha);
}

void AdaBoost::predict_proba_into(std::span<const double> x, std::span<double> out) const {
  RUSH_EXPECTS(is_fitted());
  RUSH_EXPECTS(x.size() == num_features_);
  RUSH_EXPECTS(out.size() == static_cast<std::size_t>(num_classes_));
  compiled_.vote_proba_into(x, out);
}

std::vector<double> AdaBoost::feature_importances() const {
  if (!is_fitted()) return {};
  std::vector<double> out(num_features_, 0.0);
  double total_alpha = 0.0;
  for (const Stage& s : stages_) total_alpha += s.alpha;
  if (total_alpha <= 0.0) return out;
  for (const Stage& s : stages_) {
    const auto imp = s.tree.feature_importances();
    for (std::size_t f = 0; f < out.size(); ++f) out[f] += s.alpha / total_alpha * imp[f];
  }
  return out;
}

std::unique_ptr<Classifier> AdaBoost::clone_config() const {
  return std::make_unique<AdaBoost>(config_);
}

void AdaBoost::save_body(std::ostream& os) const {
  RUSH_EXPECTS(is_fitted());
  os << "classes " << num_classes_ << "\n";
  os << "features " << num_features_ << "\n";
  os << "stages " << stages_.size() << "\n";
  os.precision(17);
  for (const Stage& s : stages_) {
    os << "alpha " << s.alpha << "\n";
    s.tree.save_body(os);
  }
}

void AdaBoost::load_body(std::istream& is) {
  std::string tag;
  std::size_t stage_count = 0;
  is >> tag >> num_classes_;
  if (tag != "classes" || num_classes_ < 2) throw ParseError("adaboost: bad classes header");
  is >> tag >> num_features_;
  if (tag != "features") throw ParseError("adaboost: bad features header");
  is >> tag >> stage_count;
  if (tag != "stages" || stage_count == 0) throw ParseError("adaboost: bad stages header");
  stages_.clear();
  for (std::size_t i = 0; i < stage_count; ++i) {
    is >> tag;
    Stage s;
    if (tag != "alpha") throw ParseError("adaboost: missing alpha");
    is >> s.alpha;
    if (!is) throw ParseError("adaboost: malformed alpha");
    s.tree.load_body(is);
    if (s.tree.num_features() != num_features_ || s.tree.num_classes() > num_classes_)
      throw ParseError("adaboost: stage tree shape does not match the header");
    stages_.push_back(std::move(s));
  }
  compile_();
}

}  // namespace rush::ml
