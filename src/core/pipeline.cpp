#include "core/pipeline.hpp"

#include <algorithm>
#include <charconv>
#include <istream>
#include <ostream>

#include "common/error.hpp"
#include "ml/serialize.hpp"

namespace rush::core {

namespace {

/// The shortest text that reads back as the same double, so a saved
/// predictor's thresholds and confidence gate load back bit for bit.
std::string shortest(double value) {
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof buf, value);
  return {buf, res.ptr};
}

}  // namespace

std::vector<std::string> candidate_model_names() {
  return {"extra_trees", "decision_forest", "knn", "adaboost"};
}

std::vector<ModelScore> compare_models(const Corpus& corpus, const Labeler& labeler) {
  RUSH_EXPECTS(!corpus.empty());
  const ml::Dataset all = labeler.binary_dataset(corpus, telemetry::AggregationScope::AllNodes);
  const ml::Dataset job = labeler.binary_dataset(corpus, telemetry::AggregationScope::JobNodes);
  const auto folds = ml::leave_one_group_out(all.groups());

  std::vector<ModelScore> scores;
  for (const std::string& name : candidate_model_names()) {
    const auto prototype = ml::make_classifier(name);
    const auto cv_all = ml::cross_validate(*prototype, all, folds);
    const auto cv_job = ml::cross_validate(*prototype, job, folds);
    ModelScore score;
    score.model = name;
    score.f1_all_nodes = cv_all.mean_f1();
    score.f1_job_nodes = cv_job.mean_f1();
    score.accuracy_all_nodes = cv_all.mean_accuracy();
    score.accuracy_job_nodes = cv_job.mean_accuracy();
    scores.push_back(score);
  }
  return scores;
}

std::string best_model(const std::vector<ModelScore>& scores) {
  RUSH_EXPECTS(!scores.empty());
  // Selection uses the all-node score — the aggregation scope the
  // production predictor is trained with.
  const ModelScore* best = &scores.front();
  for (const ModelScore& s : scores) {
    if (s.f1_all_nodes > best->f1_all_nodes) best = &s;
  }
  return best->model;
}

sched::VariabilityPrediction TrainedPredictor::predict(std::span<const double> features) const {
  PredictScratch scratch;
  return predict(features, scratch);
}

sched::VariabilityPrediction TrainedPredictor::predict(std::span<const double> features,
                                                       PredictScratch& scratch) const {
  RUSH_EXPECTS(ready());
  RUSH_EXPECTS(features.size() == telemetry::FeatureAssembler::kNumFeatures);
  scratch.proba.resize(static_cast<std::size_t>(model_->num_classes()));
  if (selected_.empty()) {
    model_->predict_proba_into(features, scratch.proba);
  } else {
    scratch.reduced.resize(selected_.size());
    for (std::size_t i = 0; i < selected_.size(); ++i)
      scratch.reduced[i] = features[selected_[i]];
    model_->predict_proba_into(scratch.reduced, scratch.proba);
  }
  const auto& proba = scratch.proba;
  int label = static_cast<int>(std::max_element(proba.begin(), proba.end()) - proba.begin());
  if (label == 2 && variation_confidence_ > 0.0 &&
      proba[2] < variation_confidence_) {
    label = 1;  // not confident enough to cost the job a delay
  }
  switch (label) {
    case 0:
      return sched::VariabilityPrediction::NoVariation;
    case 1:
      return sched::VariabilityPrediction::LittleVariation;
    default:
      return sched::VariabilityPrediction::Variation;
  }
}

const ml::Classifier& TrainedPredictor::model() const {
  RUSH_EXPECTS(ready());
  return *model_;
}

void TrainedPredictor::save(std::ostream& os) const {
  RUSH_EXPECTS(ready());
  os << "rush-predictor 1\n";
  os << "scope " << (scope_ == telemetry::AggregationScope::AllNodes ? "all" : "job") << "\n";
  os << "thresholds " << shortest(thresholds_.little_sigma) << " "
     << shortest(thresholds_.variation_sigma) << "\n";
  os << "confidence " << shortest(variation_confidence_) << "\n";
  os << "selected " << selected_.size();
  for (std::size_t f : selected_) os << " " << f;
  os << "\n";
  ml::save_classifier(*model_, os);
}

TrainedPredictor TrainedPredictor::load(std::istream& is) {
  std::string magic;
  int version = 0;
  is >> magic >> version;
  if (magic != "rush-predictor" || version != 1) throw ParseError("not a rush-predictor stream");
  TrainedPredictor out;
  std::string tag, scope;
  is >> tag >> scope;
  if (tag != "scope" || (scope != "all" && scope != "job"))
    throw ParseError("predictor: missing or unknown scope");
  out.scope_ = scope == "all" ? telemetry::AggregationScope::AllNodes
                              : telemetry::AggregationScope::JobNodes;
  is >> tag >> out.thresholds_.little_sigma >> out.thresholds_.variation_sigma;
  if (tag != "thresholds" || !is) throw ParseError("predictor: missing thresholds");
  is >> tag >> out.variation_confidence_;
  if (tag != "confidence" || !is) throw ParseError("predictor: missing confidence");
  std::size_t count = 0;
  is >> tag >> count;
  if (tag != "selected" || !is) throw ParseError("predictor: missing selected features");
  // The list grows as entries arrive, so a huge count fails at the first
  // missing entry instead of allocating up front.
  constexpr std::size_t kF = telemetry::FeatureAssembler::kNumFeatures;
  for (std::size_t i = 0; i < count; ++i) {
    std::size_t f = 0;
    if (!(is >> f) || f >= kF) throw ParseError("predictor: malformed selected feature");
    out.selected_.push_back(f);
  }
  out.model_ = ml::load_classifier(is);
  if (out.model_->num_features() != (count == 0 ? kF : count))
    throw ParseError("predictor: model width differs from the selected features");
  return out;
}

PredictorTrainer::PredictorTrainer(TrainerConfig config) : config_(std::move(config)) {}

TrainedPredictor PredictorTrainer::train(const Corpus& corpus, const Labeler& labeler) const {
  RUSH_EXPECTS(!corpus.empty());

  TrainedPredictor out;
  out.scope_ = config_.scope;
  out.thresholds_ = labeler.thresholds();
  out.variation_confidence_ = config_.variation_confidence;

  // Feature selection runs on the binary labels (paper §IV-A: selection
  // first, the exported model then retrains on three classes).
  const ml::Dataset binary = labeler.binary_dataset(corpus, config_.scope);
  if (config_.run_rfe) {
    const auto prototype = ml::make_classifier(config_.model_name);
    const auto rfe = ml::recursive_feature_elimination(*prototype, binary, config_.rfe);
    out.selected_ = rfe.selected;
  }

  ml::Dataset three = labeler.three_class_dataset(corpus, config_.scope);
  if (!out.selected_.empty()) three = three.select_features(out.selected_);

  out.model_ = ml::make_classifier(config_.model_name);
  const auto counts = three.class_counts();
  const auto k = static_cast<double>(counts.size());
  const auto n = static_cast<double>(three.rows());
  std::vector<double> weights(three.rows());
  for (std::size_t i = 0; i < three.rows(); ++i) {
    const auto c = static_cast<std::size_t>(three.label(i));
    weights[i] = counts[c] > 0 ? n / (k * static_cast<double>(counts[c])) : 0.0;
  }
  out.model_->fit(three, weights);
  return out;
}

}  // namespace rush::core
