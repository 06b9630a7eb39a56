// The variability predictor module (paper §IV-A, Fig. 2 left half).
//
// Model selection: the four classifier families (Extra Trees, Decision
// Forest, KNN, AdaBoost) are compared by mean F1 under
// leave-one-application-out cross-validation on binary labels, for both
// aggregation scopes (Fig. 3). Feature selection: recursive feature
// elimination on the winning model. The exported production predictor is
// retrained on three output classes and carries its scaler-free feature
// subset, scope, and label thresholds, and can be saved/loaded (the
// paper's "pickled and exported" step).
#pragma once

#include <iosfwd>
#include <memory>

#include "core/labeler.hpp"
#include "ml/classifier.hpp"
#include "ml/rfe.hpp"
#include "ml/validation.hpp"
#include "sched/oracle.hpp"

namespace rush::core {

/// One bar pair of Fig. 3.
struct ModelScore {
  std::string model;
  double f1_all_nodes = 0.0;
  double f1_job_nodes = 0.0;
  double accuracy_all_nodes = 0.0;
  double accuracy_job_nodes = 0.0;
};

/// The four model families compared in the paper, by registry name.
std::vector<std::string> candidate_model_names();

/// Leave-one-app-out F1 comparison over binary labels (Fig. 3 data).
std::vector<ModelScore> compare_models(const Corpus& corpus, const Labeler& labeler);

/// Best model name by all-node-scope F1 (paper: AdaBoost wins).
std::string best_model(const std::vector<ModelScore>& scores);

/// A fitted production model plus everything needed to apply it online.
class TrainedPredictor {
 public:
  TrainedPredictor() = default;

  /// Reusable buffers for the steady-state predict path; a caller that
  /// keeps one across calls avoids all per-prediction allocation (the
  /// underlying ensembles predict via their compiled planes).
  struct PredictScratch {
    std::vector<double> reduced;
    std::vector<double> proba;
  };

  /// Predict from a full 282-feature vector (the selected subset is
  /// applied internally). Returns the three-class prediction.
  [[nodiscard]] sched::VariabilityPrediction predict(std::span<const double> features) const;
  /// Same prediction using caller-owned scratch buffers.
  [[nodiscard]] sched::VariabilityPrediction predict(std::span<const double> features,
                                                     PredictScratch& scratch) const;

  [[nodiscard]] bool ready() const noexcept { return model_ != nullptr; }
  [[nodiscard]] telemetry::AggregationScope scope() const noexcept { return scope_; }
  /// Minimum ensemble vote share needed to emit "variation" (lower votes
  /// downgrade to "little variation"); 0 disables the gate.
  [[nodiscard]] double variation_confidence() const noexcept { return variation_confidence_; }
  [[nodiscard]] const std::vector<std::size_t>& selected_features() const noexcept {
    return selected_;
  }
  [[nodiscard]] const ml::Classifier& model() const;
  [[nodiscard]] const LabelThresholds& thresholds() const noexcept { return thresholds_; }

  void save(std::ostream& os) const;
  static TrainedPredictor load(std::istream& is);

 private:
  friend class PredictorTrainer;
  std::unique_ptr<ml::Classifier> model_;
  std::vector<std::size_t> selected_;  // indices into the 282 features
  telemetry::AggregationScope scope_ = telemetry::AggregationScope::JobNodes;
  LabelThresholds thresholds_;
  double variation_confidence_ = 0.0;
};

struct TrainerConfig {
  /// Registry name of the model family (see ml/serialize.hpp).
  std::string model_name = "adaboost";
  telemetry::AggregationScope scope = telemetry::AggregationScope::AllNodes;
  /// Run recursive feature elimination before the final fit.
  bool run_rfe = false;
  ml::RfeConfig rfe;
  /// Confidence gate on "variation" outputs (see
  /// TrainedPredictor::variation_confidence).
  double variation_confidence = 0.36;
};

class PredictorTrainer {
 public:
  explicit PredictorTrainer(TrainerConfig config = {});

  /// Train the production three-class predictor on `corpus`, labeled by
  /// `labeler` (which may be built from a different reference corpus —
  /// that is how PDPA trains on a four-app subset). Samples are weighted
  /// inversely to class frequency: variation is rare (imbalanced labels,
  /// §VI-B), and without the weights the boosted ensemble underfits the
  /// minority class and the scheduler misses most congestion episodes.
  [[nodiscard]] TrainedPredictor train(const Corpus& corpus, const Labeler& labeler) const;

 private:
  TrainerConfig config_;
};

}  // namespace rush::core
