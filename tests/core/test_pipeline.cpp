#include "core/pipeline.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace rush::core {
namespace {

constexpr std::size_t kF = telemetry::FeatureAssembler::kNumFeatures;

/// Synthetic corpus where feature 0 (a counter aggregate) drives run time:
/// runtime = base + gain * f0 + noise, so variation is learnable.
Corpus learnable_corpus(std::size_t per_app, std::uint64_t seed) {
  Rng rng(seed);
  Corpus c;
  const std::vector<std::string> apps{"A", "B", "C"};
  for (std::size_t a = 0; a < apps.size(); ++a) {
    const double base = 100.0 * static_cast<double>(a + 1);
    for (std::size_t i = 0; i < per_app; ++i) {
      CollectedSample s;
      s.app = apps[a];
      s.app_index = static_cast<int>(a);
      s.node_count = 16;
      const double congestion = rng.bernoulli(0.15) ? rng.uniform(0.6, 1.0) : rng.uniform(0.0, 0.3);
      s.runtime_s = base * (1.0 + congestion) + rng.normal(0.0, base * 0.01);
      s.features_all.assign(kF, 0.0);
      s.features_job.assign(kF, 0.0);
      // Like real counters, many features echo the congestion state, so
      // per-node feature subsampling still finds the signal.
      for (std::size_t f = 0; f < 24; ++f) {
        s.features_all[f] = congestion + rng.normal(0.0, 0.02);
        s.features_job[f] = congestion + rng.normal(0.0, 0.02);
      }
      // A couple of noise features so the models have to select.
      s.features_all[30] = rng.uniform(0, 1);
      s.features_job[30] = rng.uniform(0, 1);
      c.add(std::move(s));
    }
  }
  return c;
}

TEST(Pipeline, CandidateModelsMatchPaper) {
  EXPECT_EQ(candidate_model_names(),
            (std::vector<std::string>{"extra_trees", "decision_forest", "knn", "adaboost"}));
}

TEST(Pipeline, CompareModelsScoresAllCandidatesWell) {
  const Corpus corpus = learnable_corpus(120, 1);
  const Labeler labeler(corpus);
  const auto scores = compare_models(corpus, labeler);
  ASSERT_EQ(scores.size(), 4u);
  for (const ModelScore& s : scores) {
    // The congestion feature cleanly separates variation here.
    EXPECT_GT(s.f1_all_nodes, 0.55) << s.model;
    EXPECT_GT(s.accuracy_all_nodes, 0.9) << s.model;
  }
}

TEST(Pipeline, BestModelPicksHighestAllNodeF1) {
  std::vector<ModelScore> scores(3);
  scores[0] = {"a", 0.5, 0.4, 0, 0};
  scores[1] = {"b", 0.6, 0.9, 0, 0};
  scores[2] = {"c", 0.95, 0.7, 0, 0};
  EXPECT_EQ(best_model(scores), "c");
  EXPECT_THROW((void)best_model({}), PreconditionError);
}

TEST(Pipeline, TrainedPredictorPredictsCongestion) {
  const Corpus corpus = learnable_corpus(150, 2);
  const Labeler labeler(corpus);
  TrainerConfig tc;
  tc.scope = telemetry::AggregationScope::AllNodes;
  tc.variation_confidence = 0.0;
  const TrainedPredictor predictor = PredictorTrainer(tc).train(corpus, labeler);
  ASSERT_TRUE(predictor.ready());

  std::vector<double> calm(kF, 0.0);
  for (std::size_t f = 0; f < 24; ++f) calm[f] = 0.05;
  EXPECT_EQ(predictor.predict(calm), sched::VariabilityPrediction::NoVariation);

  std::vector<double> congested(kF, 0.0);
  for (std::size_t f = 0; f < 24; ++f) congested[f] = 0.95;
  EXPECT_EQ(predictor.predict(congested), sched::VariabilityPrediction::Variation);
}

TEST(Pipeline, PredictorSaveLoadRoundTrip) {
  const Corpus corpus = learnable_corpus(100, 3);
  const Labeler labeler(corpus);
  TrainerConfig tc;
  tc.variation_confidence = 0.25;
  const TrainedPredictor predictor = PredictorTrainer(tc).train(corpus, labeler);
  std::stringstream ss;
  predictor.save(ss);
  const TrainedPredictor loaded = TrainedPredictor::load(ss);
  EXPECT_TRUE(loaded.ready());
  EXPECT_EQ(loaded.scope(), predictor.scope());
  EXPECT_DOUBLE_EQ(loaded.variation_confidence(), 0.25);
  Rng rng(4);
  for (int i = 0; i < 40; ++i) {
    std::vector<double> x(kF, 0.0);
    x[0] = rng.uniform(0.0, 1.0);
    x[5] = rng.uniform(0.0, 1.0);
    EXPECT_EQ(loaded.predict(x), predictor.predict(x));
  }
}

TEST(Pipeline, LoadRejectsGarbage) {
  std::stringstream bad("nonsense 1\n");
  EXPECT_THROW((void)TrainedPredictor::load(bad), ParseError);
}

TEST(Pipeline, LoadRejectsBadHeaderFields) {
  const Corpus corpus = learnable_corpus(30, 3);
  const TrainedPredictor predictor = PredictorTrainer().train(corpus, Labeler(corpus));
  std::stringstream saved;
  predictor.save(saved);
  const std::string text = saved.str();
  ASSERT_NE(text.find("\nscope all\n"), std::string::npos);
  ASSERT_NE(text.find("\nselected 0\n"), std::string::npos);
  const auto with_line = [&text](const std::string& from, const std::string& to) {
    std::string out = text;
    out.replace(out.find(from), from.size(), to);
    return out;
  };
  for (const std::string& bad : {
           with_line("\nscope all\n", "\nscope nodes\n"),
           with_line("\nselected 0\n", "\nselected 1 282\n"),
           with_line("\nselected 0\n", "\nselected 100000000000 5\n"),
           with_line("\nselected 0\n", "\nselected 2 5 7\n"),
       }) {
    std::stringstream is(bad);
    EXPECT_THROW((void)TrainedPredictor::load(is), ParseError)
        << bad.substr(0, bad.find("rush-model"));
  }
  std::stringstream good(text);
  EXPECT_TRUE(TrainedPredictor::load(good).ready());
}

TEST(Pipeline, RfeSelectionShrinksFeatureSet) {
  const Corpus corpus = learnable_corpus(100, 5);
  const Labeler labeler(corpus);
  TrainerConfig tc;
  tc.model_name = "decision_forest";
  tc.run_rfe = true;
  tc.rfe.min_features = 8;
  tc.rfe.cv_folds = 3;
  tc.rfe.step_fraction = 0.5;
  const TrainedPredictor predictor = PredictorTrainer(tc).train(corpus, labeler);
  EXPECT_FALSE(predictor.selected_features().empty());
  EXPECT_LT(predictor.selected_features().size(), kF);
  // Prediction still works from full-width feature vectors.
  std::vector<double> x(kF, 0.0);
  x[0] = 0.9;
  (void)predictor.predict(x);
}

TEST(Pipeline, ConfidenceGateDowngradesWeakVariationCalls) {
  const Corpus corpus = learnable_corpus(120, 6);
  const Labeler labeler(corpus);
  TrainerConfig open_gate;
  open_gate.variation_confidence = 0.0;
  TrainerConfig closed_gate;
  closed_gate.variation_confidence = 0.999;  // effectively never emit class 2
  const TrainedPredictor open = PredictorTrainer(open_gate).train(corpus, labeler);
  const TrainedPredictor closed = PredictorTrainer(closed_gate).train(corpus, labeler);
  std::vector<double> congested(kF, 0.0);
  for (std::size_t f = 0; f < 24; ++f) congested[f] = 0.95;
  EXPECT_EQ(open.predict(congested), sched::VariabilityPrediction::Variation);
  EXPECT_EQ(closed.predict(congested), sched::VariabilityPrediction::LittleVariation);
}

TEST(Pipeline, UnreadyPredictorRejectsUse) {
  const TrainedPredictor empty;
  EXPECT_FALSE(empty.ready());
  std::vector<double> x(kF, 0.0);
  EXPECT_THROW((void)empty.predict(x), PreconditionError);
  std::stringstream ss;
  EXPECT_THROW(empty.save(ss), PreconditionError);
}

TEST(Pipeline, PredictRejectsWrongWidth) {
  const Corpus corpus = learnable_corpus(60, 7);
  const Labeler labeler(corpus);
  const TrainedPredictor predictor = PredictorTrainer().train(corpus, labeler);
  EXPECT_THROW((void)predictor.predict(std::vector<double>(10, 0.0)), PreconditionError);
}

}  // namespace
}  // namespace rush::core
