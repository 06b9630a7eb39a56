// End-to-end integration: collect a miniature corpus in-situ, train the
// pipeline, and run a miniature paired experiment — the full Fig. 2
// pipeline at toy scale.
#include <gtest/gtest.h>

#include <cstdio>

#include "core/collector.hpp"
#include "core/experiment.hpp"
#include "core/report.hpp"
#include "core/rush_oracle.hpp"

namespace rush::core {
namespace {

CollectorConfig tiny_campaign(std::uint64_t seed) {
  CollectorConfig cfg;
  cfg.days = 2;
  cfg.sessions_per_day = 1;
  cfg.jobs_per_session = 28;
  cfg.submit_window_s = 600.0;
  cfg.seed = seed;
  return cfg;
}

TEST(EndToEnd, CollectTrainSchedule) {
  LongitudinalCollector collector(tiny_campaign(1), single_pod_config());
  const Corpus corpus = collector.collect();
  ASSERT_EQ(corpus.size(), 56u);  // 2 days x 28 jobs
  EXPECT_EQ(corpus.app_names().size(), 7u);

  // Features are populated (the counter window was live at every launch).
  std::size_t nonzero_rows = 0;
  for (const auto& s : corpus.samples()) {
    double total = 0.0;
    for (double v : s.features_all) total += std::abs(v);
    if (total > 0.0) ++nonzero_rows;
  }
  EXPECT_EQ(nonzero_rows, corpus.size());

  const Labeler labeler(corpus);
  TrainerConfig tc;
  const TrainedPredictor predictor = PredictorTrainer(tc).train(corpus, labeler);
  EXPECT_TRUE(predictor.ready());

  ExperimentConfig config;
  config.trials_per_policy = 1;
  ExperimentRunner runner(corpus, config);
  ExperimentSpec spec = experiment_spec(ExperimentId::ADAA);
  spec.num_jobs = 28;
  const TrialResult base = runner.run_trial(spec, false, 5, nullptr);
  const TrialResult rush = runner.run_trial(spec, true, 5, &predictor);
  EXPECT_EQ(base.jobs.size(), 28u);
  EXPECT_EQ(rush.jobs.size(), 28u);
  EXPECT_GT(rush.oracle_evaluations, 0u);

  // Reporting helpers operate on the results.
  (void)mean_variation_runs({base}, runner.labeler());
  (void)runtime_summaries({rush});
  EXPECT_GT(mean_makespan({base}), 0.0);
}

TEST(EndToEnd, CollectionIsDeterministic) {
  LongitudinalCollector a(tiny_campaign(7), single_pod_config());
  LongitudinalCollector b(tiny_campaign(7), single_pod_config());
  const Corpus ca = a.collect();
  const Corpus cb = b.collect();
  ASSERT_EQ(ca.size(), cb.size());
  for (std::size_t i = 0; i < ca.size(); ++i) {
    EXPECT_EQ(ca.samples()[i].app, cb.samples()[i].app);
    EXPECT_DOUBLE_EQ(ca.samples()[i].runtime_s, cb.samples()[i].runtime_s);
    EXPECT_EQ(ca.samples()[i].features_job, cb.samples()[i].features_job);
  }
}

TEST(EndToEnd, StormInflatesCollectedRuntimes) {
  CollectorConfig calm_cfg = tiny_campaign(11);
  calm_cfg.storm_days = 0.0;
  CollectorConfig stormy_cfg = tiny_campaign(11);
  stormy_cfg.storm_days = 2.0;
  stormy_cfg.storm_at_fraction = 0.0;  // storm covers the whole campaign
  stormy_cfg.storm_net_intensity = 0.6;
  stormy_cfg.storm_io_intensity = 0.6;
  LongitudinalCollector calm(calm_cfg, single_pod_config());
  LongitudinalCollector stormy(stormy_cfg, single_pod_config());
  const Corpus corpus_calm = calm.collect();
  const Corpus corpus_stormy = stormy.collect();
  double calm_mean = 0.0, stormy_mean = 0.0;
  for (const auto& s : corpus_calm.samples()) calm_mean += s.runtime_s;
  for (const auto& s : corpus_stormy.samples()) stormy_mean += s.runtime_s;
  calm_mean /= static_cast<double>(corpus_calm.size());
  stormy_mean /= static_cast<double>(corpus_stormy.size());
  EXPECT_GT(stormy_mean, calm_mean * 1.05);
}

}  // namespace
}  // namespace rush::core
