#include "core/experiment.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/report.hpp"

namespace rush::core {
namespace {

TEST(ExperimentSpec, TableTwoDefinitions) {
  const auto specs = all_experiments();
  ASSERT_EQ(specs.size(), 5u);
  EXPECT_EQ(specs[0].code, "ADAA");
  EXPECT_EQ(specs[0].num_jobs, 190);
  EXPECT_EQ(specs[0].run_apps.size(), 7u);
  EXPECT_TRUE(specs[0].train_apps.empty());

  EXPECT_EQ(specs[1].code, "ADPA");
  EXPECT_EQ(specs[1].num_jobs, 150);
  EXPECT_EQ(specs[1].run_apps, (std::vector<std::string>{"Laghos", "LBANN", "PENNANT"}));
  EXPECT_TRUE(specs[1].train_apps.empty());

  EXPECT_EQ(specs[2].code, "PDPA");
  EXPECT_EQ(specs[2].train_apps,
            (std::vector<std::string>{"AMG", "Kripke", "sw4lite", "SWFFT"}));

  EXPECT_EQ(specs[3].code, "WS");
  EXPECT_EQ(specs[3].node_counts, (std::vector<int>{8, 16, 32}));
  EXPECT_EQ(specs[3].scaling, apps::ScalingMode::Weak);

  EXPECT_EQ(specs[4].code, "SS");
  EXPECT_EQ(specs[4].scaling, apps::ScalingMode::Strong);
}

constexpr std::size_t kF = telemetry::FeatureAssembler::kNumFeatures;

/// Small synthetic corpus over the real seven proxy apps so the runner
/// can label and train without a full collection campaign.
Corpus synthetic_corpus(std::uint64_t seed) {
  Rng rng(seed);
  Corpus c;
  const auto names = apps::proxy_app_names();
  for (std::size_t a = 0; a < names.size(); ++a) {
    const auto app = *apps::find_app(names[a]);
    for (int i = 0; i < 60; ++i) {
      CollectedSample s;
      s.app = names[a];
      s.app_index = static_cast<int>(a);
      s.workload = app.workload;
      s.node_count = 16;
      const double congestion =
          rng.bernoulli(0.15) ? rng.uniform(0.5, 1.0) : rng.uniform(0.0, 0.25);
      s.runtime_s = app.base_runtime_s * (1.0 + 0.5 * congestion) +
                    rng.normal(0.0, app.base_runtime_s * 0.01);
      s.features_all.assign(kF, 0.0);
      s.features_job.assign(kF, 0.0);
      s.features_all[0] = congestion;
      s.features_job[0] = congestion;
      c.add(std::move(s));
    }
  }
  return c;
}

TEST(ExperimentRunner, TrainsPredictorHonoringTrainApps) {
  ExperimentRunner runner(synthetic_corpus(1));
  const auto pdpa = experiment_spec(ExperimentId::PDPA);
  const TrainedPredictor predictor = runner.train_predictor(pdpa);
  EXPECT_TRUE(predictor.ready());
  const auto adaa = experiment_spec(ExperimentId::ADAA);
  EXPECT_TRUE(runner.train_predictor(adaa).ready());
}

TEST(ExperimentRunner, TinyTrialRunsBothPolicies) {
  ExperimentConfig config;
  config.trials_per_policy = 1;
  ExperimentRunner runner(synthetic_corpus(2), config);
  ExperimentSpec spec = experiment_spec(ExperimentId::ADAA);
  spec.num_jobs = 21;  // keep the test quick
  const TrainedPredictor predictor = runner.train_predictor(spec);

  const TrialResult base = runner.run_trial(spec, false, 99, nullptr);
  EXPECT_EQ(base.policy, "fcfs-easy");
  EXPECT_EQ(base.jobs.size(), 21u);
  EXPECT_EQ(base.total_skips, 0u);
  EXPECT_EQ(base.oracle_evaluations, 0u);
  EXPECT_GT(base.makespan_s, 0.0);

  const TrialResult rush = runner.run_trial(spec, true, 99, &predictor);
  EXPECT_EQ(rush.policy, "rush");
  EXPECT_EQ(rush.jobs.size(), 21u);
  EXPECT_GT(rush.oracle_evaluations, 0u);
}

TEST(ExperimentRunner, BaselineTrialsAreSeedDeterministic) {
  ExperimentConfig config;
  config.trials_per_policy = 1;
  ExperimentRunner runner(synthetic_corpus(3), config);
  ExperimentSpec spec = experiment_spec(ExperimentId::ADPA);
  spec.num_jobs = 15;
  const TrialResult a = runner.run_trial(spec, false, 7, nullptr);
  const TrialResult b = runner.run_trial(spec, false, 7, nullptr);
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    EXPECT_EQ(a.jobs[i].app, b.jobs[i].app);
    EXPECT_DOUBLE_EQ(a.jobs[i].runtime_s, b.jobs[i].runtime_s);
  }
  const TrialResult c = runner.run_trial(spec, false, 8, nullptr);
  EXPECT_NE(a.makespan_s, c.makespan_s);
}

TEST(ExperimentRunner, ScalingExperimentUsesAllNodeCounts) {
  ExperimentConfig config;
  config.trials_per_policy = 1;
  ExperimentRunner runner(synthetic_corpus(4), config);
  ExperimentSpec spec = experiment_spec(ExperimentId::SS);
  spec.num_jobs = 42;
  const TrialResult trial = runner.run_trial(spec, false, 11, nullptr);
  int eight = 0, sixteen = 0, thirty_two = 0;
  for (const JobOutcome& job : trial.jobs) {
    if (job.node_count == 8) ++eight;
    if (job.node_count == 16) ++sixteen;
    if (job.node_count == 32) ++thirty_two;
  }
  EXPECT_GT(eight, 0);
  EXPECT_GT(sixteen, 0);
  EXPECT_GT(thirty_two, 0);
  EXPECT_EQ(eight + sixteen + thirty_two, 42);
}

TEST(Report, AggregationHelpers) {
  TrialResult t1, t2;
  t1.makespan_s = 100.0;
  t2.makespan_s = 200.0;
  JobOutcome a;
  a.app = "X";
  a.runtime_s = 10.0;
  a.wait_s = 5.0;
  a.node_count = 16;
  JobOutcome b = a;
  b.runtime_s = 20.0;
  b.wait_s = 15.0;
  b.submitted_at_start = true;
  t1.jobs = {a, b};
  t2.jobs = {a};
  const std::vector<TrialResult> trials{t1, t2};

  EXPECT_DOUBLE_EQ(mean_makespan(trials), 150.0);
  const auto waits = mean_wait_times(trials, /*exclude_initial=*/true);
  EXPECT_DOUBLE_EQ(waits.at("X"), 5.0);  // job b excluded
  const auto waits_all = mean_wait_times(trials, false);
  EXPECT_NEAR(waits_all.at("X"), (5.0 + 15.0 + 5.0) / 3.0, 1e-12);

  const auto summaries = runtime_summaries(trials);
  EXPECT_EQ(summaries.at("X").n, 3u);
  EXPECT_DOUBLE_EQ(summaries.at("X").max, 20.0);

  // Node-count filter.
  EXPECT_TRUE(runtime_summaries(trials, 8).empty());
  EXPECT_EQ(runtime_summaries(trials, 16).at("X").n, 3u);
}

TEST(Report, MaxRuntimeImprovement) {
  TrialResult base, rush;
  JobOutcome job;
  job.app = "X";
  job.node_count = 16;
  job.runtime_s = 200.0;
  base.jobs = {job};
  job.runtime_s = 150.0;
  rush.jobs = {job};
  const auto improvement =
      max_runtime_improvement(std::vector<TrialResult>{base}, std::vector<TrialResult>{rush});
  EXPECT_NEAR(improvement.at("X"), 25.0, 1e-12);
}

}  // namespace
}  // namespace rush::core
