#include "core/environment.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/error.hpp"
#include "core/rush_oracle.hpp"
#include "core/pipeline.hpp"
#include "telemetry/schema.hpp"

namespace rush::core {
namespace {

TEST(Environment, SinglePodDefaultsMatchTheReservation) {
  const Environment env{single_pod_config(1)};
  EXPECT_EQ(env.config().tree.pods, 1);
  EXPECT_EQ(env.pod_nodes().size(), 512u);
}

TEST(Environment, ComponentsAreWiredTogether) {
  Environment env{single_pod_config(2)};
  EXPECT_EQ(env.store().num_counters(), telemetry::num_counters());
  EXPECT_EQ(env.store().managed_nodes().size(), 512u);
  EXPECT_DOUBLE_EQ(env.features().window_s(), 300.0);  // paper: 5 minutes
  // Sampler writes into the store.
  env.sampler().sample_now();
  EXPECT_EQ(env.store().frame_count(), 1u);
}

TEST(Environment, RngForIsDeterministicPerTag) {
  Environment a{single_pod_config(3)};
  Environment b{single_pod_config(3)};
  auto ra = a.rng_for(0xABC);
  auto rb = b.rng_for(0xABC);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(ra.next(), rb.next());
  auto rc = a.rng_for(0xDEF);
  auto rd = a.rng_for(0xDEF);
  // Same tag drawn later in the parent stream yields a different stream:
  // tags are not a pure keyed derivation, they consume parent state.
  EXPECT_NE(rc.next(), rd.next());
}

TEST(Environment, NoisyPodSplitsThePodAsInThePaper) {
  Environment env{single_pod_config(4)};
  NoisyPod stage(env);
  const cluster::NodeSet& noise = stage.noise().nodes();
  ASSERT_EQ(noise.size(), 32u);  // 1/16 of 512 nodes
  std::vector<int> per_edge(16, 0);
  for (cluster::NodeId n : noise) ++per_edge[static_cast<std::size_t>(env.tree().edge_of(n))];
  for (int count : per_edge) EXPECT_EQ(count, 2);

  EXPECT_EQ(stage.allocator().free_count(), 480);
  cluster::NodeSet both = stage.allocator().managed_nodes();
  both.insert(both.end(), noise.begin(), noise.end());
  std::sort(both.begin(), both.end());
  EXPECT_EQ(both, env.pod_nodes());  // disjoint, and together the whole pod
}

TEST(Environment, BackgroundDrivesAmbientLoad) {
  Environment env{single_pod_config(5)};
  env.background().start();
  env.engine().run_until(600.0);
  double total = 0.0;
  for (int e = 0; e < env.tree().num_edges(); ++e)
    total += env.network().link_load_gbps(env.tree().edge_uplink(e));
  EXPECT_GT(total, 0.0);
}

constexpr std::size_t kF = telemetry::FeatureAssembler::kNumFeatures;

Corpus tiny_corpus() {
  Rng rng(6);
  Corpus c;
  for (int i = 0; i < 80; ++i) {
    CollectedSample s;
    s.app = "AMG";
    s.app_index = 0;
    s.node_count = 16;
    const double congestion = rng.uniform(0.0, 1.0);
    s.runtime_s = 100.0 * (1.0 + congestion);
    s.features_all.assign(kF, congestion);
    s.features_job.assign(kF, congestion);
    c.add(std::move(s));
  }
  // Second app so leave-one-group-out style helpers stay happy.
  for (int i = 0; i < 40; ++i) {
    CollectedSample s;
    s.app = "Kripke";
    s.app_index = 1;
    s.node_count = 16;
    s.runtime_s = 200.0 + i;
    s.features_all.assign(kF, 0.1);
    s.features_job.assign(kF, 0.1);
    c.add(std::move(s));
  }
  return c;
}

TEST(RushOracle, EvaluatesThePredictorOnLiveTelemetry) {
  Environment env{single_pod_config(7)};
  env.sampler().start();
  env.engine().run_until(300.0);

  const Corpus corpus = tiny_corpus();
  const Labeler labeler(corpus);
  const TrainedPredictor predictor = PredictorTrainer().train(corpus, labeler);
  RushOracle oracle(env, predictor);

  sched::Job job;
  job.spec.app = *apps::find_app("AMG");
  cluster::NodeSet nodes;
  for (int i = 0; i < 16; ++i) nodes.push_back(i);

  EXPECT_EQ(oracle.evaluations(), 0u);
  const auto prediction = oracle.predict(job, nodes);
  EXPECT_EQ(oracle.evaluations(), 1u);
  // Live (calm) telemetry should not look like the congested tail.
  EXPECT_NE(prediction, sched::VariabilityPrediction::Variation);
  (void)oracle.predict(job, nodes);
  EXPECT_EQ(oracle.evaluations(), 2u);
}

TEST(RushOracle, PredictionsDoNotDependOnEarlierCalls) {
  // Two oracles over identically-seeded environments must emit identical
  // predictions whether one oracle answers every call or each call gets a
  // fresh one: the healthy path keeps no state between predictions.
  const Corpus corpus = tiny_corpus();
  const Labeler labeler(corpus);
  const TrainedPredictor predictor = PredictorTrainer().train(corpus, labeler);

  sched::Job job;
  job.spec.app = *apps::find_app("AMG");
  cluster::NodeSet nodes;
  for (int i = 0; i < 16; ++i) nodes.push_back(i);

  std::vector<sched::VariabilityPrediction> shared;
  std::vector<sched::VariabilityPrediction> fresh;
  {
    Environment env{single_pod_config(10)};
    env.sampler().start();
    env.engine().run_until(300.0);
    RushOracle oracle(env, predictor);
    for (int i = 0; i < 3; ++i) shared.push_back(oracle.predict(job, nodes));
  }
  {
    Environment env{single_pod_config(10)};
    env.sampler().start();
    env.engine().run_until(300.0);
    for (int i = 0; i < 3; ++i) {
      RushOracle oracle(env, predictor);
      fresh.push_back(oracle.predict(job, nodes));
    }
  }
  EXPECT_EQ(shared, fresh);
}

TEST(RushOracle, RequiresAReadyPredictor) {
  Environment env{single_pod_config(8)};
  const TrainedPredictor unready;
  EXPECT_THROW(RushOracle(env, unready), PreconditionError);
}

}  // namespace
}  // namespace rush::core
