// Micro-benchmarks of the ML library: fits and single-sample inference at
// the corpus scale the pipeline actually uses (282 features).
//
// BM_TreeFitPresorted measures the presorted CART trainer.
// BM_AdaBoostFitPipeline is the pipeline's own production fit shape and
// reports its allocation count. The predict
// benchmarks run over the compiled flat planes and assert zero
// steady-state heap allocations via bench/alloc_counter's replaced global
// operator new. BM_OraclePredictEndToEnd covers the
// whole oracle hot path: canary probe, counter-feature aggregation, and
// compiled-ensemble evaluation against a live environment.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "alloc_counter.hpp"
#include "apps/profiles.hpp"
#include "common/rng.hpp"
#include "core/environment.hpp"
#include "core/labeler.hpp"
#include "core/pipeline.hpp"
#include "core/rush_oracle.hpp"
#include "ml/adaboost.hpp"
#include "ml/forest.hpp"
#include "ml/knn.hpp"
#include "ml/tree.hpp"

namespace {

using namespace rush;

ml::Dataset synthetic(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::string> names;
  for (std::size_t f = 0; f < cols; ++f) names.push_back("f" + std::to_string(f));
  ml::Dataset d(std::move(names));
  std::vector<double> row(cols);
  for (std::size_t i = 0; i < rows; ++i) {
    double signal = 0.0;
    for (std::size_t f = 0; f < cols; ++f) {
      row[f] = rng.uniform(0.0, 1.0);
      if (f < 8) signal += row[f];
    }
    d.add_row(row, signal > 4.4 ? 1 : 0);
  }
  return d;
}

/// The pipeline's training set in shape: three imbalanced classes, half the
/// features on a coarse grid (heavy ties, like idle counters), and label
/// noise so boosting runs every round instead of stopping on a perfect
/// stage.
ml::Dataset three_class(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::string> names;
  for (std::size_t f = 0; f < cols; ++f) names.push_back("f" + std::to_string(f));
  ml::Dataset d(std::move(names));
  std::vector<double> row(cols);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t f = 0; f < cols; ++f)
      row[f] = f % 2 == 0 ? rng.uniform(0.0, 1.0) : static_cast<double>(rng.uniform_int(0, 3));
    int label = row[0] + row[2] > 1.3 ? 1 : (row[4] > 0.8 ? 2 : 0);
    if (rng.uniform(0.0, 1.0) < 0.15) label = static_cast<int>(rng.uniform_int(0, 2));
    d.add_row(row, label);
  }
  return d;
}

/// Production trainer: one sort per feature per fit, stable partitioning
/// down the recursion.
void BM_TreeFitPresorted(benchmark::State& state) {
  const auto d = synthetic(static_cast<std::size_t>(state.range(0)), 282, 1);
  for (auto _ : state) {
    ml::DecisionTree tree;
    tree.fit(d);
    benchmark::DoNotOptimize(tree.node_count());
  }
}
BENCHMARK(BM_TreeFitPresorted)->Arg(250)->Arg(1000)->Unit(benchmark::kMillisecond);

void BM_ExtraTreeFit(benchmark::State& state) {
  const auto d = synthetic(1000, 282, 2);
  ml::TreeConfig cfg;
  cfg.random_thresholds = true;
  cfg.max_features = 17;
  for (auto _ : state) {
    ml::DecisionTree tree(cfg);
    tree.fit(d);
    benchmark::DoNotOptimize(tree.node_count());
  }
}
BENCHMARK(BM_ExtraTreeFit)->Unit(benchmark::kMillisecond);

void BM_ForestFit(benchmark::State& state) {
  const auto d = synthetic(1000, 282, 3);
  for (auto _ : state) {
    ml::Forest forest(ml::decision_forest_config(static_cast<std::size_t>(state.range(0))));
    forest.fit(d);
    benchmark::DoNotOptimize(forest.tree_count());
  }
}
BENCHMARK(BM_ForestFit)->Arg(10)->Arg(30)->Unit(benchmark::kMillisecond);

void BM_AdaBoostFit(benchmark::State& state) {
  const auto d = synthetic(1000, 282, 4);
  ml::AdaBoostConfig cfg;
  cfg.num_rounds = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    ml::AdaBoost model(cfg);
    model.fit(d);
    benchmark::DoNotOptimize(model.stage_count());
  }
}
BENCHMARK(BM_AdaBoostFit)->Arg(10)->Arg(40)->Unit(benchmark::kMillisecond);

/// The pipeline's production fit: a 1-day corpus (190 rows x 282
/// features), three classes, PredictorTrainer's inverse-frequency weights,
/// the default 80 rounds. allocs_per_op is reported, not gated: a fit
/// builds trees, so it allocates.
void BM_AdaBoostFitPipeline(benchmark::State& state) {
  const auto d = three_class(190, 282, 12);
  const auto counts = d.class_counts();
  std::vector<double> weights(d.rows());
  for (std::size_t i = 0; i < d.rows(); ++i)
    weights[i] = static_cast<double>(d.rows()) /
                 (static_cast<double>(counts.size()) *
                  static_cast<double>(counts[static_cast<std::size_t>(d.label(i))]));
  std::uint64_t allocs = 0;
  for (auto _ : state) {
    const std::uint64_t before = bench::g_alloc_count;
    ml::AdaBoost model;
    model.fit(d, weights);
    allocs += bench::g_alloc_count - before;
    benchmark::DoNotOptimize(model.stage_count());
  }
  bench::count_allocs(state, allocs);
}
BENCHMARK(BM_AdaBoostFitPipeline)->Unit(benchmark::kMillisecond);

void BM_ForestPredict(benchmark::State& state) {
  const auto d = synthetic(1000, 282, 5);
  ml::Forest forest(ml::decision_forest_config(60));
  forest.fit(d);
  Rng rng(6);
  std::vector<double> x(282);
  std::uint64_t allocs = 0;
  for (auto _ : state) {
    for (auto& v : x) v = rng.uniform(0.0, 1.0);
    const std::uint64_t before = bench::g_alloc_count;
    benchmark::DoNotOptimize(forest.predict(x));
    allocs += bench::g_alloc_count - before;
  }
  bench::report_allocs(state, allocs, "forest predict allocated in steady state");
}
BENCHMARK(BM_ForestPredict);

/// Batched path: one predict_many call over the whole probe set, scratch
/// reused across rows. ns/op divided by items_per_second gives the
/// per-row cost.
void BM_ForestPredictBatched(benchmark::State& state) {
  const auto d = synthetic(1000, 282, 5);
  ml::Forest forest(ml::decision_forest_config(60));
  forest.fit(d);
  const auto probe = synthetic(256, 282, 6);
  std::vector<int> out(probe.rows());
  for (auto _ : state) {
    forest.predict_many(probe, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(probe.rows()));
}
BENCHMARK(BM_ForestPredictBatched);

void BM_AdaBoostPredict(benchmark::State& state) {
  const auto d = synthetic(1000, 282, 7);
  ml::AdaBoost model;
  model.fit(d);
  Rng rng(8);
  std::vector<double> x(282);
  std::uint64_t allocs = 0;
  for (auto _ : state) {
    for (auto& v : x) v = rng.uniform(0.0, 1.0);
    const std::uint64_t before = bench::g_alloc_count;
    benchmark::DoNotOptimize(model.predict(x));
    allocs += bench::g_alloc_count - before;
  }
  bench::report_allocs(state, allocs, "adaboost predict allocated in steady state");
}
BENCHMARK(BM_AdaBoostPredict);

void BM_KnnPredict(benchmark::State& state) {
  const auto d = synthetic(static_cast<std::size_t>(state.range(0)), 282, 9);
  ml::Knn knn;
  knn.fit(d);
  Rng rng(10);
  std::vector<double> x(282);
  for (auto _ : state) {
    for (auto& v : x) v = rng.uniform(0.0, 1.0);
    benchmark::DoNotOptimize(knn.predict(x));
  }
}
BENCHMARK(BM_KnnPredict)->Arg(1000)->Arg(3000);

core::Corpus oracle_corpus() {
  constexpr std::size_t kF = telemetry::FeatureAssembler::kNumFeatures;
  Rng rng(6);
  core::Corpus c;
  for (int i = 0; i < 80; ++i) {
    core::CollectedSample s;
    s.app = "AMG";
    s.app_index = 0;
    s.node_count = 16;
    const double congestion = rng.uniform(0.0, 1.0);
    s.runtime_s = 100.0 * (1.0 + congestion);
    s.features_all.assign(kF, congestion);
    s.features_job.assign(kF, congestion);
    c.add(std::move(s));
  }
  for (int i = 0; i < 40; ++i) {
    core::CollectedSample s;
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

/// The full oracle hot path against a live environment: canary probe,
/// counter aggregation, compiled-ensemble evaluation. Steady state (warm
/// buffers) must not allocate.
void BM_OraclePredictEndToEnd(benchmark::State& state) {
  core::Environment env{core::single_pod_config(7)};
  env.sampler().start();
  env.engine().run_until(300.0);

  const core::Corpus corpus = oracle_corpus();
  const core::Labeler labeler(corpus);
  const core::TrainedPredictor predictor = core::PredictorTrainer().train(corpus, labeler);
  core::RushOracle oracle(env, predictor);

  sched::Job job;
  job.spec.app = *apps::find_app("AMG");
  cluster::NodeSet nodes;
  for (int i = 0; i < 16; ++i) nodes.push_back(i);

  // Warm the scratch buffers.
  for (int i = 0; i < 4; ++i) benchmark::DoNotOptimize(oracle.predict(job, nodes));

  std::uint64_t allocs = 0;
  for (auto _ : state) {
    const std::uint64_t before = bench::g_alloc_count;
    benchmark::DoNotOptimize(oracle.predict(job, nodes));
    allocs += bench::g_alloc_count - before;
  }
  bench::report_allocs(state, allocs, "oracle predict allocated in steady state");
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_OraclePredictEndToEnd);

}  // namespace

BENCHMARK_MAIN();
