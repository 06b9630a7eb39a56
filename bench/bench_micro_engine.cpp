// Micro-benchmarks of the simulation substrate (google-benchmark):
// event-queue throughput, the contention-stretched job lifecycle, and the
// smooth slowdown curve timed against a hard threshold (the ablation in
// DESIGN.md §4).
#include <benchmark/benchmark.h>

#include <cstdint>

#include "alloc_counter.hpp"
#include "apps/execution.hpp"
#include "apps/profiles.hpp"
#include "cluster/congestion.hpp"
#include "cluster/lustre.hpp"
#include "cluster/network.hpp"
#include "common/rng.hpp"
#include "sim/engine.hpp"

namespace {

using namespace rush;

void BM_EngineScheduleRun(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::Engine engine;
    Rng rng(1);
    std::uint64_t fired = 0;
    for (std::size_t i = 0; i < n; ++i)
      engine.schedule_at(rng.uniform(0.0, 1000.0), [&fired] { ++fired; });
    engine.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) * state.iterations());
}
BENCHMARK(BM_EngineScheduleRun)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_EnginePeriodicTasks(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine engine;
    std::uint64_t fired = 0;
    for (int i = 0; i < 16; ++i)
      engine.schedule_periodic(0.0, 30.0, [&fired] { ++fired; });
    engine.run_until(36000.0);
    benchmark::DoNotOptimize(fired);
  }
}
BENCHMARK(BM_EnginePeriodicTasks);

void BM_CongestionCurve(benchmark::State& state) {
  Rng rng(4);
  for (auto _ : state)
    benchmark::DoNotOptimize(cluster::congestion_slowdown(rng.uniform(0.0, 2.0)));
}
BENCHMARK(BM_CongestionCurve);

/// Ablation: hard-threshold slowdown (max(1, u)) vs the smooth curve —
/// same query cost, radically different onset (see DESIGN.md §4.1).
void BM_HardThresholdCurve(benchmark::State& state) {
  Rng rng(4);
  for (auto _ : state) {
    const double u = rng.uniform(0.0, 2.0);
    benchmark::DoNotOptimize(u > 1.0 ? u : 1.0);
  }
}
BENCHMARK(BM_HardThresholdCurve);

cluster::FatTree pod_tree() {
  cluster::FatTreeConfig cfg;
  cfg.pods = 1;
  return cluster::FatTree(cfg);
}

/// The execution model's event pattern in one pod: 30 staggered 16-node
/// jobs of the seven proxy apps, launched 20 s apart and run to
/// completion. Every launch and completion re-rates all running jobs and
/// moves the one completion event. allocs_per_op is reported, not gated:
/// each launch adds a running-set entry and registers traffic sources.
void BM_ExecutionLifecycle(benchmark::State& state) {
  constexpr int kJobs = 30;
  constexpr int kNodesPerJob = 16;
  const auto tree = pod_tree();
  cluster::NetworkModel net(tree);
  cluster::LustreModel fs(480.0);
  const auto profiles = apps::proxy_apps();
  std::uint64_t allocs = 0;
  for (auto _ : state) {
    const std::uint64_t before = bench::g_alloc_count;
    sim::Engine engine;
    apps::ExecutionModel exec(engine, net, fs, apps::ExecutionConfig{}, Rng(8));
    for (int j = 0; j < kJobs; ++j) {
      engine.schedule_at(20.0 * j, [&exec, &profiles, j] {
        cluster::NodeSet nodes;
        for (int i = 0; i < kNodesPerJob; ++i) nodes.push_back(kNodesPerJob * j + i);
        exec.launch(profiles[static_cast<std::size_t>(j) % profiles.size()], nodes,
                    apps::ScalingMode::Strong, nullptr);
      });
    }
    engine.run();
    benchmark::DoNotOptimize(engine.events_executed());
    allocs += bench::g_alloc_count - before;
  }
  bench::count_allocs(state, allocs);
  state.SetItemsProcessed(static_cast<std::int64_t>(kJobs) * state.iterations());
}
BENCHMARK(BM_ExecutionLifecycle);

}  // namespace

BENCHMARK_MAIN();
