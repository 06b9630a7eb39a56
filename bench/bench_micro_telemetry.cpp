// Micro-benchmarks of telemetry (google-benchmark): counter-frame
// synthesis, frame appends under eviction, binary-searched window
// counting, and the prefix-aggregate window queries the feature pipeline
// issues on every oracle evaluation. Part of the perf-baseline harness
// (tools/bench_baseline.py -> BENCH_micro.json).
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "cluster/lustre.hpp"
#include "cluster/network.hpp"
#include "cluster/topology.hpp"
#include "common/rng.hpp"
#include "sim/engine.hpp"
#include "telemetry/sampler.hpp"
#include "telemetry/schema.hpp"
#include "telemetry/store.hpp"

namespace {

using namespace rush;

constexpr std::size_t kFrames = 512;
constexpr double kTickS = 30.0;

/// One pod of the default machine: 512 nodes.
cluster::FatTree pod_tree() {
  cluster::FatTreeConfig cfg;
  cfg.pods = 1;
  return cluster::FatTree(cfg);
}

cluster::NodeSet pod_nodes() { return pod_tree().nodes_in_pod(0); }

telemetry::CounterStore full_store(Rng& rng, std::size_t frames = kFrames) {
  const auto nodes = pod_nodes();
  telemetry::CounterStore store(nodes, telemetry::num_counters(), frames);
  std::vector<float> frame(nodes.size() * telemetry::num_counters());
  for (std::size_t t = 0; t < frames; ++t) {
    for (auto& v : frame) v = static_cast<float>(rng.uniform());
    store.add_frame(static_cast<double>(t) * kTickS, frame);
  }
  return store;
}

/// One sampler frame: every counter of every node in the pod,
/// synthesized from the network and filesystem models. In the trials
/// workload this synthesis is the largest cost.
void BM_CounterFrameSynthesis(benchmark::State& state) {
  const auto tree = pod_tree();
  cluster::NetworkModel net(tree);
  cluster::LustreModel fs(480.0);
  sim::Engine engine;
  telemetry::CounterStore store(tree.nodes_in_pod(0), telemetry::num_counters(), 4);
  telemetry::CounterSampler sampler(engine, net, fs, store, telemetry::SamplerConfig{}, Rng(6));
  for (auto _ : state) sampler.sample_now();
  state.SetItemsProcessed(static_cast<std::int64_t>(512 * telemetry::num_counters()) *
                          state.iterations());
}
BENCHMARK(BM_CounterFrameSynthesis);

void BM_StoreAddFrameEvicting(benchmark::State& state) {
  Rng rng(21);
  auto store = full_store(rng);  // at capacity: every append evicts
  const auto nodes = pod_nodes();
  std::vector<float> frame(nodes.size() * telemetry::num_counters());
  for (auto& v : frame) v = static_cast<float>(rng.uniform());
  double t = static_cast<double>(kFrames) * kTickS;
  for (auto _ : state) {
    store.add_frame(t, frame);
    t += kTickS;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(frame.size()) * state.iterations());
}
BENCHMARK(BM_StoreAddFrameEvicting);

void BM_StoreFramesIn(benchmark::State& state) {
  Rng rng(22);
  const auto store = full_store(rng);
  const double t_end = static_cast<double>(kFrames) * kTickS;
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.frames_in(0.25 * t_end, 0.75 * t_end));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StoreFramesIn);

/// Whole-machine aggregate over a window of `range(0)` frames out of 512.
void BM_StoreAggregateAll(benchmark::State& state) {
  Rng rng(23);
  const auto store = full_store(rng);
  const auto window_frames = static_cast<double>(state.range(0));
  const double t0 = 100.0 * kTickS;
  const double t1 = t0 + (window_frames - 1.0) * kTickS;
  for (auto _ : state) benchmark::DoNotOptimize(store.aggregate_all(t0, t1));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StoreAggregateAll)->Arg(8)->Arg(64)->Arg(256);

/// 16-node job window aggregate (the per-candidate feature query).
void BM_StoreAggregateNodes(benchmark::State& state) {
  Rng rng(24);
  const auto store = full_store(rng);
  const auto managed = pod_nodes();
  cluster::NodeSet job_nodes(managed.begin() + 64, managed.begin() + 80);
  const double t0 = 400.0 * kTickS;
  const double t1 = 410.0 * kTickS;
  for (auto _ : state) benchmark::DoNotOptimize(store.aggregate_nodes(t0, t1, job_nodes));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StoreAggregateNodes);

}  // namespace

BENCHMARK_MAIN();
