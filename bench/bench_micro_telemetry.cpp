// Micro-benchmarks of telemetry (google-benchmark): counter-frame
// synthesis, frame appends under eviction, binary-searched window
// counting, and the prefix-aggregate window queries the feature pipeline
// issues on every oracle evaluation. Synthesis and appends report their
// heap allocations per op (allocs_per_op, via bench/alloc_counter). Part
// of the perf-baseline harness (tools/bench_baseline.py ->
// BENCH_micro.json).
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "alloc_counter.hpp"
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

/// A store of `frames` frames one tick apart, whose horizon keeps exactly
/// that many: every further append at the tick evicts one.
telemetry::CounterStore full_store(Rng& rng, std::size_t frames = kFrames) {
  const auto nodes = pod_nodes();
  telemetry::CounterStore store(nodes, telemetry::num_counters(),
                                static_cast<double>(frames - 1) * kTickS);
  std::vector<float> frame(nodes.size() * telemetry::num_counters());
  for (std::size_t t = 0; t < frames; ++t) {
    for (auto& v : frame) v = static_cast<float>(rng.uniform());
    store.add_frame(static_cast<double>(t) * kTickS, frame);
  }
  return store;
}

/// One sampler frame in a paired trial's shape: every counter of every
/// node in the pod, synthesized from the network and filesystem models
/// while the noise job (every 16th node) loads the fabric and 24 jobs of
/// 20 nodes each hold Lustre clients on an oversubscribed filesystem. In
/// the trials workload this synthesis is the largest cost.
void BM_CounterFrameSynthesis(benchmark::State& state) {
  constexpr std::size_t kNoiseStride = 16;
  constexpr std::size_t kJobs = 24;
  constexpr std::size_t kJobNodes = 20;
  const auto tree = pod_tree();
  const auto nodes = tree.nodes_in_pod(0);
  cluster::NetworkModel net(tree);
  cluster::LustreModel fs(480.0);
  cluster::NodeSet noise, workload;
  for (std::size_t i = 0; i < nodes.size(); ++i)
    (i % kNoiseStride == 0 ? noise : workload).push_back(nodes[i]);
  net.add_source(1, noise, 6.0);
  for (std::size_t j = 0; j < kJobs; ++j) {
    const auto first = workload.begin() + static_cast<std::ptrdiff_t>(j * kJobNodes);
    const cluster::NodeSet job(first, first + static_cast<std::ptrdiff_t>(kJobNodes));
    const auto id = static_cast<cluster::SourceId>(100 + j);
    net.add_source(id, job, 2.0);
    fs.add_client(id, job, 1.0 + 0.1 * static_cast<double>(j), 0.3 + 0.02 * static_cast<double>(j));
  }
  fs.set_ambient_demand(200.0);
  sim::Engine engine;
  telemetry::CounterStore store(nodes, telemetry::num_counters(), 3 * kTickS);
  telemetry::CounterSampler sampler(engine, net, fs, store, Rng(6));
  // Fill the store with four ticks; from then on every op evicts one.
  const auto tick = [&] {
    engine.run_until(engine.now() + kTickS);
    sampler.sample_now();
  };
  for (int i = 0; i < 4; ++i) tick();
  const std::uint64_t before = bench::g_alloc_count;
  for (auto _ : state) tick();
  bench::count_allocs(state, bench::g_alloc_count - before);
  state.SetItemsProcessed(static_cast<std::int64_t>(nodes.size() * telemetry::num_counters()) *
                          state.iterations());
}
BENCHMARK(BM_CounterFrameSynthesis);

void BM_StoreAddFrameEvicting(benchmark::State& state) {
  Rng rng(21);
  auto store = full_store(rng);  // full: every append evicts one frame
  const auto nodes = pod_nodes();
  std::vector<float> frame(nodes.size() * telemetry::num_counters());
  for (auto& v : frame) v = static_cast<float>(rng.uniform());
  double t = static_cast<double>(kFrames) * kTickS;
  const std::uint64_t before = bench::g_alloc_count;
  for (auto _ : state) {
    store.add_frame(t, frame);
    t += kTickS;
  }
  bench::count_allocs(state, bench::g_alloc_count - before);
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
  std::vector<telemetry::Agg> out(store.num_counters());
  for (auto _ : state) {
    store.aggregate_all_into(t0, t1, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
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
  std::vector<telemetry::Agg> out(store.num_counters());
  for (auto _ : state) {
    store.aggregate_nodes_into(t0, t1, job_nodes, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StoreAggregateNodes);

}  // namespace

BENCHMARK_MAIN();
