// Micro-benchmarks of the incremental contention engine (google-benchmark).
//
// The headline pair is the churn workload from the perf-baseline harness:
// 1k live sources on a 1,536-node tree, alternating set_rate mutations
// with slowdown queries. BM_NetworkChurnIncremental exercises the
// delta-update path; BM_NetworkChurnFullRebuild forces a rebuild() before
// every query, emulating the pre-incremental dirty->recompute cycle (a
// conservative stand-in: the old path additionally re-mapped every
// source's flows, so the real historical cost was higher than what this
// measures). tools/bench_baseline.py derives the speedup from the two.
//
// BM_ProbeSlowdownSteadyState additionally asserts that placement probes
// perform zero heap allocations once the scratch buffers are warm, via
// bench/alloc_counter's replaced global operator new.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "alloc_counter.hpp"
#include "cluster/network.hpp"
#include "cluster/topology.hpp"
#include "common/rng.hpp"

namespace {

using namespace rush;

constexpr int kChurnSources = 1000;
constexpr int kNodesPerSource = 16;

/// 3 pods x 16 edges x 32 nodes = 1,536 nodes (the harness's churn tree).
cluster::FatTree churn_tree() {
  cluster::FatTreeConfig cfg;
  cfg.pods = 3;
  cfg.edges_per_pod = 16;
  cfg.nodes_per_edge = 32;
  return cluster::FatTree(cfg);
}

cluster::TrafficPattern pattern_of(int i) {
  switch (i % 4) {
    case 0: return cluster::TrafficPattern::AllToAll;
    case 1: return cluster::TrafficPattern::NearestNeighbor;
    case 2: return cluster::TrafficPattern::Ring;
    default: return cluster::TrafficPattern::Gateway;
  }
}

void populate_churn_sources(const cluster::FatTree& tree, cluster::NetworkModel& net, Rng& rng) {
  for (int j = 0; j < kChurnSources; ++j) {
    cluster::NodeSet nodes;
    const auto base = static_cast<cluster::NodeId>(
        rng.uniform_int(0, tree.num_nodes() - kNodesPerSource - 1));
    for (int i = 0; i < kNodesPerSource; ++i) nodes.push_back(base + i);
    net.add_source(static_cast<cluster::SourceId>(j) + 1, nodes, rng.uniform(0.1, 1.0),
                   pattern_of(j));
  }
}

/// Alternating set_rate + slowdown on the delta-update path.
void BM_NetworkChurnIncremental(benchmark::State& state) {
  const auto tree = churn_tree();
  cluster::NetworkModel net(tree);
  Rng rng(11);
  populate_churn_sources(tree, net, rng);
  for (auto _ : state) {
    const auto id = static_cast<cluster::SourceId>(rng.uniform_int(1, kChurnSources));
    net.set_rate(id, rng.uniform(0.1, 1.0));
    benchmark::DoNotOptimize(net.slowdown(id));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NetworkChurnIncremental);

/// Same workload, but every query pays a from-scratch rebuild — the
/// pre-incremental dirty->recompute behaviour.
void BM_NetworkChurnFullRebuild(benchmark::State& state) {
  const auto tree = churn_tree();
  cluster::NetworkModel net(tree);
  Rng rng(11);
  populate_churn_sources(tree, net, rng);
  for (auto _ : state) {
    const auto id = static_cast<cluster::SourceId>(rng.uniform_int(1, kChurnSources));
    net.set_rate(id, rng.uniform(0.1, 1.0));
    net.rebuild();
    benchmark::DoNotOptimize(net.slowdown(id));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NetworkChurnFullRebuild);

/// Register + deregister a 16-node source against 1k live ones.
void BM_NetworkAddRemoveSource(benchmark::State& state) {
  const auto tree = churn_tree();
  cluster::NetworkModel net(tree);
  Rng rng(12);
  populate_churn_sources(tree, net, rng);
  cluster::NodeSet nodes;
  for (int i = 0; i < kNodesPerSource; ++i) nodes.push_back(640 + i);
  const cluster::SourceId id = kChurnSources + 1;
  for (auto _ : state) {
    net.add_source(id, nodes, 0.7, cluster::TrafficPattern::AllToAll);
    net.remove_source(id);
  }
  state.SetItemsProcessed(2 * state.iterations());
}
BENCHMARK(BM_NetworkAddRemoveSource);

void BM_NetworkSetAmbient(benchmark::State& state) {
  const auto tree = churn_tree();
  cluster::NetworkModel net(tree);
  Rng rng(13);
  populate_churn_sources(tree, net, rng);
  const cluster::LinkId link = tree.edge_uplink(5);
  double gbps = 0.0;
  for (auto _ : state) {
    gbps = gbps > 10.0 ? 0.5 : gbps + 0.5;
    net.set_ambient_load(link, gbps);
    benchmark::DoNotOptimize(net.link_load_gbps(link));
  }
}
BENCHMARK(BM_NetworkSetAmbient);

/// Placement probe against 1k live sources; fails the benchmark if any
/// steady-state call touches the heap.
void BM_ProbeSlowdownSteadyState(benchmark::State& state) {
  const auto tree = churn_tree();
  cluster::NetworkModel net(tree);
  Rng rng(14);
  populate_churn_sources(tree, net, rng);
  cluster::NodeSet probe;
  for (int i = 0; i < kNodesPerSource; ++i) probe.push_back(500 + i);
  // Warm the scratch buffers: the first probe may grow them.
  for (int i = 0; i < 4; ++i)
    benchmark::DoNotOptimize(net.probe_slowdown(probe, 0.8, pattern_of(i)));

  std::uint64_t allocs = 0;
  for (auto _ : state) {
    const std::uint64_t before = bench::g_alloc_count;
    benchmark::DoNotOptimize(net.probe_slowdown(probe, 0.8, cluster::TrafficPattern::AllToAll));
    allocs += bench::g_alloc_count - before;
  }
  bench::report_allocs(state, allocs, "probe_slowdown allocated in steady state");
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ProbeSlowdownSteadyState);

/// Pure query path: cached-share slowdown against a static model.
void BM_SlowdownQuery(benchmark::State& state) {
  const auto tree = churn_tree();
  cluster::NetworkModel net(tree);
  Rng rng(15);
  populate_churn_sources(tree, net, rng);
  cluster::SourceId id = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.slowdown(id));
    id = id % kChurnSources + 1;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SlowdownQuery);

}  // namespace

BENCHMARK_MAIN();
