// Micro-benchmarks of the scheduling hot path: steady-state pass latency
// and end-to-end submit→drain throughput at queue depths 64/512/4096 on
// 512- and 4096-node clusters.
//
// Both measure the incremental Scheduler (indexed queue + reservation
// timeline + word-bitset allocator). The pass benchmark also counts heap
// allocations via bench/alloc_counter and fails if a steady-state pass
// (saturated machine, nothing launchable) allocates at all — the
// scratch-buffer reuse contract of DESIGN.md §14.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <numeric>
#include <vector>

#include "alloc_counter.hpp"
#include "common/rng.hpp"
#include "sched/scheduler.hpp"
#include "sim/engine.hpp"

namespace {

using namespace rush;

cluster::FatTreeConfig tree_config(int total_nodes) {
  cluster::FatTreeConfig cfg;
  cfg.pods = total_nodes / (cfg.edges_per_pod * cfg.nodes_per_edge);  // 512 per pod
  return cfg;
}

/// Deterministic app: no traffic, no noise — run time equals base time,
/// so the benchmark measures the scheduler, not the contention model.
apps::AppProfile quiet_app(double runtime_s) {
  apps::AppProfile app;
  app.name = "bench";
  app.base_runtime_s = runtime_s;
  app.compute_frac = 1.0;
  app.network_frac = 0.0;
  app.io_frac = 0.0;
  app.net_gbps_per_node = 0.0;
  app.io_gbps_per_node = 0.0;
  app.noise_sigma = 0.0;
  app.serial_fraction = 1.0;
  return app;
}

sched::JobSpec make_spec(int nodes, double runtime_s, double walltime_s) {
  sched::JobSpec spec;
  spec.app = quiet_app(runtime_s);
  spec.num_nodes = nodes;
  spec.walltime_estimate_s = walltime_s;
  return spec;
}

/// One isolated cluster world per benchmark run. No trace, no metrics,
/// no oracle: the measurement is the scheduler data structures alone.
struct BenchWorld {
  explicit BenchWorld(int total_nodes)
      : tree(tree_config(total_nodes)), net(tree), fs(1000.0),
        exec(engine, net, fs, exec_config(), Rng(7)), allocator(all_nodes(total_nodes)) {}

  static apps::ExecutionConfig exec_config() {
    apps::ExecutionConfig cfg;
    cfg.os_noise = 0.0;
    return cfg;
  }
  static cluster::NodeSet all_nodes(int total) {
    cluster::NodeSet nodes(static_cast<std::size_t>(total));
    std::iota(nodes.begin(), nodes.end(), 0);
    return nodes;
  }

  std::unique_ptr<sched::Scheduler> make_scheduler() {
    return std::make_unique<sched::Scheduler>(engine, allocator, exec,
                                              std::make_unique<sched::FcfsPolicy>(),
                                              std::make_unique<sched::SjfPolicy>(),
                                              sched::SchedulerConfig{});
  }

  sim::Engine engine;
  cluster::FatTree tree;
  cluster::NetworkModel net;
  cluster::LustreModel fs;
  apps::ExecutionModel exec;
  cluster::NodeAllocator allocator;
};

/// Saturate the machine with long runners, deepen the queue, and measure
/// one scheduling pass: reservation for the head job, backfill candidate
/// scan over the whole queue, nothing launchable. This is the pass a
/// busy cluster runs thousands of times between completions.
void BM_SchedPassSaturated(benchmark::State& state) {
  const int depth = static_cast<int>(state.range(0));
  const int nodes = static_cast<int>(state.range(1));
  BenchWorld w(nodes);
  auto sched = w.make_scheduler();

  const int wide = nodes / 16;
  for (int i = 0; i < 16; ++i)
    (void)sched->submit(make_spec(wide, 1.0e8, 1.2e8));  // fills every node
  for (int i = 0; i < depth; ++i) (void)sched->submit(make_spec(2, 100.0, 120.0));
  sched->schedule_pass();  // warm the scratch buffers

  const std::uint64_t allocs_before = bench::g_alloc_count;
  for (auto _ : state) {
    sched->schedule_pass();
    benchmark::DoNotOptimize(sched->queue_length());
  }
  bench::report_allocs(state, bench::g_alloc_count - allocs_before,
                       "steady-state scheduling pass allocated");
}
BENCHMARK(BM_SchedPassSaturated)
    ->Args({64, 512})
    ->Args({512, 512})
    ->Args({4096, 4096})
    ->Unit(benchmark::kMicrosecond);

/// End-to-end throughput: submit `depth` mixed-width jobs at t=0 and
/// drain the simulation. Covers submit ordering, launch, backfill,
/// completion bookkeeping, and the allocator under churn.
void BM_SchedSubmitDrain(benchmark::State& state) {
  const int depth = static_cast<int>(state.range(0));
  const int nodes = static_cast<int>(state.range(1));
  std::uint64_t drained = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto w = std::make_unique<BenchWorld>(nodes);
    auto sched = w->make_scheduler();
    Rng rng(42);
    state.ResumeTiming();

    for (int i = 0; i < depth; ++i) {
      const int width = static_cast<int>(rng.uniform_int(1, 64));
      const double runtime = rng.uniform(10.0, 100.0);
      (void)sched->submit(make_spec(width, runtime, runtime * 1.2));
    }
    w->engine.run();
    drained += sched->completed_count();

    state.PauseTiming();
    sched.reset();
    w.reset();
    state.ResumeTiming();
  }
  state.counters["jobs_per_s"] =
      benchmark::Counter(static_cast<double>(drained), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SchedSubmitDrain)
    ->Args({64, 512})
    ->Args({512, 512})
    ->Args({4096, 4096})
    ->Unit(benchmark::kMillisecond);

/// Allocator in isolation: fill the machine with 33-node allocations
/// (forcing word-straddling runs), release every other one, then satisfy
/// a fragmented fallback allocation and release everything.
void BM_AllocatorChurn(benchmark::State& state) {
  const int nodes = static_cast<int>(state.range(0));
  BenchWorld w(nodes);
  for (auto _ : state) {
    std::vector<cluster::NodeSet> held;
    while (auto got = w.allocator.allocate(33)) held.push_back(std::move(*got));
    for (std::size_t i = 0; i < held.size(); i += 2) w.allocator.release(held[i]);
    const auto frag = w.allocator.allocate(w.allocator.free_count());
    for (std::size_t i = 1; i < held.size(); i += 2) w.allocator.release(held[i]);
    w.allocator.release(*frag);
    benchmark::DoNotOptimize(w.allocator.free_count());
  }
}
BENCHMARK(BM_AllocatorChurn)->Arg(512)->Arg(4096)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
