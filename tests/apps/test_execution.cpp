#include "apps/execution.hpp"

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/error.hpp"
#include "golden.hpp"
#include "sim/engine.hpp"

namespace rush::apps {
namespace {

cluster::FatTreeConfig small_config() {
  cluster::FatTreeConfig cfg;
  cfg.pods = 1;
  cfg.edges_per_pod = 4;
  cfg.nodes_per_edge = 8;
  cfg.node_link_gbps = 10.0;
  cfg.edge_uplink_gbps = 20.0;
  cfg.pod_uplink_gbps = 80.0;
  return cfg;
}

AppProfile test_app(double net_frac = 0.5, double net_rate = 1.0) {
  AppProfile app;
  app.name = "test-app";
  app.base_runtime_s = 100.0;
  app.compute_frac = 1.0 - net_frac;
  app.network_frac = net_frac;
  app.io_frac = 0.0;
  app.net_gbps_per_node = net_rate;
  app.io_gbps_per_node = 0.0;
  app.pattern = cluster::TrafficPattern::AllToAll;
  app.noise_sigma = 0.0;  // deterministic run times for these tests
  // Make node-count scaling a no-op so runtimes equal base_runtime_s
  // regardless of the placement size used by a test.
  app.serial_fraction = 1.0;
  app.comm_scale_exponent = 0.0;
  return app;
}

struct World {
  World() : tree(small_config()), net(tree), fs(50.0) {
    ExecutionConfig cfg;
    cfg.os_noise = 0.0;
    exec.emplace(engine, net, fs, cfg, Rng(1));
  }
  sim::Engine engine;
  cluster::FatTree tree;
  cluster::NetworkModel net;
  cluster::LustreModel fs;
  std::optional<ExecutionModel> exec;
};

/// What a completion reports: the run time, read from the engine clock
/// when the callback fires, and the slowdown the model passes.
struct Finished {
  double duration_s = 0.0;
  double slowdown = 0.0;
};

/// Completion callback for a run launched now that stores its Finished.
ExecutionModel::CompletionFn finish_into(World& w, std::optional<Finished>& out) {
  return [&w, &out, start_s = w.engine.now()](double slowdown) {
    out = Finished{w.engine.now() - start_s, slowdown};
  };
}

TEST(Execution, UncontendedRunMatchesBaseTime) {
  World w;
  std::optional<Finished> record;
  w.exec->launch(test_app(), {0, 1, 2, 3}, ScalingMode::Strong, finish_into(w, record));
  w.engine.run();
  ASSERT_TRUE(record.has_value());
  // Contained placement, no competing traffic: essentially no slowdown.
  EXPECT_NEAR(record->duration_s, 100.0, 1.0);
  EXPECT_NEAR(record->slowdown, 1.0, 0.01);
}

TEST(Execution, SlowdownIsRunTimeOverUncontendedTime) {
  // Without intrinsic noise the uncontended time is the base run time
  // (100 s), so the slowdown is the engine-clock run time over it.
  World w;
  w.net.set_ambient_load(w.tree.edge_uplink(0), 25.0);
  std::optional<Finished> record;
  w.engine.schedule_at(50.0, [&] {
    w.exec->launch(test_app(), {6, 7, 8, 9}, ScalingMode::Strong, finish_into(w, record));
  });
  w.engine.run();
  ASSERT_TRUE(record.has_value());
  EXPECT_GT(record->slowdown, 1.3);
  EXPECT_DOUBLE_EQ(record->slowdown, record->duration_s / 100.0);
}

TEST(Execution, CongestionStretchesRuntime) {
  World w;
  std::optional<Finished> record;
  // Saturate the edge-0 uplink for the whole run.
  w.net.set_ambient_load(w.tree.edge_uplink(0), 25.0);
  // Job straddles edges 0-1, so its all-to-all crosses the hot uplink.
  w.exec->launch(test_app(0.5, 1.0), {6, 7, 8, 9}, ScalingMode::Strong,
                 finish_into(w, record));
  w.engine.run();
  ASSERT_TRUE(record.has_value());
  EXPECT_GT(record->slowdown, 1.3);
  EXPECT_GT(record->duration_s, 130.0);
}

TEST(Execution, ComputeBoundJobIsInsensitive) {
  World w;
  std::optional<Finished> record;
  w.net.set_ambient_load(w.tree.edge_uplink(0), 25.0);
  w.exec->launch(test_app(/*net_frac=*/0.05, 0.5), {6, 7, 8, 9}, ScalingMode::Strong,
                 finish_into(w, record));
  w.engine.run();
  ASSERT_TRUE(record.has_value());
  EXPECT_LT(record->slowdown, 1.12);
}

TEST(Execution, MidRunContentionChangeIsIntegrated) {
  // Same job with contention applied only for the second half runs
  // noticeably shorter than one contended start to finish.
  auto run_with_window = [](double congest_from, double congest_until) {
    World w;
    std::optional<Finished> record;
    w.engine.schedule_at(congest_from, [&] {
      w.net.set_ambient_load(w.tree.edge_uplink(0), 25.0);
    });
    if (congest_until > congest_from) {
      w.engine.schedule_at(congest_until, [&] {
        w.net.set_ambient_load(w.tree.edge_uplink(0), 0.0);
      });
    }
    w.exec->launch(test_app(), {6, 7, 8, 9}, ScalingMode::Strong, finish_into(w, record));
    w.engine.run();
    return record->duration_s;
  };
  const double fully_contended = run_with_window(0.0, 1e9);
  const double half_contended = run_with_window(60.0, 1e9);
  const double clean = run_with_window(1e6, 0.0);  // congestion after the job
  EXPECT_GT(fully_contended, half_contended + 5.0);
  EXPECT_GT(half_contended, clean + 5.0);
}

/// Completion callback that appends the run's label and slowdown.
ExecutionModel::CompletionFn log_to(std::vector<int>& order, std::vector<double>& slowdowns,
                                    int label) {
  return [&order, &slowdowns, label](double slowdown) {
    order.push_back(label);
    slowdowns.push_back(slowdown);
  };
}

// Golden rows: the slowdowns, in completion order, of noisy runs that
// overlap each other and a congestion window on edge 0's uplink (the rig
// of MidRunContentionChangeIsIntegrated), recorded before the model
// reported a slowdown instead of a run record.
TEST(Execution, MidRunSlowdownsKeepTheirGoldenRows) {
  World w;
  w.engine.schedule_at(60.0, [&] { w.net.set_ambient_load(w.tree.edge_uplink(0), 25.0); });
  w.engine.schedule_at(200.0, [&] { w.net.set_ambient_load(w.tree.edge_uplink(0), 0.0); });
  auto app = test_app(0.5, 2.0);
  app.noise_sigma = 0.05;
  auto short_app = app;
  short_app.base_runtime_s = 40.0;
  std::vector<int> order;
  std::vector<double> slowdowns;
  w.exec->launch(app, {6, 7, 8, 9}, ScalingMode::Strong, log_to(order, slowdowns, 0));
  w.exec->launch(short_app, {0, 1, 2, 3}, ScalingMode::Strong, log_to(order, slowdowns, 1));
  w.engine.schedule_at(30.0, [&] {
    w.exec->launch(app, {4, 5, 10, 11}, ScalingMode::Strong, log_to(order, slowdowns, 2));
  });
  w.engine.schedule_at(150.0, [&] {
    w.exec->launch(short_app, {12, 13, 14, 15, 16, 17}, ScalingMode::Strong,
                   log_to(order, slowdowns, 3));
    w.exec->launch(app, {20, 21}, ScalingMode::Strong, log_to(order, slowdowns, 4));
  });
  w.engine.run();

  const std::array<int, 5> golden_order{1, 0, 2, 3, 4};
  const std::array<std::uint64_t, 5> golden_bits{0x3ff00013d42387faULL, 0x3ff524d01ac4c320ULL,
                                                 0x3ff91ba1bf06c879ULL, 0x3ff000545f497b4aULL,
                                                 0x3ff00013d42387fbULL};
  ASSERT_EQ(order.size(), golden_order.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(order[i], golden_order[i]) << "completion " << i;
    EXPECT_EQ(golden::hex(std::bit_cast<std::uint64_t>(slowdowns[i])),
              golden::hex(golden_bits[i]))
        << "completion " << i;
  }
}

TEST(Execution, ConcurrentJobsSlowEachOther) {
  World w;
  std::optional<Finished> first;
  std::optional<Finished> second;
  const auto app = test_app(0.5, 4.0);  // heavy traffic
  // Both straddle the edge 0-1 boundary.
  w.exec->launch(app, {4, 5, 6, 7, 8, 9}, ScalingMode::Strong, finish_into(w, first));
  const double solo_projection = [&] {
    World solo;
    std::optional<Finished> r;
    solo.exec->launch(app, {4, 5, 6, 7, 8, 9}, ScalingMode::Strong, finish_into(solo, r));
    solo.engine.run();
    return r->duration_s;
  }();
  w.exec->launch(app, {2, 3, 10, 11, 12, 13}, ScalingMode::Strong, finish_into(w, second));
  w.engine.run();
  ASSERT_TRUE(first.has_value() && second.has_value());
  EXPECT_GT(first->duration_s, solo_projection);
}

TEST(Execution, CompletionSpeedsUpSurvivors) {
  World w;
  std::vector<int> order;
  std::vector<double> slowdowns;
  auto heavy = test_app(0.5, 6.0);
  heavy.base_runtime_s = 50.0;  // finishes first
  auto light = test_app(0.5, 0.5);
  light.base_runtime_s = 150.0;
  w.exec->launch(heavy, {4, 5, 6, 7, 8, 9}, ScalingMode::Strong, log_to(order, slowdowns, 0));
  w.exec->launch(light, {2, 3, 10, 11}, ScalingMode::Strong, log_to(order, slowdowns, 1));
  w.engine.run();
  // The light job outlives the heavy one and is only contended while the
  // heavy one runs: its slowdown must be below a permanently-contended
  // projection.
  ASSERT_EQ(order, (std::vector<int>{0, 1}));
  EXPECT_GT(slowdowns[1], 1.0);
}

TEST(Execution, RunningCountTracksLifecycle) {
  World w;
  EXPECT_EQ(w.exec->running_count(), 0u);
  w.exec->launch(test_app(), {0, 1}, ScalingMode::Strong, nullptr);
  w.exec->launch(test_app(), {2, 3}, ScalingMode::Strong, nullptr);
  EXPECT_EQ(w.exec->running_count(), 2u);
  w.engine.run();
  EXPECT_EQ(w.exec->running_count(), 0u);
}

TEST(Execution, DestructorCleansUpSources) {
  World w;
  w.exec->launch(test_app(), {6, 7, 8, 9}, ScalingMode::Strong, nullptr);
  EXPECT_GT(w.net.node_xmit_gbps(6), 0.0);
  w.exec.reset();  // destroy with the job still running
  EXPECT_DOUBLE_EQ(w.net.node_xmit_gbps(6), 0.0);
  EXPECT_DOUBLE_EQ(w.fs.total_demand_gbps(), 0.0);
}

TEST(Execution, IntrinsicNoiseVariesRunTimes) {
  World w;
  auto noisy = test_app();
  noisy.noise_sigma = 0.05;
  std::vector<double> durations;  // every run starts at t = 0
  for (int i = 0; i < 5; ++i) {
    w.exec->launch(noisy, {static_cast<cluster::NodeId>(2 * i),
                           static_cast<cluster::NodeId>(2 * i + 1)},
                   ScalingMode::Strong, [&](double) { durations.push_back(w.engine.now()); });
  }
  w.engine.run();
  ASSERT_EQ(durations.size(), 5u);
  bool any_different = false;
  for (double d : durations)
    if (std::abs(d - durations[0]) > 1e-6) any_different = true;
  EXPECT_TRUE(any_different);
}

TEST(Execution, OneCompletionEventWhateverTheRunningCount) {
  World w;
  for (cluster::NodeId n = 0; n < 4; ++n)
    w.exec->launch(test_app(), {2 * n, 2 * n + 1}, ScalingMode::Strong, nullptr);
  ASSERT_EQ(w.exec->running_count(), 4u);
  // The earliest completion plus the re-evaluation tick.
  EXPECT_EQ(w.engine.pending_events(), 2u);
}

TEST(Execution, EqualFinishTimesCompleteInLaunchOrder) {
  World w;
  std::vector<int> launched;
  std::vector<int> finished;
  std::vector<double> slowdowns;
  for (cluster::NodeId n = 0; n < 4; ++n) {
    w.exec->launch(test_app(0.0), {n}, ScalingMode::Strong, log_to(finished, slowdowns, n));
    launched.push_back(n);
  }
  w.engine.run();
  EXPECT_EQ(finished, launched);
}

TEST(Execution, LaunchRejectsEmptyNodeSet) {
  World w;
  EXPECT_THROW((void)w.exec->launch(test_app(), {}, ScalingMode::Strong, nullptr),
               PreconditionError);
}

TEST(Execution, AbortNeverCompletesAndRemovesTraffic) {
  // The node-crash requeue path: an aborted run must not fire its
  // completion callback, and its traffic must leave the fabric.
  World w;
  bool completed = false;
  const ExecutionModel::RunId id = w.exec->launch(
      test_app(0.5, 2.0), {0, 1, 2, 3}, ScalingMode::Strong, [&](double) { completed = true; });
  w.engine.schedule_at(30.0, [&] { w.exec->abort(id); });
  w.engine.run();

  EXPECT_FALSE(completed);
  EXPECT_EQ(w.exec->running_count(), 0u);
  EXPECT_DOUBLE_EQ(w.net.link_load_gbps(w.tree.node_link(0)), 0.0);
}

TEST(Execution, AbortSpeedsUpSurvivors) {
  World w;
  std::optional<Finished> record;
  auto heavy = test_app(0.5, 6.0);
  heavy.base_runtime_s = 1000.0;  // would contend for the victim's whole life
  auto light = test_app(0.5, 0.5);
  light.base_runtime_s = 150.0;
  const ExecutionModel::RunId noisy =
      w.exec->launch(heavy, {4, 5, 6, 7, 8, 9}, ScalingMode::Strong, nullptr);
  w.exec->launch(light, {2, 3, 10, 11}, ScalingMode::Strong, finish_into(w, record));

  // Kill the noisy neighbor early; the survivor must finish close to its
  // uncontended time.
  w.engine.schedule_at(10.0, [&] { w.exec->abort(noisy); });
  w.engine.run();
  ASSERT_TRUE(record.has_value());
  EXPECT_GT(record->slowdown, 1.0);
  EXPECT_LT(record->duration_s, 165.0);
}

TEST(Execution, AbortOfUnknownRunIsRejected) {
  World w;
  EXPECT_THROW(w.exec->abort(12345), PreconditionError);
}

}  // namespace
}  // namespace rush::apps
