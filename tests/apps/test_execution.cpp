#include "apps/execution.hpp"

#include <gtest/gtest.h>

#include <optional>

#include "common/error.hpp"
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

TEST(Execution, UncontendedRunMatchesBaseTime) {
  World w;
  std::optional<RunRecord> record;
  w.exec->launch(test_app(), {0, 1, 2, 3}, ScalingMode::Strong,
                 [&](const RunRecord& r) { record = r; });
  w.engine.run();
  ASSERT_TRUE(record.has_value());
  // Contained placement, no competing traffic: essentially no slowdown.
  EXPECT_NEAR(record->duration_s, 100.0, 1.0);
  EXPECT_NEAR(record->slowdown(), 1.0, 0.01);
  EXPECT_EQ(record->node_count, 4);
  EXPECT_EQ(record->app, "test-app");
}

TEST(Execution, RecordTimesAreConsistent) {
  World w;
  std::optional<RunRecord> record;
  w.engine.schedule_at(50.0, [&] {
    w.exec->launch(test_app(), {0, 1}, ScalingMode::Strong,
                   [&](const RunRecord& r) { record = r; });
  });
  w.engine.run();
  ASSERT_TRUE(record.has_value());
  EXPECT_DOUBLE_EQ(record->start_s, 50.0);
  EXPECT_NEAR(record->end_s, record->start_s + record->duration_s, 1e-9);
}

TEST(Execution, CongestionStretchesRuntime) {
  World w;
  std::optional<RunRecord> record;
  // Saturate the edge-0 uplink for the whole run.
  w.net.set_ambient_load(w.tree.edge_uplink(0), 25.0);
  // Job straddles edges 0-1, so its all-to-all crosses the hot uplink.
  w.exec->launch(test_app(0.5, 1.0), {6, 7, 8, 9}, ScalingMode::Strong,
                 [&](const RunRecord& r) { record = r; });
  w.engine.run();
  ASSERT_TRUE(record.has_value());
  EXPECT_GT(record->slowdown(), 1.3);
  EXPECT_GT(record->duration_s, 130.0);
}

TEST(Execution, ComputeBoundJobIsInsensitive) {
  World w;
  std::optional<RunRecord> record;
  w.net.set_ambient_load(w.tree.edge_uplink(0), 25.0);
  w.exec->launch(test_app(/*net_frac=*/0.05, 0.5), {6, 7, 8, 9}, ScalingMode::Strong,
                 [&](const RunRecord& r) { record = r; });
  w.engine.run();
  ASSERT_TRUE(record.has_value());
  EXPECT_LT(record->slowdown(), 1.12);
}

TEST(Execution, MidRunContentionChangeIsIntegrated) {
  // Same job with contention applied only for the second half runs
  // noticeably shorter than one contended start to finish.
  auto run_with_window = [](double congest_from, double congest_until) {
    World w;
    std::optional<RunRecord> record;
    w.engine.schedule_at(congest_from, [&] {
      w.net.set_ambient_load(w.tree.edge_uplink(0), 25.0);
    });
    if (congest_until > congest_from) {
      w.engine.schedule_at(congest_until, [&] {
        w.net.set_ambient_load(w.tree.edge_uplink(0), 0.0);
      });
    }
    w.exec->launch(test_app(), {6, 7, 8, 9}, ScalingMode::Strong,
                   [&](const RunRecord& r) { record = r; });
    w.engine.run();
    return record->duration_s;
  };
  const double fully_contended = run_with_window(0.0, 1e9);
  const double half_contended = run_with_window(60.0, 1e9);
  const double clean = run_with_window(1e6, 0.0);  // congestion after the job
  EXPECT_GT(fully_contended, half_contended + 5.0);
  EXPECT_GT(half_contended, clean + 5.0);
}

TEST(Execution, ConcurrentJobsSlowEachOther) {
  World w;
  std::vector<RunRecord> records;
  const auto app = test_app(0.5, 4.0);  // heavy traffic
  // Both straddle the edge 0-1 boundary.
  w.exec->launch(app, {4, 5, 6, 7, 8, 9}, ScalingMode::Strong,
                 [&](const RunRecord& r) { records.push_back(r); });
  const double solo_projection = [&] {
    World solo;
    std::optional<RunRecord> r;
    solo.exec->launch(app, {4, 5, 6, 7, 8, 9}, ScalingMode::Strong,
                      [&](const RunRecord& rec) { r = rec; });
    solo.engine.run();
    return r->duration_s;
  }();
  w.exec->launch(app, {2, 3, 10, 11, 12, 13}, ScalingMode::Strong,
                 [&](const RunRecord& r) { records.push_back(r); });
  w.engine.run();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_GT(records[0].duration_s, solo_projection);
}

TEST(Execution, CompletionSpeedsUpSurvivors) {
  World w;
  std::vector<RunRecord> records;
  auto heavy = test_app(0.5, 6.0);
  heavy.base_runtime_s = 50.0;  // finishes first
  auto light = test_app(0.5, 0.5);
  light.base_runtime_s = 150.0;
  w.exec->launch(heavy, {4, 5, 6, 7, 8, 9}, ScalingMode::Strong,
                 [&](const RunRecord& r) { records.push_back(r); });
  w.exec->launch(light, {2, 3, 10, 11}, ScalingMode::Strong,
                 [&](const RunRecord& r) { records.push_back(r); });
  w.engine.run();
  ASSERT_EQ(records.size(), 2u);
  // The light job outlives the heavy one and is only contended while the
  // heavy one runs: its slowdown must be below a permanently-contended
  // projection.
  const RunRecord& light_rec = records[1];
  EXPECT_EQ(light_rec.app, "test-app");
  EXPECT_GT(light_rec.slowdown(), 1.0);
}

TEST(Execution, ProjectedEndTracksCompletion) {
  World w;
  std::optional<RunRecord> record;
  const auto id = w.exec->launch(test_app(), {0, 1, 2, 3}, ScalingMode::Strong,
                                 [&](const RunRecord& r) { record = r; });
  EXPECT_TRUE(w.exec->is_running(id));
  const double projected = w.exec->projected_end(id);
  w.engine.run();
  ASSERT_TRUE(record.has_value());
  EXPECT_NEAR(projected, record->end_s, 1.0);  // no contention changes
  EXPECT_FALSE(w.exec->is_running(id));
  EXPECT_THROW((void)w.exec->projected_end(id), PreconditionError);
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
  std::vector<double> durations;
  for (int i = 0; i < 5; ++i) {
    w.exec->launch(noisy, {static_cast<cluster::NodeId>(2 * i),
                           static_cast<cluster::NodeId>(2 * i + 1)},
                   ScalingMode::Strong,
                   [&](const RunRecord& r) { durations.push_back(r.duration_s); });
  }
  w.engine.run();
  ASSERT_EQ(durations.size(), 5u);
  bool any_different = false;
  for (double d : durations)
    if (std::abs(d - durations[0]) > 1e-6) any_different = true;
  EXPECT_TRUE(any_different);
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
      test_app(0.5, 2.0), {0, 1, 2, 3}, ScalingMode::Strong,
      [&](const RunRecord&) { completed = true; });
  w.engine.schedule_at(30.0, [&] { w.exec->abort(id); });
  w.engine.run();

  EXPECT_FALSE(completed);
  EXPECT_EQ(w.exec->running_count(), 0u);
  EXPECT_DOUBLE_EQ(w.net.link_load_gbps(w.tree.node_link(0)), 0.0);
}

TEST(Execution, AbortSpeedsUpSurvivors) {
  World w;
  std::optional<RunRecord> record;
  auto heavy = test_app(0.5, 6.0);
  heavy.base_runtime_s = 1000.0;  // would contend for the victim's whole life
  auto light = test_app(0.5, 0.5);
  light.base_runtime_s = 150.0;
  const ExecutionModel::RunId noisy =
      w.exec->launch(heavy, {4, 5, 6, 7, 8, 9}, ScalingMode::Strong, nullptr);
  w.exec->launch(light, {2, 3, 10, 11}, ScalingMode::Strong,
                 [&](const RunRecord& r) { record = r; });

  // Kill the noisy neighbor early; the survivor must finish close to its
  // uncontended time.
  w.engine.schedule_at(10.0, [&] { w.exec->abort(noisy); });
  w.engine.run();
  ASSERT_TRUE(record.has_value());
  EXPECT_GT(record->slowdown(), 1.0);
  EXPECT_LT(record->duration_s, 165.0);
}

TEST(Execution, AbortOfUnknownRunIsRejected) {
  World w;
  EXPECT_THROW(w.exec->abort(12345), PreconditionError);
}

TEST(RunRecord, SlowdownIsRelativeToUncontendedRun) {
  RunRecord r;
  r.duration_s = 150.0;
  r.uncontended_s = 100.0;
  EXPECT_DOUBLE_EQ(r.slowdown(), 1.5);
  r.uncontended_s = 0.0;  // degenerate record: no inflation claimed
  EXPECT_DOUBLE_EQ(r.slowdown(), 1.0);
}

}  // namespace
}  // namespace rush::apps
