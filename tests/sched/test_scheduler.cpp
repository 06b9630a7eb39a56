#include "sched/scheduler.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <optional>

#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "sim/engine.hpp"

namespace rush::sched {
namespace {

cluster::FatTreeConfig small_config() {
  cluster::FatTreeConfig cfg;
  cfg.pods = 1;
  cfg.edges_per_pod = 2;
  cfg.nodes_per_edge = 32;  // 64 nodes
  return cfg;
}

/// Deterministic app: no traffic, no noise — run time equals base time.
apps::AppProfile quiet_app(double runtime_s) {
  apps::AppProfile app;
  app.name = "quiet";
  app.base_runtime_s = runtime_s;
  app.compute_frac = 1.0;
  app.network_frac = 0.0;
  app.io_frac = 0.0;
  app.net_gbps_per_node = 0.0;
  app.io_gbps_per_node = 0.0;
  app.noise_sigma = 0.0;
  app.serial_fraction = 1.0;  // node-count scaling no-op: runtime == base
  return app;
}

JobSpec make_spec(int nodes, double runtime_s, double walltime_s = 0.0) {
  JobSpec spec;
  spec.app = quiet_app(runtime_s);
  spec.num_nodes = nodes;
  spec.walltime_estimate_s = walltime_s > 0.0 ? walltime_s : runtime_s * 1.2;
  return spec;
}

/// Scripted oracle driven by a lambda.
class ScriptedOracle final : public VariabilityOracle {
 public:
  using Fn = std::function<VariabilityPrediction(const Job&)>;
  explicit ScriptedOracle(Fn fn) : fn_(std::move(fn)) {}
  VariabilityPrediction predict(const Job& job, const cluster::NodeSet&) override {
    ++calls_;
    return fn_(job);
  }
  int calls() const noexcept { return calls_; }

 private:
  Fn fn_;
  int calls_ = 0;
};

struct World {
  World()
      : tree(small_config()), net(tree), fs(1000.0),
        exec(engine, net, fs, exec_config(), Rng(1)),
        allocator(tree.nodes_in_pod(0)) {}

  static apps::ExecutionConfig exec_config() {
    apps::ExecutionConfig cfg;
    cfg.os_noise = 0.0;
    return cfg;
  }

  std::unique_ptr<Scheduler> make(SchedulerConfig config,
                                  VariabilityOracle* oracle = nullptr) {
    return std::make_unique<Scheduler>(engine, allocator, exec, std::make_unique<FcfsPolicy>(),
                                       std::make_unique<FcfsPolicy>(), config, oracle);
  }

  sim::Engine engine;
  cluster::FatTree tree;
  cluster::NetworkModel net;
  cluster::LustreModel fs;
  apps::ExecutionModel exec;
  cluster::NodeAllocator allocator;
};

TEST(Scheduler, RunsJobsImmediatelyWhenTheyFit) {
  World w;
  const auto sched_ptr = w.make(SchedulerConfig{});
  const JobId a = sched_ptr->submit(make_spec(16, 100.0));
  const JobId b = sched_ptr->submit(make_spec(16, 100.0));
  EXPECT_EQ(sched_ptr->running_count(), 2u);
  w.engine.run();
  EXPECT_EQ(sched_ptr->completed_count(), 2u);
  EXPECT_DOUBLE_EQ(sched_ptr->job(a).wait_s(), 0.0);
  EXPECT_DOUBLE_EQ(sched_ptr->job(b).wait_s(), 0.0);
  EXPECT_NEAR(sched_ptr->job(a).runtime_s(), 100.0, 0.5);
  EXPECT_EQ(sched_ptr->queue_length(), 0u);
  EXPECT_EQ(sched_ptr->running_count(), 0u);
}

TEST(Scheduler, QueuesWhenFullAndRunsFcfs) {
  World w;
  const auto sched_ptr = w.make(SchedulerConfig{});
  std::vector<JobId> ids;
  for (int i = 0; i < 6; ++i) ids.push_back(sched_ptr->submit(make_spec(16, 100.0)));
  EXPECT_EQ(sched_ptr->running_count(), 4u);  // 64 nodes / 16
  EXPECT_EQ(sched_ptr->queue_length(), 2u);
  w.engine.run();
  EXPECT_EQ(sched_ptr->completed_count(), 6u);
  // The queued jobs start when the first wave completes.
  EXPECT_NEAR(sched_ptr->job(ids[4]).wait_s(), 100.0, 1.0);
  EXPECT_NEAR(sched_ptr->job(ids[5]).wait_s(), 100.0, 1.0);
  EXPECT_NEAR(sched_ptr->makespan(), 200.0, 1.0);
}

TEST(Scheduler, EasyBackfillRunsShortJobsInHoles) {
  World w;
  const auto sched_ptr = w.make(SchedulerConfig{});
  // J0 holds 48 of the 64 nodes for 100 s.
  const JobId j0 = sched_ptr->submit(make_spec(48, 100.0, 100.0));
  // J1 wants the whole machine: reservation at t=100, zero spare nodes.
  const JobId j1 = sched_ptr->submit(make_spec(64, 100.0, 100.0));
  // J2 is short and small: it finishes before the reservation -> backfilled.
  const JobId j2 = sched_ptr->submit(make_spec(16, 50.0, 50.0));
  // J3 is small but too long: it would delay the reservation.
  const JobId j3 = sched_ptr->submit(make_spec(16, 300.0, 300.0));
  w.engine.run();
  EXPECT_DOUBLE_EQ(sched_ptr->job(j0).wait_s(), 0.0);
  EXPECT_NEAR(sched_ptr->job(j1).wait_s(), 100.0, 1.0);
  EXPECT_DOUBLE_EQ(sched_ptr->job(j2).wait_s(), 0.0);
  EXPECT_TRUE(sched_ptr->job(j2).backfilled);
  EXPECT_FALSE(sched_ptr->job(j1).backfilled);
  EXPECT_GE(sched_ptr->job(j3).start_s, sched_ptr->job(j1).start_s);
}

TEST(Scheduler, BackfillCanUseSpareNodesAtReservation) {
  World w;
  const auto sched_ptr = w.make(SchedulerConfig{});
  // J0 holds 48 nodes for 100 s; 16 free now.
  const JobId j0 = sched_ptr->submit(make_spec(48, 100.0, 100.0));
  // J1 wants 32: reservation at t=100 with 64-32=32 spare.
  const JobId j1 = sched_ptr->submit(make_spec(32, 100.0, 100.0));
  // J2 is small enough to fit in the spare even though it runs long.
  const JobId j2 = sched_ptr->submit(make_spec(16, 400.0, 400.0));
  w.engine.run();
  EXPECT_DOUBLE_EQ(sched_ptr->job(j0).wait_s(), 0.0);
  EXPECT_DOUBLE_EQ(sched_ptr->job(j2).wait_s(), 0.0);  // backfilled into spare
  EXPECT_TRUE(sched_ptr->job(j2).backfilled);
  EXPECT_NEAR(sched_ptr->job(j1).wait_s(), 100.0, 1.0);  // reservation honored
}

TEST(Scheduler, BackfillsAJobEndingExactlyAtTheReservation) {
  World w;
  const auto sched_ptr = w.make(SchedulerConfig{});
  // A holds 48 of the 64 nodes with a 100 s walltime.
  const JobId a = sched_ptr->submit(make_spec(48, 100.0, 100.0));
  // B wants the whole machine: reservation at t=100, zero spare nodes.
  const JobId b = sched_ptr->submit(make_spec(64, 100.0, 100.0));
  // C's walltime ends exactly at the reservation, which EASY allows.
  const JobId c = sched_ptr->submit(make_spec(16, 100.0, 100.0));
  EXPECT_DOUBLE_EQ(sched_ptr->job(c).start_s, 0.0);
  EXPECT_TRUE(sched_ptr->job(c).backfilled);
  w.engine.run();
  EXPECT_DOUBLE_EQ(sched_ptr->job(a).wait_s(), 0.0);
  EXPECT_NEAR(sched_ptr->job(b).wait_s(), 100.0, 1.0);
  EXPECT_DOUBLE_EQ(sched_ptr->job(c).wait_s(), 0.0);
}

TEST(Scheduler, BackfillDisabledMeansStrictFcfs) {
  World w;
  SchedulerConfig cfg;
  cfg.enable_backfill = false;
  const auto sched_ptr = w.make(cfg);
  (void)sched_ptr->submit(make_spec(64, 100.0, 100.0));
  (void)sched_ptr->submit(make_spec(64, 100.0, 100.0));
  const JobId small = sched_ptr->submit(make_spec(16, 50.0, 50.0));
  w.engine.run();
  // Without EASY the small job waits for both big jobs ahead of it.
  EXPECT_NEAR(sched_ptr->job(small).wait_s(), 200.0, 1.0);
}

TEST(Scheduler, SubmitAtDelaysEnqueue) {
  World w;
  const auto sched_ptr = w.make(SchedulerConfig{});
  const JobId id = sched_ptr->submit_at(500.0, make_spec(16, 100.0));
  EXPECT_EQ(sched_ptr->queue_length(), 0u);
  w.engine.run();
  EXPECT_DOUBLE_EQ(sched_ptr->job(id).submit_s, 500.0);
  EXPECT_DOUBLE_EQ(sched_ptr->job(id).wait_s(), 0.0);
}

TEST(Scheduler, MakespanTracksIncrementalEndpoints) {
  World w;
  const auto sched_ptr = w.make(SchedulerConfig{});
  EXPECT_DOUBLE_EQ(sched_ptr->makespan(), 0.0);  // nothing submitted
  const JobId a = sched_ptr->submit(make_spec(16, 100.0));
  EXPECT_DOUBLE_EQ(sched_ptr->makespan(), 0.0);  // nothing completed yet
  w.engine.run();
  EXPECT_NEAR(sched_ptr->makespan(), 100.0, 0.5);
  // A later out-of-order wave must stretch only the right endpoint: first
  // submit stays t=0 even though this submission happens at t=500.
  const JobId b = sched_ptr->submit_at(500.0, make_spec(16, 100.0));
  w.engine.run();
  EXPECT_NEAR(sched_ptr->makespan(), 600.0, 0.5);
  EXPECT_EQ(sched_ptr->job(a).state, JobState::Completed);
  EXPECT_EQ(sched_ptr->job(b).state, JobState::Completed);
}

TEST(Scheduler, MakespanAnchorsAtFirstDeferredSubmission) {
  World w;
  const auto sched_ptr = w.make(SchedulerConfig{});
  // Only deferred submissions: the left endpoint is the deferred submit
  // time (t=500), not the wall-clock time of the submit_at call (t=0).
  (void)sched_ptr->submit_at(500.0, make_spec(16, 100.0));
  w.engine.run();
  EXPECT_NEAR(sched_ptr->makespan(), 100.0, 0.5);
}

TEST(Scheduler, HooksFireOnStartAndComplete) {
  World w;
  const auto sched_ptr = w.make(SchedulerConfig{});
  int starts = 0, completes = 0;
  sched_ptr->on_start([&](const Job& job) {
    ++starts;
    EXPECT_EQ(job.state, JobState::Running);
    EXPECT_FALSE(job.nodes.empty());
  });
  sched_ptr->on_complete([&](const Job& job) {
    ++completes;
    EXPECT_EQ(job.state, JobState::Completed);
    EXPECT_GT(job.runtime_s(), 0.0);
    // A quiet app has no intrinsic noise: its uncontended time is 50 s.
    EXPECT_DOUBLE_EQ(job.slowdown, job.runtime_s() / 50.0);
  });
  sched_ptr->submit(make_spec(16, 50.0));
  sched_ptr->submit(make_spec(16, 50.0));
  w.engine.run();
  EXPECT_EQ(starts, 2);
  EXPECT_EQ(completes, 2);
}

SchedulerConfig rush_config() {
  SchedulerConfig cfg;
  cfg.rush_enabled = true;
  cfg.min_reconsider_interval_s = 1.0;  // re-evaluate on nearly every pass
  cfg.retry_period_s = 10.0;
  return cfg;
}

TEST(Scheduler, RushDelaysPredictedVariation) {
  World w;
  // Variation until t=100, calm afterwards.
  ScriptedOracle oracle([&w](const Job&) {
    return w.engine.now() < 100.0 ? VariabilityPrediction::Variation
                                  : VariabilityPrediction::NoVariation;
  });
  const auto sched_ptr = w.make(rush_config(), &oracle);
  const JobId id = sched_ptr->submit(make_spec(16, 50.0));
  w.engine.run();
  const Job& job = sched_ptr->job(id);
  EXPECT_EQ(job.state, JobState::Completed);
  EXPECT_GE(job.start_s, 100.0);   // waited out the congestion
  EXPECT_LE(job.start_s, 130.0);   // but launched soon after (retry timer)
  EXPECT_GT(job.skip_count, 0);
  EXPECT_EQ(sched_ptr->total_skips(), static_cast<std::uint64_t>(job.skip_count));
}

TEST(Scheduler, SkipThresholdBoundsStarvation) {
  World w;
  ScriptedOracle oracle([](const Job&) { return VariabilityPrediction::Variation; });
  SchedulerConfig cfg = rush_config();
  const auto sched_ptr = w.make(cfg, &oracle);
  JobSpec spec = make_spec(16, 50.0);
  spec.skip_threshold = 4;
  const JobId id = sched_ptr->submit(spec);
  w.engine.run();
  const Job& job = sched_ptr->job(id);
  EXPECT_EQ(job.state, JobState::Completed);  // ran despite hostile oracle
  EXPECT_EQ(job.skip_count, 4);
}

TEST(Scheduler, LittleVariationDelaysOnlyWhenConfigured) {
  for (const bool delay_little : {false, true}) {
    World w;
    ScriptedOracle oracle([&w](const Job&) {
      return w.engine.now() < 50.0 ? VariabilityPrediction::LittleVariation
                                   : VariabilityPrediction::NoVariation;
    });
    SchedulerConfig cfg = rush_config();
    cfg.delay_on_little_variation = delay_little;
    const auto sched_ptr = w.make(cfg, &oracle);
    const JobId id = sched_ptr->submit(make_spec(16, 20.0));
    w.engine.run();
    if (delay_little) {
      EXPECT_GE(sched_ptr->job(id).start_s, 50.0);
    } else {
      EXPECT_DOUBLE_EQ(sched_ptr->job(id).start_s, 0.0);
    }
  }
}

TEST(Scheduler, ReconsiderIntervalLimitsOracleCalls) {
  World w;
  ScriptedOracle oracle([&w](const Job&) {
    return w.engine.now() < 100.0 ? VariabilityPrediction::Variation
                                  : VariabilityPrediction::NoVariation;
  });
  SchedulerConfig cfg = rush_config();
  cfg.min_reconsider_interval_s = 40.0;
  cfg.retry_period_s = 5.0;  // frequent passes, few evaluations
  const auto sched_ptr = w.make(cfg, &oracle);
  const JobId id = sched_ptr->submit(make_spec(16, 50.0));
  w.engine.run();
  EXPECT_EQ(sched_ptr->job(id).state, JobState::Completed);
  // Evaluations: t=0, ~40, ~80, ~120 -> roughly 4, far below passes run.
  EXPECT_LE(oracle.calls(), 6);
  EXPECT_LE(sched_ptr->job(id).skip_count, 4);
}

TEST(Scheduler, SkipPlacementControlsQueueOrder) {
  for (const auto placement : {SkipPlacement::Front, SkipPlacement::AfterFront}) {
    World w;
    // Keep 48 nodes busy so only 16 are free.
    ScriptedOracle oracle([](const Job& job) {
      // Only the 16-node job (j1) is predicted to vary.
      return job.spec.num_nodes == 16 ? VariabilityPrediction::Variation
                                      : VariabilityPrediction::NoVariation;
    });
    SchedulerConfig cfg = rush_config();
    cfg.skip_placement = placement;
    const auto sched_ptr = w.make(cfg, &oracle);
    (void)sched_ptr->submit(make_spec(48, 500.0, 500.0));  // occupies the machine
    const JobId j1 = sched_ptr->submit(make_spec(16, 50.0));   // delayed by oracle
    const JobId j2 = sched_ptr->submit(make_spec(32, 50.0));   // cannot fit now
    const auto queue = sched_ptr->queued_jobs();
    ASSERT_EQ(queue.size(), 2u);
    if (placement == SkipPlacement::Front) {
      EXPECT_EQ(queue[0], j1);  // "remains at the top"
      EXPECT_EQ(queue[1], j2);
    } else {
      EXPECT_EQ(queue[0], j2);  // "push after front"
      EXPECT_EQ(queue[1], j1);
    }
  }
}

TEST(Scheduler, ManyDelayedJobsAllCompleteEventually) {
  World w;
  ScriptedOracle oracle([&w](const Job&) {
    return w.engine.now() < 300.0 ? VariabilityPrediction::Variation
                                  : VariabilityPrediction::NoVariation;
  });
  const auto sched_ptr = w.make(rush_config(), &oracle);
  std::vector<JobId> ids;
  for (int i = 0; i < 12; ++i) ids.push_back(sched_ptr->submit(make_spec(16, 60.0)));
  w.engine.run();
  for (JobId id : ids) {
    EXPECT_EQ(sched_ptr->job(id).state, JobState::Completed);
    EXPECT_LE(sched_ptr->job(id).skip_count, sched_ptr->job(id).spec.skip_threshold);
  }
}

TEST(Scheduler, AccountingAndAccessors) {
  World w;
  obs::MetricsRegistry metrics;
  SchedulerConfig cfg;
  cfg.metrics = &metrics;
  const auto sched_ptr = w.make(cfg);
  const JobId a = sched_ptr->submit(make_spec(16, 100.0));
  w.engine.run_until(500.0);
  const JobId b = sched_ptr->submit(make_spec(16, 100.0));
  w.engine.run();
  EXPECT_EQ(sched_ptr->job(a).id, a);
  EXPECT_EQ(sched_ptr->job(b).id, b);
  EXPECT_EQ(sched_ptr->job(a).state, JobState::Completed);
  EXPECT_EQ(sched_ptr->job(b).state, JobState::Completed);
  EXPECT_EQ(sched_ptr->completed_count(), 2u);
  // Makespan: first submit (t=0) to last end (~600).
  EXPECT_NEAR(sched_ptr->makespan(), 600.0, 1.0);
  EXPECT_GT(metrics.counter("sched.passes").value(), 0u);
  EXPECT_THROW((void)sched_ptr->job(999), PreconditionError);
}

TEST(Scheduler, RejectsInvalidSubmissions) {
  World w;
  const auto sched_ptr = w.make(SchedulerConfig{});
  JobSpec too_big = make_spec(65, 100.0);
  EXPECT_THROW((void)sched_ptr->submit(too_big), PreconditionError);
  JobSpec no_estimate = make_spec(16, 100.0);
  no_estimate.walltime_estimate_s = 0.0;
  EXPECT_THROW((void)sched_ptr->submit(no_estimate), PreconditionError);
  JobSpec zero_nodes = make_spec(16, 100.0);
  zero_nodes.num_nodes = 0;
  EXPECT_THROW((void)sched_ptr->submit(zero_nodes), PreconditionError);
}

TEST(Scheduler, RushRequiresOracle) {
  World w;
  SchedulerConfig cfg;
  cfg.rush_enabled = true;
  EXPECT_THROW(w.make(cfg, nullptr), PreconditionError);
}

}  // namespace
}  // namespace rush::sched
