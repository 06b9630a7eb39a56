// Degraded-mode behaviour under injected faults: scheduler requeue on
// node crash, drained-node exclusion, oracle fallback when telemetry or
// canaries are unavailable, and the zero-fault byte-identity guarantee.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/experiment.hpp"
#include "core/result_io.hpp"
#include "faults/injector.hpp"
#include "golden.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sched/scheduler.hpp"
#include "sim/engine.hpp"

namespace rush {
namespace {

// ---------------------------------------------------------------------------
// Scheduler-level fault handling (crash requeue, drain exclusion).
// ---------------------------------------------------------------------------

cluster::FatTreeConfig sched_config() {
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
  app.serial_fraction = 1.0;
  return app;
}

sched::JobSpec make_spec(int nodes, double runtime_s) {
  sched::JobSpec spec;
  spec.app = quiet_app(runtime_s);
  spec.num_nodes = nodes;
  spec.walltime_estimate_s = runtime_s * 1.2;
  return spec;
}

struct FaultWorld {
  explicit FaultWorld(const char* plan_json)
      : tree(sched_config()), net(tree), fs(1000.0),
        exec(engine, net, fs, exec_config(), Rng(1)),
        allocator(tree.nodes_in_pod(0)),
        injector(engine, faults::FaultPlan::from_json(plan_json)),
        trace(sink) {}

  static apps::ExecutionConfig exec_config() {
    apps::ExecutionConfig cfg;
    cfg.os_noise = 0.0;
    return cfg;
  }

  std::unique_ptr<sched::Scheduler> make_scheduler() {
    sched::SchedulerConfig config;
    config.faults = &injector;
    config.trace = &trace;
    config.metrics = &metrics;
    return std::make_unique<sched::Scheduler>(
        engine, allocator, exec, std::make_unique<sched::FcfsPolicy>(),
        std::make_unique<sched::FcfsPolicy>(), config, nullptr);
  }

  std::string trace_text() {
    trace.flush();
    return sink.str();
  }

  sim::Engine engine;
  cluster::FatTree tree;
  cluster::NetworkModel net;
  cluster::LustreModel fs;
  apps::ExecutionModel exec;
  cluster::NodeAllocator allocator;
  faults::FaultInjector injector;
  std::ostringstream sink;
  obs::EventTrace trace;
  obs::MetricsRegistry metrics;
};

TEST(DegradedScheduler, MidRunCrashRequeuesExactlyOnceAndJobCompletes) {
  // Node 5 dies at t=300 and returns at t=700; the full-machine job must
  // be requeued once and restart only after the restore.
  FaultWorld w(R"({"events": [
      {"kind": "node_crash", "at_s": 300, "node": 5, "duration_s": 400}]})");
  const auto sched = w.make_scheduler();
  w.injector.arm();

  const sched::JobId a = sched->submit(make_spec(64, 1000.0));
  w.engine.run();

  EXPECT_EQ(sched->completed_count(), 1u);
  const sched::Job& job = sched->job(a);
  EXPECT_EQ(job.state, sched::JobState::Completed);
  EXPECT_EQ(job.requeues, 1);
  EXPECT_EQ(sched->total_requeues(), 1u);
  EXPECT_GE(job.start_s, 700.0);  // could not restart before the node came back
  EXPECT_NEAR(job.end_s, job.start_s + 1000.0, 1.0);

  const std::string out = w.trace_text();
  EXPECT_NE(out.find("\"ev\":\"fault_job_requeue\""), std::string::npos) << out;
  EXPECT_EQ(w.metrics.counter("sched.fault_requeues").value(), 1u);
}

TEST(DegradedScheduler, CrashOnlyRequeuesVictimsOnTheDeadNode) {
  FaultWorld w(R"({"events": [
      {"kind": "node_crash", "at_s": 300, "node": 20, "duration_s": 2000}]})");
  const auto sched = w.make_scheduler();
  w.injector.arm();

  const sched::JobId a = sched->submit(make_spec(16, 1000.0));
  const sched::JobId b = sched->submit(make_spec(16, 1000.0));
  ASSERT_EQ(sched->running_count(), 2u);
  const bool victim_is_b = std::binary_search(sched->job(b).nodes.begin(),
                                              sched->job(b).nodes.end(), cluster::NodeId{20});
  ASSERT_TRUE(victim_is_b || std::binary_search(sched->job(a).nodes.begin(),
                                                sched->job(a).nodes.end(), cluster::NodeId{20}));
  const sched::JobId victim = victim_is_b ? b : a;
  const sched::JobId bystander = victim_is_b ? a : b;

  w.engine.run();

  EXPECT_EQ(sched->completed_count(), 2u);
  EXPECT_EQ(sched->job(victim).requeues, 1);
  EXPECT_EQ(sched->job(bystander).requeues, 0);
  EXPECT_EQ(sched->total_requeues(), 1u);
  // Plenty of healthy nodes left: the victim restarts immediately.
  EXPECT_NEAR(sched->job(victim).start_s, 300.0, 1.0);
  EXPECT_NEAR(sched->job(bystander).end_s, 1000.0, 1.0);
}

TEST(DegradedScheduler, DrainedNodeIsExcludedUntilRestore) {
  // Node 3 drains at t=50 (no victims: nothing is running yet) and comes
  // back at t=500; a full-machine job submitted at t=100 must wait.
  FaultWorld w(R"({"events": [
      {"kind": "node_drain",   "at_s": 50,  "node": 3},
      {"kind": "node_restore", "at_s": 500, "node": 3}]})");
  const auto sched = w.make_scheduler();
  w.injector.arm();

  sched::JobId a = 0;
  w.engine.schedule_at(100.0, [&] { a = sched->submit(make_spec(64, 200.0)); });
  w.engine.run();

  EXPECT_EQ(sched->completed_count(), 1u);
  const sched::Job& job = sched->job(a);
  EXPECT_EQ(job.requeues, 0);  // a drain never kills running work
  EXPECT_GE(job.start_s, 500.0);
  EXPECT_LE(job.start_s, 501.0);  // the restore itself re-triggers a pass
}

// ---------------------------------------------------------------------------
// Experiment-level degraded mode (oracle fallback, byte identity).
// ---------------------------------------------------------------------------

constexpr std::size_t kF = telemetry::FeatureAssembler::kNumFeatures;

/// Small synthetic corpus over the real proxy apps (mirrors
/// tests/core/test_experiment.cpp) so the runner can train a predictor.
core::Corpus synthetic_corpus(std::uint64_t seed) {
  Rng rng(seed);
  core::Corpus c;
  const auto names = apps::proxy_app_names();
  for (std::size_t a = 0; a < names.size(); ++a) {
    const auto app = *apps::find_app(names[a]);
    for (int i = 0; i < 60; ++i) {
      core::CollectedSample s;
      s.app = names[a];
      s.app_index = static_cast<int>(a);
      s.workload = app.workload;
      s.node_count = 16;
      const double congestion =
          rng.bernoulli(0.15) ? rng.uniform(0.5, 1.0) : rng.uniform(0.0, 0.25);
      s.runtime_s = app.base_runtime_s * (1.0 + 0.5 * congestion) +
                    rng.normal(0.0, app.base_runtime_s * 0.01);
      s.features_all.assign(kF, 0.0);
      s.features_job.assign(kF, 0.0);
      s.features_all[0] = congestion;
      s.features_job[0] = congestion;
      c.add(std::move(s));
    }
  }
  return c;
}

core::ExperimentSpec tiny_spec() {
  core::ExperimentSpec spec = core::experiment_spec(core::ExperimentId::ADAA);
  spec.num_jobs = 21;
  return spec;
}

TEST(DegradedExperiment, SamplerDropoutForcesOracleFallbackWithZeroLostJobs) {
  std::ostringstream sink;
  obs::EventTrace trace(sink);
  obs::MetricsRegistry metrics;

  core::ExperimentConfig config;
  config.trials_per_policy = 1;
  config.jobs = 1;
  config.trace = &trace;
  config.metrics = &metrics;
  // The sampler daemon is down for the whole session: counters go stale
  // and the oracle must stop trusting them.
  config.fault_plan = faults::FaultPlan::from_json(
      R"({"events": [{"kind": "sampler_dropout", "at_s": 0, "duration_s": 100000}]})");

  core::ExperimentRunner runner(synthetic_corpus(2), config);
  const core::ExperimentSpec spec = tiny_spec();
  const core::TrainedPredictor predictor = runner.train_predictor(spec);

  const core::TrialResult rush = runner.run_trial(spec, true, 99, &predictor);
  EXPECT_EQ(rush.jobs.size(), 21u);  // the session asserts completion: zero lost
  EXPECT_GT(rush.oracle_evaluations, 0u);
  EXPECT_GT(rush.oracle_fallbacks, 0u);
  EXPECT_EQ(rush.oracle_fallbacks, rush.oracle_evaluations);  // never healthy
  EXPECT_EQ(rush.fault_requeues, 0u);

  // Baseline never consults the oracle, so it cannot fall back.
  const core::TrialResult base = runner.run_trial(spec, false, 99, nullptr);
  EXPECT_EQ(base.jobs.size(), 21u);
  EXPECT_EQ(base.oracle_fallbacks, 0u);

  trace.flush();
  const std::string out = sink.str();
  EXPECT_NE(out.find("\"ev\":\"fault_oracle_fallback\""), std::string::npos);
  EXPECT_NE(out.find("stale-counters"), std::string::npos) << out.substr(0, 2000);
  EXPECT_GT(metrics.counter("oracle.fallbacks").value(), 0u);
}

TEST(DegradedExperiment, CanaryTimeoutTriggersLastKnownGoodFallback) {
  core::ExperimentConfig config;
  config.trials_per_policy = 1;
  config.jobs = 1;
  config.oracle_fallback = core::OracleFallback::LastKnownGood;
  config.fault_plan = faults::FaultPlan::from_json(
      R"({"events": [{"kind": "canary_timeout", "at_s": 0, "duration_s": 100000}]})");

  core::ExperimentRunner runner(synthetic_corpus(2), config);
  const core::ExperimentSpec spec = tiny_spec();
  const core::TrainedPredictor predictor = runner.train_predictor(spec);
  const core::TrialResult rush = runner.run_trial(spec, true, 99, &predictor);
  EXPECT_EQ(rush.jobs.size(), 21u);
  EXPECT_GT(rush.oracle_fallbacks, 0u);
}

TEST(DegradedExperiment, NodeCrashPlanLosesNoJobs) {
  core::ExperimentConfig config;
  config.trials_per_policy = 1;
  config.jobs = 1;
  config.fault_plan = faults::FaultPlan::from_json(R"({"events": [
      {"kind": "node_crash", "at_s": 200, "node": 0, "duration_s": 600},
      {"kind": "node_crash", "at_s": 400, "node": 17, "duration_s": 600}]})");

  core::ExperimentRunner runner(synthetic_corpus(2), config);
  const core::ExperimentSpec spec = tiny_spec();
  const core::TrainedPredictor predictor = runner.train_predictor(spec);
  const core::TrialResult rush = runner.run_trial(spec, true, 99, &predictor);
  const core::TrialResult base = runner.run_trial(spec, false, 99, nullptr);
  // Crashed jobs are requeued, never dropped (the session asserts that
  // every submitted job completed).
  EXPECT_EQ(rush.jobs.size(), 21u);
  EXPECT_EQ(base.jobs.size(), 21u);
}

/// One baseline + one RUSH trial traced into a string.
std::string traced_run(const core::ExperimentConfig& base_config) {
  std::ostringstream sink;
  obs::EventTrace trace(sink);
  core::ExperimentConfig config = base_config;
  config.trials_per_policy = 1;
  config.jobs = 1;
  config.trace = &trace;
  core::ExperimentRunner runner(synthetic_corpus(5), config);
  const core::ExperimentSpec spec = tiny_spec();
  const core::TrainedPredictor predictor = runner.train_predictor(spec);
  (void)runner.run_trial(spec, false, 42, nullptr);
  (void)runner.run_trial(spec, true, 42, &predictor);
  trace.flush();
  return sink.str();
}

TEST(DegradedExperiment, EmptyPlanIsByteIdenticalToNoPlan) {
  const std::string without = traced_run(core::ExperimentConfig{});

  core::ExperimentConfig explicit_empty;
  explicit_empty.fault_plan = faults::FaultPlan::from_json(R"({"v": 1, "events": []})");
  explicit_empty.oracle_fallback = core::OracleFallback::LastKnownGood;  // must not matter
  const std::string with_empty = traced_run(explicit_empty);

  ASSERT_FALSE(without.empty());
  EXPECT_EQ(without, with_empty);
}

TEST(DegradedExperiment, PlanBeyondTheHorizonIsByteIdenticalToo) {
  // The injector is constructed and armed, but its only event sits far
  // past session end: nothing may perturb the run, including event-id
  // allocation order among same-time events.
  const std::string without = traced_run(core::ExperimentConfig{});

  core::ExperimentConfig far_future;
  far_future.fault_plan = faults::FaultPlan::from_json(
      R"({"events": [{"kind": "node_crash", "at_s": 50000000, "node": 0}]})");
  const std::string with_far = traced_run(far_future);

  ASSERT_FALSE(without.empty());
  EXPECT_EQ(without, with_far);
}

TEST(DegradedExperiment, SamePlanSameSeedIsReproducible) {
  core::ExperimentConfig config;
  config.fault_plan = faults::FaultPlan::from_json(R"({"events": [
      {"kind": "node_crash",      "at_s": 200, "node": 0, "duration_s": 600},
      {"kind": "sampler_dropout", "at_s": 300, "duration_s": 900}]})");
  const std::string first = traced_run(config);
  const std::string second = traced_run(config);
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

TEST(DegradedExperiment, CrashAfterTheLastFirstLaunchKeepsItsGoldenDigest) {
  // Every job of this trial has started by t=1125.5 s. Node 40 then dies
  // under job 10, which runs from 1122 to 1373 s without the crash; the
  // requeued job's relaunch consults the oracle, which reads the counter
  // frames sampled after the last first launch.
  std::ostringstream sink;
  obs::EventTrace trace(sink);
  core::ExperimentConfig config;
  config.trials_per_policy = 1;
  config.jobs = 1;
  config.trace = &trace;
  config.fault_plan = faults::FaultPlan::from_json(
      R"({"events": [{"kind": "node_crash", "at_s": 1250, "node": 40}]})");
  core::ExperimentRunner runner(synthetic_corpus(5), config);
  const core::ExperimentSpec spec = tiny_spec();
  const core::TrainedPredictor predictor = runner.train_predictor(spec);
  const core::TrialResult rush = runner.run_trial(spec, true, 42, &predictor);
  trace.flush();
  const std::string out = sink.str();
  EXPECT_EQ(rush.fault_requeues, 1u);

  const std::size_t requeue = out.find(R"("ev":"fault_job_requeue","job":10,)");
  ASSERT_NE(requeue, std::string::npos) << out;
  std::size_t starts = 0;
  for (std::size_t at = out.find(R"("ev":"job_start")"); at < requeue;
       at = out.find(R"("ev":"job_start")", at + 1))
    ++starts;
  EXPECT_EQ(starts, 21u);  // each job started once before the crash
  EXPECT_NE(out.find(R"("ev":"predict","job":10,)", requeue), std::string::npos) << out;

  std::ostringstream csv;
  core::save_trials_csv({rush}, csv);
  EXPECT_EQ(golden::hex(golden::fnv1a(csv.str() + out)), golden::hex(0x95dd597e188170e0ULL));
}

}  // namespace
}  // namespace rush
