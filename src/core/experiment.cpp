#include "core/experiment.hpp"

#include <memory>

#include "common/error.hpp"
#include "common/task_pool.hpp"
#include "faults/injector.hpp"
#include "obs/trace.hpp"

namespace rush::core {

namespace {

std::vector<std::string> all_app_names() { return apps::proxy_app_names(); }

/// Trial seeds depend on the *workload* (apps, job count, node counts),
/// not the experiment code, so experiments that run the same workload
/// with different models (ADPA vs PDPA) share identical trial conditions
/// — ADPA is the paper's control for PDPA.
std::uint64_t mix_seed(std::uint64_t base, const ExperimentSpec& spec, int trial) {
  std::uint64_t h = base ^ 0x51ed2701a3c5e91bULL;
  for (const std::string& app : spec.run_apps)
    for (char c : app) h = (h * 131) + static_cast<unsigned char>(c);
  h = (h * 131) + static_cast<std::uint64_t>(spec.num_jobs);
  for (int n : spec.node_counts) h = (h * 131) + static_cast<std::uint64_t>(n);
  h ^= static_cast<std::uint64_t>(trial) * 0x9e3779b97f4a7c15ULL;
  return h;
}

}  // namespace

ExperimentSpec experiment_spec(ExperimentId id) {
  ExperimentSpec spec;
  spec.id = id;
  switch (id) {
    case ExperimentId::ADAA:
      spec.code = "ADAA";
      spec.name = "All Data All Apps";
      spec.description = "ML model trained on data from all running applications";
      spec.run_apps = all_app_names();
      spec.num_jobs = 190;
      break;
    case ExperimentId::ADPA:
      spec.code = "ADPA";
      spec.name = "All Data Partial Apps";
      spec.description = "Subset of 3 applications running";
      spec.run_apps = {"Laghos", "LBANN", "PENNANT"};
      spec.num_jobs = 150;
      break;
    case ExperimentId::PDPA:
      spec.code = "PDPA";
      spec.name = "Partial Data Partial Apps";
      spec.description = "ML model trained on AMG, Kripke, sw4lite, SWFFT";
      spec.run_apps = {"Laghos", "LBANN", "PENNANT"};
      spec.train_apps = {"AMG", "Kripke", "sw4lite", "SWFFT"};
      spec.num_jobs = 150;
      break;
    case ExperimentId::WS:
      spec.code = "WS";
      spec.name = "Weak Scaling";
      spec.description = "Jobs run on 8, 16, and 32 nodes - weak scaling";
      spec.run_apps = all_app_names();
      spec.num_jobs = 190;
      spec.node_counts = {8, 16, 32};
      spec.scaling = apps::ScalingMode::Weak;
      break;
    case ExperimentId::SS:
      spec.code = "SS";
      spec.name = "Strong Scaling";
      spec.description = "Jobs run on 8, 16, and 32 nodes - strong scaling";
      spec.run_apps = all_app_names();
      spec.num_jobs = 190;
      spec.node_counts = {8, 16, 32};
      spec.scaling = apps::ScalingMode::Strong;
      break;
  }
  return spec;
}

std::vector<ExperimentSpec> all_experiments() {
  return {experiment_spec(ExperimentId::ADAA), experiment_spec(ExperimentId::ADPA),
          experiment_spec(ExperimentId::PDPA), experiment_spec(ExperimentId::WS),
          experiment_spec(ExperimentId::SS)};
}

ExperimentRunner::ExperimentRunner(Corpus training_corpus, ExperimentConfig config)
    : corpus_(std::move(training_corpus)), config_(config), labeler_(corpus_) {
  RUSH_EXPECTS(config_.trials_per_policy > 0);
}

TrainedPredictor ExperimentRunner::train_predictor(const ExperimentSpec& spec) const {
  const Corpus train_corpus =
      spec.train_apps.empty() ? corpus_ : corpus_.filter_apps(spec.train_apps);
  RUSH_EXPECTS(!train_corpus.empty());
  // Labels come from the training corpus's own per-app statistics (for
  // PDPA that means the four held-out apps only — the predictor never
  // sees the running apps' data).
  const Labeler train_labeler(train_corpus, labeler_.thresholds());
  // The default trainer fits AdaBoost, the paper's selected model.
  return PredictorTrainer().train(train_corpus, train_labeler);
}

TrialResult ExperimentRunner::run_trial(const ExperimentSpec& spec, bool use_rush,
                                        std::uint64_t trial_seed,
                                        const TrainedPredictor* predictor) const {
  return run_trial_with_sinks(spec, use_rush, trial_seed, predictor, config_.trace,
                              config_.metrics);
}

TrialResult ExperimentRunner::run_trial_with_sinks(const ExperimentSpec& spec, bool use_rush,
                                                   std::uint64_t trial_seed,
                                                   const TrainedPredictor* predictor,
                                                   obs::EventTrace* trace,
                                                   obs::MetricsRegistry* metrics) const {
  RUSH_EXPECTS(!use_rush || (predictor != nullptr && predictor->ready()));
  RUSH_EXPECTS(!spec.run_apps.empty());
  RUSH_EXPECTS(spec.num_jobs > 0);

  Environment env(single_pod_config(trial_seed));
  NoisyPod stage(env);
  env.attach_obs(trace, metrics);

  // Fault injection: constructed only for a non-empty plan so the
  // zero-fault path runs exactly the code it ran before faults existed
  // (the byte-identity differential test pins this). Declared before the
  // session so it outlives the scheduler that subscribes to it.
  std::unique_ptr<faults::FaultInjector> injector;
  if (!config_.fault_plan.empty()) {
    injector = std::make_unique<faults::FaultInjector>(env.engine(), config_.fault_plan);
    injector->set_obs(trace, metrics);
    injector->attach_network(&env.network());
    injector->attach_sampler(&env.sampler());
    injector->arm();
  }

  sched::SchedulerConfig sc;
  sc.enable_backfill = true;
  sc.rush_enabled = use_rush;
  sc.delay_on_little_variation = config_.delay_on_little_variation;
  sc.skip_placement = config_.skip_placement;
  sc.trace = trace;
  sc.metrics = metrics;
  sc.faults = injector.get();

  std::unique_ptr<RushOracle> oracle;
  if (use_rush) {
    OracleDegradedConfig degraded;
    degraded.faults = injector.get();
    degraded.fallback = config_.oracle_fallback;
    oracle = std::make_unique<RushOracle>(env, *predictor, degraded);
    oracle->set_trace(trace);
    oracle->set_metrics(metrics);
  }

  SessionConfig session_config;
  session_config.apps = spec.run_apps;
  session_config.num_jobs = spec.num_jobs;
  session_config.node_counts = spec.node_counts;
  session_config.scaling = spec.scaling;
  session_config.skip_threshold = config_.skip_threshold;
  session_config.main_policy = config_.main_policy;
  session_config.backfill_policy = config_.backfill_policy;

  env.background().start();
  // Only the oracle reads counter frames; the baseline arm skips them.
  env.sampler().set_synthesize(oracle != nullptr);
  env.sampler().start();
  stage.noise().start();

  WorkloadSession session(env, stage.allocator(), session_config, sc, oracle.get(),
                          env.rng_for(0xE59E51));

  const char* policy_name = use_rush ? "rush" : "fcfs-easy";
  if (trace != nullptr)
    trace->emit_trial_start(env.engine().now(), policy_name, trial_seed);

  TrialResult result = session.run();
  if (trace != nullptr)
    trace->emit_trial_end(env.engine().now(), policy_name, trial_seed,
                          session.scheduler().makespan(),
                          session.scheduler().total_skips());
  result.policy = policy_name;
  result.seed = trial_seed;
  result.oracle_evaluations = oracle ? oracle->evaluations() : 0;
  result.oracle_fallbacks = oracle ? oracle->fallbacks() : 0;
  return result;
}

ExperimentResult ExperimentRunner::run(const ExperimentSpec& spec) {
  ExperimentResult result;
  result.spec = spec;
  const TrainedPredictor predictor = train_predictor(spec);

  // All 2 x trials_per_policy trials are independent — each owns its
  // Environment, its seed is mixed up front, and the predictor/corpus
  // are only read — so they fan out across the task pool and land in
  // index-addressed slots. Task i is trial t = i/2, baseline first
  // (i even), matching the serial path's ordering exactly.
  const std::size_t tasks = 2 * static_cast<std::size_t>(config_.trials_per_policy);
  result.baseline.resize(static_cast<std::size_t>(config_.trials_per_policy));
  result.rush.resize(static_cast<std::size_t>(config_.trials_per_policy));

  // Concurrent trials must not interleave records in the shared trace:
  // each gets a buffered child, absorbed below in task order so the
  // trace bytes match a serial run.
  const bool tracing = config_.trace != nullptr;
  std::vector<std::unique_ptr<obs::EventTrace>> trial_traces;
  if (tracing) {
    trial_traces.reserve(tasks);
    for (std::size_t i = 0; i < tasks; ++i)
      trial_traces.push_back(std::make_unique<obs::EventTrace>(obs::EventTrace::Buffered{}));
  }

  parallel_for_indexed(config_.jobs, tasks, [&](std::size_t i) {
    const int t = static_cast<int>(i / 2);
    const bool use_rush = (i % 2) != 0;
    const std::uint64_t seed = mix_seed(config_.seed, spec, t);
    obs::EventTrace* trace = tracing ? trial_traces[i].get() : nullptr;
    TrialResult trial = run_trial_with_sinks(spec, use_rush, seed,
                                             use_rush ? &predictor : nullptr, trace,
                                             config_.metrics);
    auto& slot = use_rush ? result.rush : result.baseline;
    slot[static_cast<std::size_t>(t)] = std::move(trial);
  });

  if (tracing)
    for (auto& trial_trace : trial_traces) config_.trace->absorb(*trial_trace);
  return result;
}

}  // namespace rush::core
