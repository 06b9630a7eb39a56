// Scheduling experiments (paper §VI-A, Table II).
//
// Each experiment mimics a typical HPC workload inside a single-pod
// 512-node reservation: a noise job occupies 1/16 of the nodes and sends
// variable all-to-all traffic; 20% of the job queue is submitted at t=0
// and the rest uniformly over 20 minutes; trials are run five times per
// policy (FCFS+EASY control vs. RUSH) with paired seeds.
#pragma once

#include <string>
#include <vector>

#include "core/collector.hpp"
#include "core/pipeline.hpp"
#include "core/rush_oracle.hpp"
#include "core/session.hpp"
#include "faults/plan.hpp"
#include "sched/scheduler.hpp"

namespace rush::obs {
class EventTrace;
class MetricsRegistry;
}  // namespace rush::obs

namespace rush::core {

enum class ExperimentId : std::uint8_t { ADAA, ADPA, PDPA, WS, SS };

struct ExperimentSpec {
  ExperimentId id = ExperimentId::ADAA;
  std::string code;         // "ADAA"
  std::string name;         // "All Data All Apps"
  std::vector<std::string> run_apps;    // workload applications
  std::vector<std::string> train_apps;  // ML training apps; empty = all
  int num_jobs = 190;
  std::vector<int> node_counts = {16};
  apps::ScalingMode scaling = apps::ScalingMode::Strong;
};

/// The five Table II experiments with the paper's parameters.
ExperimentSpec experiment_spec(ExperimentId id);
std::vector<ExperimentSpec> all_experiments();

struct ExperimentResult {
  ExperimentSpec spec;
  std::vector<TrialResult> baseline;  // FCFS+EASY
  std::vector<TrialResult> rush;
};

/// The workload stage (NoisyPod) and the session defaults (SessionConfig)
/// hold the paper's §VI-A constants; these are the knobs around them.
struct ExperimentConfig {
  int trials_per_policy = 5;
  std::uint64_t seed = 7;
  /// Scheduler knobs shared by both policies.
  sched::SkipPlacement skip_placement = sched::SkipPlacement::Front;
  bool delay_on_little_variation = false;
  int skip_threshold = 10;
  std::string main_policy = "fcfs";
  std::string backfill_policy = "fcfs";
  /// Trial-level parallelism for run(): 1 = strictly serial; 0 = the
  /// shared task pool (RUSH_JOBS / hardware default); N > 1 = a
  /// dedicated N-wide pool. Every trial owns its Environment and seeds
  /// are mixed up front, so results are bit-identical for any value
  /// (the determinism differential test pins this).
  int jobs = 0;
  /// Optional observability sinks threaded through every layer of each
  /// trial (environment, scheduler, oracle). Null disables; both must
  /// outlive the runner. Under jobs != 1 each trial emits into its own
  /// buffered trace, absorbed into `trace` in deterministic trial order;
  /// `metrics` is internally synchronized and shared directly.
  obs::EventTrace* trace = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
  /// Fault plan injected into every trial (faults/plan.hpp; event times
  /// are relative to trial start, which is t=0 on the trial's private
  /// engine). Empty (the default) constructs no injector at all, so the
  /// zero-fault path is byte-identical to a build without faults. Trials
  /// with a non-empty plan must never be served from a results cache.
  faults::FaultPlan fault_plan;
  /// Degraded-mode oracle knobs (only consulted when fault_plan is
  /// non-empty).
  OracleFallback oracle_fallback = OracleFallback::Fcfs;
};

class ExperimentRunner {
 public:
  /// `training_corpus` supplies both the predictor training data and the
  /// per-app reference statistics used to count variation runs.
  ExperimentRunner(Corpus training_corpus, ExperimentConfig config = {});

  [[nodiscard]] ExperimentResult run(const ExperimentSpec& spec);

  /// One trial with explicit policy selection; exposed for tests and the
  /// ablation benches. `predictor` is required when `use_rush`.
  [[nodiscard]] TrialResult run_trial(const ExperimentSpec& spec, bool use_rush,
                                      std::uint64_t trial_seed,
                                      const TrainedPredictor* predictor) const;

  /// Labeler over the full training corpus (the variation-count baseline).
  [[nodiscard]] const Labeler& labeler() const noexcept { return labeler_; }
  [[nodiscard]] const Corpus& corpus() const noexcept { return corpus_; }
  [[nodiscard]] const ExperimentConfig& config() const noexcept { return config_; }

  /// Train the predictor an experiment needs (honors spec.train_apps).
  [[nodiscard]] TrainedPredictor train_predictor(const ExperimentSpec& spec) const;

 private:
  /// run_trial with explicit observability sinks (the parallel path
  /// hands every trial its own buffered trace instead of config_.trace).
  [[nodiscard]] TrialResult run_trial_with_sinks(const ExperimentSpec& spec, bool use_rush,
                                                 std::uint64_t trial_seed,
                                                 const TrainedPredictor* predictor,
                                                 obs::EventTrace* trace,
                                                 obs::MetricsRegistry* metrics) const;

  Corpus corpus_;
  ExperimentConfig config_;
  Labeler labeler_;
};

}  // namespace rush::core
