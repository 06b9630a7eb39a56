// Shared harness for the figure/table benches: the one place that turns a
// bench's flags into a run. It owns the result caches, the trace and
// metrics sinks and the fault plan; every bench takes them from here.
//
// Every bench accepts:
//   --seed N      master seed (default 42)
//   --trials N    trials per policy (default 5, as in the paper)
//   --days N      collection campaign length (default 16)
//   --jobs N      task-pool width for trials/experiments/ML (default:
//                 $RUSH_JOBS, else hardware concurrency)
//   --shards N    collection campaign shards (default 1 = the legacy
//                 single-environment campaign; >1 changes the corpus)
//   --fresh       recompute the corpus and the experiments
//   --trace PATH  write a JSONL event trace (docs/trace-format.md) plus
//                 PATH.manifest.json / PATH.metrics.json
//   --faults PATH inject the JSON fault plan (docs/fault-injection.md)
//                 into every trial
// and nothing else: any other flag is a usage error (exit 2).
//
// The corpus and each Table II experiment are cached as CSV in
// $RUSH_CACHE_DIR (default: the working directory; created if missing),
// named by the flags that shape them, so the benches share one
// collection campaign and one run of each experiment. One rule decides
// what a run reuses and writes:
//   - the corpus is reused unless --fresh; an experiment is reused unless
//     --fresh, --trace (a trace needs live trials) or --faults;
//   - a file is served only if it loads and holds what its name promises
//     (one sample per campaign job; --trials trials per policy, each with
//     the spec's job count); anything else is recomputed and overwritten;
//   - a result computed under --faults is never written, and no cache
//     file is ever deleted;
//   - a write goes to a temporary file renamed over the target; if it
//     fails, one warning naming the path goes to stderr and the bench
//     still prints its result.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/collector.hpp"
#include "core/experiment.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace rush::bench {

/// The sinks behind --trace PATH: an EventTrace on PATH, its
/// PATH.manifest.json provenance record (written up front) and a
/// MetricsRegistry whose snapshot lands in PATH.metrics.json when the
/// run ends.
class BenchObs {
 public:
  BenchObs(const std::string& path, const obs::RunManifest& manifest);
  ~BenchObs();

  BenchObs(const BenchObs&) = delete;
  BenchObs& operator=(const BenchObs&) = delete;

  [[nodiscard]] obs::EventTrace* trace() noexcept { return &trace_; }
  [[nodiscard]] obs::MetricsRegistry* metrics() noexcept { return &metrics_; }

 private:
  std::string path_;
  obs::EventTrace trace_;
  obs::MetricsRegistry metrics_;
};

struct BenchOptions {
  std::uint64_t seed = 42;
  int trials = 5;
  int days = 16;
  bool fresh = false;
  /// Task-pool width: 0 = shared-pool default ($RUSH_JOBS, else hardware
  /// concurrency); 1 = serial; N > 1 sizes the shared pool to N.
  int jobs = 0;
  /// Collection campaign shards (>1 redefines the corpus; see
  /// CollectorConfig::shards).
  int shards = 1;
  /// Empty disables tracing.
  std::string trace_path;
  /// Fault plan JSON injected into every trial; empty disables faults.
  std::string faults_path;
  /// Open for the whole run when trace_path is set, null otherwise.
  std::unique_ptr<BenchObs> obs;
};

/// Parses the flags above. `default_trials` is what --trials defaults to.
/// An unknown flag, a missing value, or a number that does not parse or
/// is out of range (--trials, --days and --shards >= 1, --jobs >= 0,
/// --seed an unsigned 64-bit integer) prints one usage line on stderr
/// and exits 2, before any work. With --trace the sinks open here, so
/// every bench writes all three files; the manifest names the program
/// (argv[0]) as its tool.
BenchOptions parse_options(int argc, char** argv, int default_trials = 5);

/// The standard collection campaign (cached as rush_corpus_main_*.csv).
core::Corpus main_corpus(const BenchOptions& opts);

/// The experiment settings every bench starts from: --trials, the sinks
/// (announced on stdout as they attach) and the --faults plan. Benches
/// that vary the scheduler set their knobs on top of it.
core::ExperimentConfig experiment_config(const BenchOptions& opts);

/// Experiment runner over `corpus` with experiment_config(opts).
core::ExperimentRunner make_runner(const BenchOptions& opts, core::Corpus corpus);

/// Run (or load from cache) one Table II experiment.
core::ExperimentResult experiment(const BenchOptions& opts, core::ExperimentRunner& runner,
                                  core::ExperimentId id);

/// Run (or load) several Table II experiments via for_each_run; results
/// land in id order.
std::vector<core::ExperimentResult> experiments(const BenchOptions& opts,
                                                core::ExperimentRunner& runner,
                                                const std::vector<core::ExperimentId>& ids);

/// Calls run(i) for every i in [0, count) across the shared task pool
/// (--jobs wide, no second pool), or one at a time while tracing so the
/// shared trace receives the runs in index order for any --jobs; a run
/// called on this thread still fans its own trials out.
void for_each_run(const BenchOptions& opts, std::size_t count,
                  const std::function<void(std::size_t)>& run);

/// Header line naming the bench and the paper artifact it regenerates.
void print_banner(const std::string& artifact, const std::string& description,
                  const BenchOptions& opts);

}  // namespace rush::bench
