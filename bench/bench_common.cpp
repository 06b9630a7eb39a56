#include "bench_common.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "common/task_pool.hpp"
#include "obs/manifest.hpp"

namespace rush::bench {

namespace {
/// The shard count shapes the corpus, so sharded campaigns (and the
/// experiments trained on them) cache under their own tag; shards=1 keeps
/// the legacy cache names and bytes.
std::string shard_tag(const BenchOptions& opts) {
  return opts.shards > 1 ? "_p" + std::to_string(opts.shards) : "";
}
}  // namespace

BenchOptions parse_options(int argc, char** argv) {
  BenchOptions opts;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    auto next_int = [&](long long fallback) {
      return (i + 1 < argc) ? std::atoll(argv[++i]) : fallback;
    };
    if (std::strcmp(arg, "--seed") == 0) {
      opts.seed = static_cast<std::uint64_t>(next_int(42));
    } else if (std::strcmp(arg, "--trials") == 0) {
      opts.trials = static_cast<int>(next_int(5));
    } else if (std::strcmp(arg, "--days") == 0) {
      opts.days = static_cast<int>(next_int(16));
    } else if (std::strcmp(arg, "--jobs") == 0) {
      opts.jobs = static_cast<int>(next_int(0));
    } else if (std::strcmp(arg, "--shards") == 0) {
      opts.shards = static_cast<int>(next_int(1));
    } else if (std::strcmp(arg, "--fresh") == 0) {
      opts.fresh = true;
    } else if (std::strcmp(arg, "--trace") == 0) {
      if (i + 1 < argc) opts.trace_path = argv[++i];
    } else if (std::strcmp(arg, "--faults") == 0) {
      if (i + 1 < argc) opts.faults_path = argv[++i];
    } else if (std::strcmp(arg, "--help") == 0) {
      std::printf(
          "options: --seed N --trials N --days N --jobs N --shards N --fresh --trace PATH "
          "--faults PATH\n");
      std::exit(0);
    }
  }
  // --jobs N sizes the shared pool for the whole process (trials, corpus
  // shards, and the ML layer all draw from it); 0 keeps the default
  // ($RUSH_JOBS, else hardware concurrency).
  if (opts.jobs > 0) set_shared_jobs(opts.jobs);
  return opts;
}

BenchObs::BenchObs(const BenchOptions& opts, const std::string& tool)
    : path_(opts.trace_path) {
  if (path_.empty()) return;
  trace_ = std::make_unique<obs::EventTrace>(path_);
  obs::RunManifest manifest;
  manifest.tool = tool;
  manifest.seed = opts.seed;
  manifest.trials = opts.trials;
  manifest.days = opts.days;
  manifest.trace_path = path_;
  obs::write_manifest(path_ + ".manifest.json", manifest);
  std::printf("[bench] trace: %s (+ .manifest.json, .metrics.json)\n", path_.c_str());
}

BenchObs::~BenchObs() {
  if (!trace_) return;
  trace_->flush();
  std::ofstream out(path_ + ".metrics.json");
  if (out) out << metrics_.snapshot_json() << '\n';
}

core::Corpus main_corpus(const BenchOptions& opts) {
  core::CollectorConfig cfg;
  cfg.days = opts.days;
  cfg.seed = opts.seed;
  cfg.shards = opts.shards;
  core::LongitudinalCollector collector(cfg, core::single_pod_config());
  const auto cache = core::default_corpus_cache("main_d" + std::to_string(opts.days) + "_s" +
                                                std::to_string(opts.seed) + shard_tag(opts));
  if (opts.fresh) std::filesystem::remove(cache);
  std::printf("[bench] corpus: %s\n", cache.string().c_str());
  core::Corpus corpus = collector.collect_or_load(cache);
  std::printf("[bench] corpus samples: %zu over %zu apps\n", corpus.size(),
              corpus.app_names().size());
  return corpus;
}

core::ExperimentRunner make_runner(const BenchOptions& opts, core::Corpus corpus,
                                   BenchObs* bench_obs) {
  core::ExperimentConfig config;
  config.trials_per_policy = opts.trials;
  if (bench_obs != nullptr) {
    config.trace = bench_obs->trace();
    config.metrics = bench_obs->metrics();
  }
  if (!opts.faults_path.empty())
    config.fault_plan = faults::FaultPlan::from_json_file(opts.faults_path);
  // The experiment seed stays at its default so trial conditions are
  // stable across collection-seed sweeps; --seed varies the corpus.
  return core::ExperimentRunner(std::move(corpus), config);
}

core::ExperimentResult experiment(const BenchOptions& opts, core::ExperimentRunner& runner,
                                  core::ExperimentId id) {
  const core::ExperimentSpec spec = core::experiment_spec(id);
  const auto cache = core::default_experiment_cache(spec.code + "_t" +
                                                    std::to_string(opts.trials) + "_s" +
                                                    std::to_string(opts.seed) + "_d" +
                                                    std::to_string(opts.days) + shard_tag(opts));
  // Tracing needs live trials (a cache hit would leave the trace empty);
  // fault runs must neither read nor leave behind fault-perturbed results.
  const bool bypass_cache =
      opts.fresh || !opts.trace_path.empty() || !opts.faults_path.empty();
  if (bypass_cache) std::filesystem::remove(cache);
  std::printf("[bench] experiment %s: %s\n", spec.code.c_str(), cache.string().c_str());
  // run_or_load_experiment would write its (fault-perturbed) result back
  // to the cache file; fault runs go straight to the runner instead.
  if (!opts.faults_path.empty()) return runner.run(spec);
  return core::run_or_load_experiment(runner, spec, cache);
}

std::vector<core::ExperimentResult> experiments(const BenchOptions& opts,
                                                core::ExperimentRunner& runner,
                                                const std::vector<core::ExperimentId>& ids) {
  std::vector<core::ExperimentResult> results(ids.size());
  if (!opts.trace_path.empty()) {
    // A live trace must receive experiments in a fixed order; each
    // experiment still fans its own trials across the pool.
    for (std::size_t i = 0; i < ids.size(); ++i) results[i] = experiment(opts, runner, ids[i]);
    return results;
  }
  parallel_for_indexed(opts.jobs, ids.size(),
                       [&](std::size_t i) { results[i] = experiment(opts, runner, ids[i]); });
  return results;
}

void print_banner(const std::string& artifact, const std::string& description,
                  const BenchOptions& opts) {
  std::printf("================================================================\n");
  std::printf("RUSH reproduction — %s\n", artifact.c_str());
  std::printf("%s\n", description.c_str());
  std::printf("seed=%llu trials/policy=%d collection-days=%d jobs=%d shards=%d\n",
              static_cast<unsigned long long>(opts.seed), opts.trials, opts.days,
              opts.jobs > 0 ? opts.jobs : TaskPool::default_jobs(), opts.shards);
  std::printf("================================================================\n");
}

}  // namespace rush::bench
