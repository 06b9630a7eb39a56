#include "bench_common.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>

#include "common/error.hpp"
#include "common/strings.hpp"
#include "common/task_pool.hpp"
#include "core/result_io.hpp"

namespace rush::bench {

namespace {
constexpr const char* kFlags =
    "--seed N --trials N --days N --jobs N --shards N --fresh --trace PATH --faults PATH";

/// Ends a run whose flags do not parse, before any work: one line on
/// stderr naming the problem and the flags, exit 2.
[[noreturn]] void reject_flags(const std::string& tool, const std::string& problem) {
  std::fprintf(stderr, "%s: %s (usage: %s)\n", tool.c_str(), problem.c_str(), kFlags);
  std::exit(2);
}

/// The shard count shapes the corpus, so sharded campaigns (and the
/// experiments trained on them) cache under their own tag; shards=1 keeps
/// the legacy cache names and bytes.
std::string shard_tag(const BenchOptions& opts) {
  return opts.shards > 1 ? "_p" + std::to_string(opts.shards) : "";
}

/// Where cache file `name` lives: $RUSH_CACHE_DIR, else the working
/// directory.
std::filesystem::path cache_path(const std::string& name) {
  const char* dir = std::getenv("RUSH_CACHE_DIR");
  return std::filesystem::path(dir != nullptr ? dir : ".") / name;
}

/// Writes `save`'s output to a temporary file beside `path` (its name
/// does not end in .csv, so no reader mistakes it for a cache) and
/// renames it over `path`, creating the directory first. A failure costs
/// only the cache file: it is reported on stderr and the run goes on.
template <class Save>
void write_cache(const std::filesystem::path& path, const Save& save) {
  std::error_code ec;
  std::filesystem::create_directories(path.parent_path(), ec);
  const std::filesystem::path tmp = path.string() + ".tmp";
  std::ofstream out(tmp);
  if (out) save(out);
  out.close();
  if (out) std::filesystem::rename(tmp, path, ec);
  if (!out || ec) std::fprintf(stderr, "[bench] warning: cannot write cache %s\n", path.c_str());
}

/// The one load-or-compute path. When `reuse`, `path` is served if `load`
/// reads it without a ParseError (a short file must throw one too);
/// otherwise the value is computed and, when `keep`, written back.
template <class Load, class Compute, class Save>
auto load_or_compute(const std::filesystem::path& path, bool reuse, bool keep, const Load& load,
                     const Compute& compute, const Save& save) {
  if (reuse) {
    std::ifstream in(path);
    try {
      if (in) return load(in);
    } catch (const ParseError&) {
      // recomputed and overwritten below
    }
  }
  auto value = compute();
  if (keep) write_cache(path, [&](std::ostream& os) { save(value, os); });
  return value;
}

core::ExperimentResult load_experiment(const core::ExperimentSpec& spec, int trials,
                                       std::istream& is) {
  core::ExperimentResult result;
  result.spec = spec;
  for (core::TrialResult& trial : core::load_trials_csv(is))
    (trial.policy == "rush" ? result.rush : result.baseline).push_back(std::move(trial));
  const auto complete = [&](const std::vector<core::TrialResult>& arm) {
    return arm.size() == static_cast<std::size_t>(trials) &&
           std::all_of(arm.begin(), arm.end(), [&](const core::TrialResult& trial) {
             return trial.jobs.size() == static_cast<std::size_t>(spec.num_jobs);
           });
  };
  if (!complete(result.baseline) || !complete(result.rush))
    throw ParseError("experiment cache incomplete");
  return result;
}

void save_experiment(const core::ExperimentResult& result, std::ostream& os) {
  std::vector<core::TrialResult> all = result.baseline;
  all.insert(all.end(), result.rush.begin(), result.rush.end());
  core::save_trials_csv(all, os);
}
}  // namespace

BenchObs::BenchObs(const std::string& path, const obs::RunManifest& manifest)
    : path_(path), trace_(path) {
  obs::write_manifest(path_ + ".manifest.json", manifest);
}

BenchObs::~BenchObs() {
  trace_.flush();
  std::ofstream out(path_ + ".metrics.json");
  if (out) out << metrics_.snapshot_json() << '\n';
}

BenchOptions parse_options(int argc, char** argv, int default_trials) {
  BenchOptions opts;
  opts.trials = default_trials;
  const std::string tool = std::filesystem::path(argv[0]).filename().string();
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&] {
      if (i + 1 >= argc) reject_flags(tool, arg + " needs a value");
      return std::string(argv[++i]);
    };
    // An int flag's value, at least `min`.
    const auto integer = [&](int min) {
      const std::string text = value();
      try {
        const long long n = str::to_int(text);
        if (n >= min && n <= std::numeric_limits<int>::max()) return static_cast<int>(n);
      } catch (const ParseError&) {
        // rejected below
      }
      reject_flags(tool, arg + " needs an integer >= " + std::to_string(min) + ", got '" +
                             text + "'");
    };
    if (arg == "--seed") {
      const std::string text = value();
      try {
        opts.seed = str::to_uint(text);
      } catch (const ParseError&) {
        reject_flags(tool, "--seed needs an unsigned 64-bit integer, got '" + text + "'");
      }
    } else if (arg == "--trials") {
      opts.trials = integer(1);
    } else if (arg == "--days") {
      opts.days = integer(1);
    } else if (arg == "--jobs") {
      opts.jobs = integer(0);
    } else if (arg == "--shards") {
      opts.shards = integer(1);
    } else if (arg == "--fresh") {
      opts.fresh = true;
    } else if (arg == "--trace") {
      opts.trace_path = value();
    } else if (arg == "--faults") {
      opts.faults_path = value();
    } else if (arg == "--help") {
      std::printf("options: %s\n", kFlags);
      std::exit(0);
    } else {
      reject_flags(tool, "unknown option '" + arg + "'");
    }
  }
  // --jobs N sizes the shared pool for the whole process (trials, corpus
  // shards, and the ML layer all draw from it); 0 keeps the default
  // ($RUSH_JOBS, else hardware concurrency).
  if (opts.jobs > 0) set_shared_jobs(opts.jobs);
  if (!opts.trace_path.empty()) {
    obs::RunManifest manifest;
    manifest.tool = tool;
    manifest.seed = opts.seed;
    manifest.trials = opts.trials;
    manifest.days = opts.days;
    manifest.trace_path = opts.trace_path;
    opts.obs = std::make_unique<BenchObs>(opts.trace_path, manifest);
  }
  return opts;
}

core::Corpus main_corpus(const BenchOptions& opts) {
  core::CollectorConfig cfg;
  cfg.days = opts.days;
  cfg.seed = opts.seed;
  cfg.shards = opts.shards;
  const std::size_t samples = static_cast<std::size_t>(cfg.days) *
                              static_cast<std::size_t>(cfg.sessions_per_day) *
                              static_cast<std::size_t>(cfg.jobs_per_session);
  const auto path = cache_path("rush_corpus_main_d" + std::to_string(opts.days) + "_s" +
                               std::to_string(opts.seed) + shard_tag(opts) + ".csv");
  std::printf("[bench] corpus: %s\n", path.c_str());
  core::Corpus corpus = load_or_compute(
      path, !opts.fresh, true,
      [&](std::istream& is) {
        core::Corpus cached = core::Corpus::from_csv(is);
        if (cached.size() != samples) throw ParseError("corpus cache incomplete");
        return cached;
      },
      [&] { return core::LongitudinalCollector(cfg, core::single_pod_config()).collect(); },
      [](const core::Corpus& c, std::ostream& os) { c.to_csv(os); });
  std::printf("[bench] corpus samples: %zu over %zu apps\n", corpus.size(),
              corpus.app_names().size());
  return corpus;
}

core::ExperimentConfig experiment_config(const BenchOptions& opts) {
  core::ExperimentConfig config;
  config.trials_per_policy = opts.trials;
  if (opts.obs) {
    config.trace = opts.obs->trace();
    config.metrics = opts.obs->metrics();
    std::printf("[bench] trace: %s (+ .manifest.json, .metrics.json)\n",
                opts.trace_path.c_str());
  }
  if (!opts.faults_path.empty())
    config.fault_plan = faults::FaultPlan::from_json_file(opts.faults_path);
  return config;
}

core::ExperimentRunner make_runner(const BenchOptions& opts, core::Corpus corpus) {
  // The experiment seed stays at its default so trial conditions are
  // stable across collection-seed sweeps; --seed varies the corpus.
  return core::ExperimentRunner(std::move(corpus), experiment_config(opts));
}

core::ExperimentResult experiment(const BenchOptions& opts, core::ExperimentRunner& runner,
                                  core::ExperimentId id) {
  return std::move(experiments(opts, runner, {id}).front());
}

std::vector<core::ExperimentResult> experiments(const BenchOptions& opts,
                                                core::ExperimentRunner& runner,
                                                const std::vector<core::ExperimentId>& ids) {
  const bool reuse = !opts.fresh && opts.trace_path.empty() && opts.faults_path.empty();
  const bool keep = opts.faults_path.empty();
  std::vector<core::ExperimentSpec> specs;
  std::vector<std::filesystem::path> paths;
  specs.reserve(ids.size());
  paths.reserve(ids.size());
  for (const core::ExperimentId id : ids) {
    const core::ExperimentSpec& spec = specs.emplace_back(core::experiment_spec(id));
    const auto& path = paths.emplace_back(
        cache_path("rush_experiment_" + spec.code + "_t" + std::to_string(opts.trials) + "_s" +
                   std::to_string(opts.seed) + "_d" + std::to_string(opts.days) +
                   shard_tag(opts) + ".csv"));
    std::printf("[bench] experiment %s: %s\n", spec.code.c_str(), path.c_str());
  }
  std::vector<core::ExperimentResult> results(ids.size());
  for_each_run(opts, ids.size(), [&](std::size_t i) {
    results[i] = load_or_compute(
        paths[i], reuse, keep,
        [&](std::istream& is) { return load_experiment(specs[i], opts.trials, is); },
        [&] { return runner.run(specs[i]); }, save_experiment);
  });
  return results;
}

void for_each_run(const BenchOptions& opts, std::size_t count,
                  const std::function<void(std::size_t)>& run) {
  // Runs fan out on the shared pool, which --jobs already sized; their
  // own trials then run inline on its workers. jobs == 1 loops on this
  // thread, so a lone run still fans its trials across the shared pool.
  parallel_for_indexed(opts.obs || count == 1 ? 1 : 0, count, run);
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
