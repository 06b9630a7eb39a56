// End-to-end benchmark driver: one workload per process (see README.md).
//
//   bench_e2e --workload trials --seed 42 --seconds 20 --jobs 2
//             [--faults fault_plan.json] [--trace spans.jsonl]
//
// The driver reaches the library only through its public calls and times
// each call from here. Set-up runs several times; then a closed loop of
// `clients` callers runs ops back to back until the window closes (and at
// least `min_ops` finished, so the recorded digests can always be
// checked). Each op derives its inputs from (--seed, op index) and, after
// its timed section, hashes its outputs with FNV-1a.
//
// Output is one JSON line of raw measurements: set-up times and digests,
// every op's latency, simulated time, trial totals, digest and error, the
// window's wall and CPU time, and peak RSS. run.py turns them into
// metrics and compares digests against expected.json.
//
// With --trace PATH every op runs twice back to back, untraced and
// traced, in alternating order, so tracing overhead is measured on paired
// inputs under the same machine conditions. A traced execution records
// spans around each layer call (written to PATH as JSON lines at exit)
// and threads an obs::MetricsRegistry through every trial; the registry
// snapshot joins the output.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/task_pool.hpp"
#include "core/collector.hpp"
#include "core/experiment.hpp"
#include "core/labeler.hpp"
#include "core/pipeline.hpp"
#include "core/result_io.hpp"
#include "faults/plan.hpp"
#include "ml/serialize.hpp"
#include "ml/validation.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"

using namespace rush;

namespace {

using Clock = std::chrono::steady_clock;

// Input sizes, fixed per workload (README.md explains each choice).
constexpr int kSetupRepeats = 3;
constexpr int kTrainDays = 1;      // trials/faults: predictor training corpus
constexpr int kWarmupDays = 1;     // collect/pipeline: set-up campaign
constexpr int kCampaignDays = 16;  // collect: one paper-length campaign per op
constexpr int kRoundDays = 1;      // pipeline: corpus collected per round
constexpr int kRoundPairs = 5;     // pipeline: paired ADAA trials per round
constexpr std::uint64_t kSetupTag = 0x5e7u;

enum class Workload : std::uint8_t { Pipeline, Trials, Faults, Collect };

struct Options {
  std::string workload;
  Workload kind = Workload::Trials;
  std::uint64_t seed = 42;
  double seconds = 20.0;
  int jobs = 2;
  std::string faults_path;
  std::string trace_path;
};

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux reports KiB
}

/// splitmix64 over (seed, index): every op's inputs from --seed alone.
std::uint64_t derive(std::uint64_t seed, std::uint64_t index) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (index + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

class Fnv1a {
 public:
  void add(std::string_view bytes) {
    for (const unsigned char c : bytes) {
      hash_ ^= c;
      hash_ *= 0x100000001b3ULL;
    }
    hash_ ^= 0xffU;  // part separator, so ("ab","c") != ("a","bc")
    hash_ *= 0x100000001b3ULL;
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// Wall-clock spans recorded from this file around each layer call,
/// shared by every traced execution of the run.
class SpanLog {
 public:
  explicit SpanLog(Clock::time_point epoch) : epoch_(epoch) {}

  /// Returns the span id. `op` is the op index, or -1 for set-up.
  int open(const char* name, std::int64_t op, int parent) {
    const double now = seconds_between(epoch_, Clock::now());
    const std::lock_guard lock(mu_);
    spans_.push_back({name, op, parent, now, now});
    return static_cast<int>(spans_.size()) - 1;
  }

  void close(int id) {
    const double now = seconds_between(epoch_, Clock::now());
    const std::lock_guard lock(mu_);
    spans_[static_cast<std::size_t>(id)].end_s = now;
  }

  void write(const std::string& path) const {
    std::ofstream out(path);
    std::string line;
    const std::lock_guard lock(mu_);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      line.clear();
      obs::JsonWriter w(line);
      w.begin_object();
      w.field("id", static_cast<std::int64_t>(i));
      w.field("parent", s.parent);
      w.field("op", s.op);
      w.field("name", s.name);
      w.field("start_s", s.start_s);
      w.field("end_s", s.end_s);
      w.end_object();
      out << line << '\n';
    }
  }

 private:
  struct Span {
    const char* name;
    std::int64_t op;
    int parent;
    double start_s;
    double end_s;
  };

  Clock::time_point epoch_;
  mutable std::mutex mu_;
  // rush: guarded_by(mu_)
  std::vector<Span> spans_;
};

/// One span for the enclosing block; records nothing when `log` is null.
class Scope {
 public:
  Scope(SpanLog* log, const char* name, std::int64_t op, int parent = -1)
      : log_(log), id_(log ? log->open(name, op, parent) : -1) {}
  ~Scope() {
    if (log_) log_->close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  [[nodiscard]] int id() const noexcept { return id_; }

 private:
  SpanLog* log_;
  int id_;
};

struct OpResult {
  std::int64_t index = 0;
  double ms = 0.0;     // timed section only; output checks run after it
  double sim_s = 0.0;  // simulated time the op covered
  std::uint64_t digest = 0;
  std::string error;            // empty when every check passed
  std::uint64_t samples = 0;    // corpus samples collected
  std::uint64_t csv_bytes = 0;  // corpus CSV size
  // Totals over the op's trials (all zero for a collection campaign).
  std::uint64_t trials = 0;
  std::uint64_t oracle_evaluations = 0;
  std::uint64_t oracle_fallbacks = 0;
  std::uint64_t fault_requeues = 0;
};

/// Folds one trial into the op's totals; returns why it is wrong, if it is.
std::string account_trial(OpResult& op, const core::ExperimentSpec& spec,
                          const core::TrialResult& trial) {
  op.trials += 1;
  op.sim_s += trial.makespan_s;
  op.oracle_evaluations += trial.oracle_evaluations;
  op.oracle_fallbacks += trial.oracle_fallbacks;
  op.fault_requeues += trial.fault_requeues;
  if (trial.jobs.size() != static_cast<std::size_t>(spec.num_jobs))
    return spec.code + " " + trial.policy + ": " + std::to_string(trial.jobs.size()) + " of " +
           std::to_string(spec.num_jobs) + " jobs completed";
  for (const core::JobOutcome& job : trial.jobs)
    if (!(job.runtime_s > 0.0) || !std::isfinite(job.runtime_s))
      return spec.code + " " + trial.policy + ": job without a finite run time";
  return {};
}

std::string trials_csv(const std::vector<core::TrialResult>& trials) {
  std::ostringstream os;
  core::save_trials_csv(trials, os);
  return std::move(os).str();
}

std::string corpus_csv(const core::Corpus& corpus) {
  std::ostringstream os;
  corpus.to_csv(os);
  return std::move(os).str();
}

std::string predictor_text(const core::TrainedPredictor& predictor) {
  std::ostringstream os;
  predictor.save(os);
  return std::move(os).str();
}

core::CollectorConfig campaign_config(int days, std::uint64_t seed) {
  core::CollectorConfig config;
  config.days = days;
  config.seed = seed;
  config.shards = 1;
  config.jobs = 1;
  return config;
}

core::Corpus collect(int days, std::uint64_t seed) {
  core::LongitudinalCollector collector(campaign_config(days, seed), core::single_pod_config());
  return collector.collect();
}

std::size_t expected_samples(int days) {
  const core::CollectorConfig config = campaign_config(days, 0);
  return static_cast<std::size_t>(days * config.sessions_per_day * config.jobs_per_session);
}

/// State of one run: options, spans, registry, and the inputs set-up
/// built for the trial workloads.
class Bench {
 public:
  explicit Bench(Options opts)
      : opts_(std::move(opts)), spans_(Clock::now()), specs_(core::all_experiments()) {}

  [[nodiscard]] bool runs_trials() const noexcept {
    return opts_.kind == Workload::Trials || opts_.kind == Workload::Faults;
  }
  [[nodiscard]] bool traced_run() const noexcept { return !opts_.trace_path.empty(); }
  /// A pipeline round fans out on the pool itself; a campaign is the
  /// single-threaded baseline; trial pairs have one caller per worker.
  [[nodiscard]] int clients() const noexcept { return runs_trials() ? opts_.jobs : 1; }
  /// Ops that always run, so every digest in expected.json gets checked.
  [[nodiscard]] std::int64_t min_ops() const noexcept { return runs_trials() ? 16 : 2; }

  /// One set-up pass; returns the digest of what it built.
  std::uint64_t setup() {
    SpanLog* log = traced_run() ? &spans_ : nullptr;
    const Scope root(log, "setup", -1);
    Fnv1a fnv;
    if (runs_trials()) {
      core::Corpus corpus;
      {
        const Scope s(log, "core.collect", -1, root.id());
        corpus = collect(kTrainDays, derive(opts_.seed, kSetupTag));
      }
      const Scope s(log, "ml.fit", -1, root.id());
      runner_ = std::make_unique<core::ExperimentRunner>(std::move(corpus), trial_config(false));
      all_apps_ = runner_->train_predictor(core::experiment_spec(core::ExperimentId::ADAA));
      pdpa_ = runner_->train_predictor(core::experiment_spec(core::ExperimentId::PDPA));
      fnv.add(predictor_text(all_apps_));
      fnv.add(predictor_text(pdpa_));
    } else {
      // Warm-up campaign: first environment, profile tables, and heap
      // growth happen here rather than inside the first timed op.
      const Scope s(log, "core.collect", -1, root.id());
      fnv.add(corpus_csv(collect(kWarmupDays, derive(opts_.seed, kSetupTag))));
    }
    if (runner_ && traced_run())
      traced_runner_ =
          std::make_unique<core::ExperimentRunner>(runner_->corpus(), trial_config(true));
    return fnv.value();
  }

  OpResult op(std::int64_t index, bool traced) {
    OpResult r;
    r.index = index;
    try {
      switch (opts_.kind) {
        case Workload::Pipeline: pipeline_round(r, traced); break;
        case Workload::Collect: campaign(r, traced); break;
        case Workload::Trials:
        case Workload::Faults: trial_pair(r, traced); break;
      }
    } catch (const std::exception& e) {
      r.error = std::string("exception: ") + e.what();
    }
    return r;
  }

  [[nodiscard]] const SpanLog& spans() const noexcept { return spans_; }
  [[nodiscard]] const obs::MetricsRegistry& registry() const noexcept { return registry_; }
  [[nodiscard]] const Options& options() const noexcept { return opts_; }

 private:
  core::ExperimentConfig trial_config(bool traced) {
    core::ExperimentConfig config;
    config.jobs = 1;
    if (traced) config.metrics = &registry_;
    if (opts_.kind == Workload::Faults) {
      config.fault_plan = faults::FaultPlan::from_json_file(opts_.faults_path);
      config.oracle_fallback = core::OracleFallback::LastKnownGood;
    }
    return config;
  }

  /// trials/faults: one Table II experiment under FCFS+EASY and RUSH on
  /// the same seed.
  void trial_pair(OpResult& r, bool traced) {
    SpanLog* log = traced ? &spans_ : nullptr;
    const core::ExperimentRunner& runner = traced ? *traced_runner_ : *runner_;
    const core::ExperimentSpec& spec = specs_[static_cast<std::size_t>(r.index) % specs_.size()];
    const std::uint64_t seed = derive(opts_.seed, static_cast<std::uint64_t>(r.index));
    const core::TrainedPredictor* predictor =
        spec.id == core::ExperimentId::PDPA ? &pdpa_ : &all_apps_;
    std::vector<core::TrialResult> trials(2);
    const auto t0 = Clock::now();
    {
      const Scope root(log, "pair", r.index);
      {
        const Scope s(log, "core.trial.fcfs", r.index, root.id());
        trials[0] = runner.run_trial(spec, false, seed, nullptr);
      }
      const Scope s(log, "core.trial.rush", r.index, root.id());
      trials[1] = runner.run_trial(spec, true, seed, predictor);
    }
    r.ms = 1e3 * seconds_between(t0, Clock::now());
    for (const core::TrialResult& t : trials) {
      std::string why = account_trial(r, spec, t);
      if (r.error.empty()) r.error = std::move(why);
    }
    if (r.error.empty() && opts_.kind == Workload::Faults &&
        (r.fault_requeues == 0 || r.oracle_fallbacks == 0))
      r.error = spec.code + ": fault plan caused no requeue or no oracle fallback";
    Fnv1a fnv;
    fnv.add(trials_csv(trials));
    r.digest = fnv.value();
  }

  /// collect: one paper-length campaign, persisted as corpus CSV (what
  /// `rush collect --out` does, minus the disk).
  void campaign(OpResult& r, bool traced) {
    SpanLog* log = traced ? &spans_ : nullptr;
    const std::uint64_t seed = derive(opts_.seed, static_cast<std::uint64_t>(r.index));
    core::Corpus corpus;
    std::string csv;
    const auto t0 = Clock::now();
    {
      const Scope root(log, "campaign", r.index);
      {
        const Scope s(log, "core.collect", r.index, root.id());
        corpus = collect(kCampaignDays, seed);
      }
      const Scope s(log, "core.corpus_csv.write", r.index, root.id());
      csv = corpus_csv(corpus);
    }
    r.ms = 1e3 * seconds_between(t0, Clock::now());
    r.sim_s = kCampaignDays * 86400.0;
    r.samples = corpus.size();
    r.csv_bytes = csv.size();
    if (corpus.size() != expected_samples(kCampaignDays))
      r.error = "campaign: " + std::to_string(corpus.size()) + " samples, expected " +
                std::to_string(expected_samples(kCampaignDays));
    Fnv1a fnv;
    fnv.add(csv);
    r.digest = fnv.value();
  }

  /// pipeline: one paper round. Collect, round-trip the corpus through
  /// CSV, label, leave-one-app-out AdaBoost CV, fit the production
  /// predictor, and run paired ADAA trials on the pool.
  void pipeline_round(OpResult& r, bool traced) {
    SpanLog* log = traced ? &spans_ : nullptr;
    const std::uint64_t seed = derive(opts_.seed, static_cast<std::uint64_t>(r.index));
    const core::ExperimentSpec adaa = core::experiment_spec(core::ExperimentId::ADAA);
    std::string csv;
    ml::CvResult cv;
    std::unique_ptr<core::ExperimentRunner> runner;
    core::TrainedPredictor predictor;
    std::vector<core::TrialResult> trials(2 * kRoundPairs);
    const auto t0 = Clock::now();
    {
      const Scope root(log, "round", r.index);
      core::Corpus corpus;
      {
        const Scope s(log, "core.collect", r.index, root.id());
        corpus = collect(kRoundDays, seed);
      }
      {
        const Scope s(log, "core.corpus_csv.write", r.index, root.id());
        csv = corpus_csv(corpus);
      }
      {
        const Scope s(log, "core.corpus_csv.read", r.index, root.id());
        std::istringstream in(csv);
        corpus = core::Corpus::from_csv(in);
      }
      ml::Dataset data;
      std::vector<std::vector<std::size_t>> folds;
      {
        const Scope s(log, "core.label", r.index, root.id());
        const core::Labeler labeler(corpus);
        // Three-class labels: on binary labels AdaBoost stops early on
        // many small corpora, so CV time would follow the seed.
        data = labeler.three_class_dataset(corpus, telemetry::AggregationScope::AllNodes);
        folds = ml::leave_one_group_out(data.groups());
      }
      {
        const Scope s(log, "ml.cv", r.index, root.id());
        cv = ml::cross_validate(*ml::make_classifier("adaboost"), data, folds);
      }
      {
        const Scope s(log, "ml.fit", r.index, root.id());
        runner = std::make_unique<core::ExperimentRunner>(std::move(corpus), trial_config(traced));
        predictor = runner->train_predictor(adaa);
      }
      const Scope s(log, "core.trials", r.index, root.id());
      const int parent = s.id();
      shared_pool().parallel_for_indexed(trials.size(), [&](std::size_t k) {
        const bool rush = k % 2 == 1;
        const Scope t(log, rush ? "core.trial.rush" : "core.trial.fcfs", r.index, parent);
        trials[k] = runner->run_trial(adaa, rush, derive(seed, k / 2), rush ? &predictor : nullptr);
      });
    }
    r.ms = 1e3 * seconds_between(t0, Clock::now());
    r.sim_s = kRoundDays * 86400.0;
    r.samples = runner->corpus().size();
    r.csv_bytes = csv.size();
    for (const core::TrialResult& t : trials) {
      std::string why = account_trial(r, adaa, t);
      if (r.error.empty()) r.error = std::move(why);
    }
    const double f1 = cv.mean_macro_f1();
    const std::string model = predictor_text(predictor);
    std::istringstream model_in(model);
    if (corpus_csv(runner->corpus()) != csv)
      r.error = "corpus changed across its CSV round trip";
    else if (cv.folds.size() != adaa.run_apps.size() || !(f1 >= 0.0 && f1 <= 1.0))
      r.error = "cross-validation: bad fold count or F1";
    else if (predictor_text(core::TrainedPredictor::load(model_in)) != model)
      r.error = "predictor changed across save/load";
    char f1_text[32];
    std::snprintf(f1_text, sizeof(f1_text), "%.17g", f1);
    Fnv1a fnv;
    fnv.add(csv);
    fnv.add(f1_text);
    fnv.add(model);
    fnv.add(trials_csv(trials));
    r.digest = fnv.value();
  }

  Options opts_;
  SpanLog spans_;
  std::vector<core::ExperimentSpec> specs_;
  obs::MetricsRegistry registry_;
  std::unique_ptr<core::ExperimentRunner> runner_;
  std::unique_ptr<core::ExperimentRunner> traced_runner_;  // reports into registry_
  core::TrainedPredictor all_apps_;  // ADAA, ADPA, WS, SS
  core::TrainedPredictor pdpa_;
};

struct Window {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::vector<OpResult> ops;
  std::vector<OpResult> traced_ops;  // traced run only
};

/// Closed loop: `clients` callers each run the next op as soon as their
/// previous one returns, until the window has closed and min_ops are done.
/// Op indices are claimed in time order, so the ops run are a prefix.
Window run_window(Bench& bench) {
  Window w;
  std::mutex mu;
  std::atomic<std::int64_t> next{0};
  const auto t0 = Clock::now();
  const auto deadline =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(bench.options().seconds));
  const double cpu0 = cpu_seconds();
  auto client = [&](std::size_t) {
    for (;;) {
      const std::int64_t i = next.fetch_add(1);
      if (i >= bench.min_ops() && Clock::now() >= deadline) return;
      if (!bench.traced_run()) {
        OpResult r = bench.op(i, false);
        const std::lock_guard lock(mu);
        w.ops.push_back(std::move(r));
        continue;
      }
      // Alternate which execution goes first, so neither mode always
      // gets the warmer caches.
      const bool traced_first = i % 2 == 1;
      OpResult first = bench.op(i, traced_first);
      OpResult second = bench.op(i, !traced_first);
      const std::lock_guard lock(mu);
      w.ops.push_back(std::move(traced_first ? second : first));
      w.traced_ops.push_back(std::move(traced_first ? first : second));
    }
  };
  if (bench.clients() == 1) {
    client(0);
  } else {
    shared_pool().parallel_for_indexed(static_cast<std::size_t>(bench.clients()), client);
  }
  w.wall_s = seconds_between(t0, Clock::now());
  w.cpu_s = cpu_seconds() - cpu0;
  for (auto* ops : {&w.ops, &w.traced_ops})
    std::sort(ops->begin(), ops->end(),
              [](const OpResult& a, const OpResult& b) { return a.index < b.index; });
  return w;
}

void write_ops(obs::JsonWriter& j, std::string_view key, const std::vector<OpResult>& ops) {
  j.begin_array(key);
  for (const OpResult& r : ops) {
    std::string op;
    obs::JsonWriter o(op);
    o.begin_object();
    o.field("i", r.index);
    o.field("ms", r.ms);
    o.field("sim_s", r.sim_s);
    o.field("digest", hex(r.digest));
    o.field("error", r.error);
    o.field("samples", r.samples);
    o.field("csv_bytes", r.csv_bytes);
    o.field("trials", r.trials);
    o.field("oracle_evaluations", r.oracle_evaluations);
    o.field("oracle_fallbacks", r.oracle_fallbacks);
    o.field("fault_requeues", r.fault_requeues);
    o.end_object();
    j.raw_element(op);
  }
  j.end_array();
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "bench_e2e: %s\nusage: bench_e2e --workload pipeline|trials|faults|collect "
               "[--seed N] [--seconds S] [--jobs N] [--faults PLAN] [--trace PATH]\n",
               why);
  std::exit(2);
}

Options parse_options(int argc, char** argv) {
  Options opts;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (i + 1 >= argc) usage("missing value");
    const char* value = argv[++i];
    if (std::strcmp(arg, "--workload") == 0) {
      opts.workload = value;
    } else if (std::strcmp(arg, "--seed") == 0) {
      opts.seed = std::strtoull(value, nullptr, 10);
    } else if (std::strcmp(arg, "--seconds") == 0) {
      opts.seconds = std::atof(value);
    } else if (std::strcmp(arg, "--jobs") == 0) {
      opts.jobs = std::atoi(value);
    } else if (std::strcmp(arg, "--faults") == 0) {
      opts.faults_path = value;
    } else if (std::strcmp(arg, "--trace") == 0) {
      opts.trace_path = value;
    } else {
      usage("unknown option");
    }
  }
  const std::string& w = opts.workload;
  if (w == "pipeline") {
    opts.kind = Workload::Pipeline;
  } else if (w == "trials") {
    opts.kind = Workload::Trials;
  } else if (w == "faults") {
    opts.kind = Workload::Faults;
  } else if (w == "collect") {
    opts.kind = Workload::Collect;
  } else {
    usage("unknown workload");
  }
  if (opts.kind == Workload::Faults && opts.faults_path.empty())
    usage("faults needs --faults PLAN");
  if (!(opts.seconds > 0.0) || opts.jobs < 1) usage("bad --seconds or --jobs");
  return opts;
}

}  // namespace

int main(int argc, char** argv) {
  Bench bench(parse_options(argc, argv));
  const Options& opts = bench.options();
  set_shared_jobs(opts.jobs);

  std::vector<double> setup_s;
  std::string setup_digests = "[";
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    const auto t0 = Clock::now();
    const std::uint64_t digest = bench.setup();
    setup_s.push_back(seconds_between(t0, Clock::now()));
    setup_digests += (rep > 0 ? ",\"" : "\"") + hex(digest) + '"';
  }
  const Window w = run_window(bench);

  std::string out;
  obs::JsonWriter j(out);
  j.begin_object();
  j.field("workload", opts.workload);
  j.field("seed", opts.seed);
  j.field("jobs", opts.jobs);
  j.field("clients", bench.clients());
  j.field("min_ops", bench.min_ops());
  j.begin_array("setup_s");
  for (const double s : setup_s) j.element(s);
  j.end_array();
  j.raw_field("setup_digests", setup_digests + ']');
  j.field("wall_s", w.wall_s);
  j.field("cpu_s", w.cpu_s);
  j.field("peak_rss_mb", peak_rss_mb());
  write_ops(j, "ops", w.ops);
  if (bench.traced_run()) {
    write_ops(j, "traced_ops", w.traced_ops);
    j.raw_field("registry", bench.registry().snapshot_json());
    bench.spans().write(opts.trace_path);
  }
  j.end_object();
  std::printf("%s\n", out.c_str());
  return 0;
}
