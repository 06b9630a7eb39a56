// rush — command-line front end for the RUSH pipeline.
//
//   rush collect  --out corpus.csv [--days N] [--seed N] [--jobs N]
//   rush evaluate --corpus corpus.csv
//   rush train    --corpus corpus.csv --out model.rush [--model NAME] [--rfe]
//   rush inspect  --model model.rush
//   rush simulate --corpus corpus.csv --experiment CODE [--trials N] [--seed N]
//
// `collect` runs the in-situ campaign; `evaluate` prints the Fig. 3 model
// comparison; `train` exports the production predictor; `simulate` runs a
// Table II experiment under FCFS+EASY and RUSH and prints the comparison.
// Each command reads only its own flags: an unknown flag, a missing value
// or a malformed number prints one usage line on stderr and exits 2.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <string_view>

#include "common/error.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "core/collector.hpp"
#include "core/experiment.hpp"
#include "core/pipeline.hpp"
#include "core/report.hpp"
#include "core/swf.hpp"
#include "faults/plan.hpp"

using namespace rush;

namespace {

struct Args;

/// How a flag's value is read: a switch takes none, a count is an integer
/// >= 1, a seed an unsigned 64-bit integer.
enum class Kind { Switch, Text, Count, Seed };

struct Command {
  const char* name;
  const char* synopsis;     // a '\n' marks a line break in the usage text
  const char* description;  // likewise
  std::map<std::string, Kind> flags;  // the only flags it reads, without "--"
  int (*run)(const Args&);
};

/// Replaces every '\n' in `text` with `sep`.
std::string lines_joined(std::string_view text, std::string_view sep) {
  std::string out(text);
  for (auto at = out.find('\n'); at != std::string::npos; at = out.find('\n', at + sep.size()))
    out.replace(at, 1, sep);
  return out;
}

struct Args {
  const Command* command = nullptr;
  std::map<std::string, std::string> options;  // parse() checked every value

  /// Ends a run whose flags do not parse, before any work: one line on
  /// stderr naming the problem and the command's flags, exit 2.
  [[noreturn]] void reject(const std::string& problem) const {
    std::fprintf(stderr, "rush %s: %s (usage: rush %s %s)\n", command->name, problem.c_str(),
                 command->name, lines_joined(command->synopsis, " ").c_str());
    std::exit(2);
  }
  [[nodiscard]] std::string get(const std::string& key, const std::string& fallback = "") const {
    const auto it = options.find(key);
    return it == options.end() ? fallback : it->second;
  }
  [[nodiscard]] int count(const std::string& key, int fallback) const {
    return has(key) ? static_cast<int>(str::to_int(get(key))) : fallback;
  }
  [[nodiscard]] std::uint64_t seed(const std::string& key, std::uint64_t fallback) const {
    return has(key) ? str::to_uint(get(key)) : fallback;
  }
  [[nodiscard]] bool has(const std::string& key) const { return options.contains(key); }
};

/// Reads argv[2..] strictly against `command`'s flags; exits 2 on an
/// unknown flag, a missing value or a malformed number.
Args parse(const Command& command, int argc, char** argv) {
  Args args{&command, {}};
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto flag = arg.rfind("--", 0) == 0 ? command.flags.find(arg.substr(2))
                                              : command.flags.end();
    if (flag == command.flags.end()) args.reject("unknown option '" + arg + "'");
    std::string value = "1";
    if (flag->second != Kind::Switch) {
      if (i + 1 >= argc) args.reject(arg + " needs a value");
      value = argv[++i];
    }
    try {
      if (flag->second == Kind::Seed) (void)str::to_uint(value);
      if (flag->second == Kind::Count) {
        const long long n = str::to_int(value);
        if (n < 1 || n > std::numeric_limits<int>::max()) throw ParseError("out of range");
      }
    } catch (const ParseError&) {
      args.reject(arg + " needs " +
                  (flag->second == Kind::Seed ? "an unsigned 64-bit integer"
                                              : "an integer >= 1") +
                  ", got '" + value + "'");
    }
    args.options[flag->first] = value;
  }
  return args;
}

core::Corpus load_corpus(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw rush::ParseError("cannot open corpus: " + path);
  return core::Corpus::from_csv(in);
}

int cmd_collect(const Args& args) {
  const std::string out = args.get("out");
  if (out.empty()) args.reject("--out is required");
  core::CollectorConfig cfg;
  cfg.days = args.count("days", cfg.days);
  cfg.seed = args.seed("seed", 42);
  cfg.jobs_per_session = args.count("jobs", cfg.jobs_per_session);
  std::printf("collecting %d days x %d jobs/session (seed %llu)...\n", cfg.days,
              cfg.jobs_per_session, static_cast<unsigned long long>(cfg.seed));
  core::LongitudinalCollector collector(cfg, core::single_pod_config());
  const core::Corpus corpus = collector.collect();
  std::ofstream os(out);
  corpus.to_csv(os);
  std::printf("wrote %zu samples to %s\n", corpus.size(), out.c_str());
  for (const auto& stats : corpus.app_stats())
    std::printf("  %-8s %4zu runs  mean %.1fs  sd %.1fs\n", stats.app.c_str(), stats.runs,
                stats.mean_s, stats.stddev_s);
  return 0;
}

int cmd_evaluate(const Args& args) {
  const std::string path = args.get("corpus");
  if (path.empty()) args.reject("--corpus is required");
  const core::Corpus corpus = load_corpus(path);
  const core::Labeler labeler(corpus);
  const auto scores = core::compare_models(corpus, labeler);
  Table table({"model", "F1 (all nodes)", "F1 (job nodes)", "acc (all)", "acc (job)"});
  for (const auto& s : scores)
    table.add_row({s.model, Table::num(s.f1_all_nodes, 3), Table::num(s.f1_job_nodes, 3),
                   Table::num(s.accuracy_all_nodes, 3), Table::num(s.accuracy_job_nodes, 3)});
  std::printf("%s\nbest: %s\n", table.render().c_str(), core::best_model(scores).c_str());
  return 0;
}

int cmd_train(const Args& args) {
  const std::string path = args.get("corpus");
  const std::string out = args.get("out");
  if (path.empty() || out.empty()) args.reject("--corpus and --out are required");
  const core::Corpus corpus = load_corpus(path);
  const core::Labeler labeler(corpus);
  core::TrainerConfig tc;
  tc.model_name = args.get("model", "adaboost");
  tc.run_rfe = args.has("rfe");
  const core::TrainedPredictor predictor = core::PredictorTrainer(tc).train(corpus, labeler);
  std::ofstream os(out);
  predictor.save(os);
  std::printf("trained %s on %zu samples", tc.model_name.c_str(), corpus.size());
  if (tc.run_rfe) std::printf(" (RFE kept %zu features)", predictor.selected_features().size());
  std::printf("; exported to %s\n", out.c_str());
  return 0;
}

int cmd_inspect(const Args& args) {
  const std::string path = args.get("model");
  if (path.empty()) args.reject("--model is required");
  std::ifstream in(path);
  if (!in) throw rush::ParseError("cannot open model: " + path);
  const core::TrainedPredictor predictor = core::TrainedPredictor::load(in);
  std::printf("model type:        %s\n", predictor.model().type_name().c_str());
  std::printf("classes:           %d\n", predictor.model().num_classes());
  std::printf("input features:    %zu of %zu%s\n",
              predictor.selected_features().empty() ? telemetry::FeatureAssembler::kNumFeatures
                                                    : predictor.selected_features().size(),
              telemetry::FeatureAssembler::kNumFeatures,
              predictor.selected_features().empty() ? " (no RFE)" : " (RFE)");
  std::printf("aggregation scope: %s\n",
              predictor.scope() == telemetry::AggregationScope::AllNodes ? "all nodes"
                                                                         : "job nodes");
  std::printf("label thresholds:  little > %.2f sigma, variation > %.2f sigma\n",
              predictor.thresholds().little_sigma, predictor.thresholds().variation_sigma);
  std::printf("confidence gate:   %.2f\n", predictor.variation_confidence());
  return 0;
}

int cmd_simulate(const Args& args) {
  const std::string path = args.get("corpus");
  const std::string code = args.get("experiment", "ADAA");
  if (path.empty()) args.reject("--corpus is required");
  std::optional<core::ExperimentSpec> spec;
  for (const auto& candidate : core::all_experiments())
    if (candidate.code == code) spec = candidate;
  if (!spec) args.reject("unknown experiment '" + code + "'");
  core::ExperimentConfig config;
  config.trials_per_policy = args.count("trials", 3);
  config.seed = args.seed("seed", 7);
  const std::string faults_path = args.get("faults");
  if (!faults_path.empty())
    config.fault_plan = faults::FaultPlan::from_json_file(faults_path);
  const std::string fallback = args.get("fallback", "fcfs");
  if (fallback == "lkg") {
    config.oracle_fallback = core::OracleFallback::LastKnownGood;
  } else if (fallback != "fcfs") {
    args.reject("--fallback needs fcfs or lkg, got '" + fallback + "'");
  }
  core::ExperimentRunner runner(load_corpus(path), config);
  std::printf("running %s (%d jobs, %d trials/policy)...\n", spec->code.c_str(), spec->num_jobs,
              config.trials_per_policy);
  const core::ExperimentResult result = runner.run(*spec);

  Table table({"metric", "fcfs-easy", "rush"});
  table.add_row({"variation runs / trial",
                 Table::num(core::mean_total_variation_runs(result.baseline, runner.labeler()), 1),
                 Table::num(core::mean_total_variation_runs(result.rush, runner.labeler()), 1)});
  table.add_row({"makespan (s)", Table::num(core::mean_makespan(result.baseline), 0),
                 Table::num(core::mean_makespan(result.rush), 0)});
  double base_skips = 0.0, rush_skips = 0.0;
  for (const auto& t : result.rush) rush_skips += static_cast<double>(t.total_skips);
  rush_skips /= static_cast<double>(result.rush.size());
  table.add_row({"Algorithm-2 delays / trial", Table::num(base_skips, 0),
                 Table::num(rush_skips, 0)});
  if (!config.fault_plan.empty()) {
    auto mean_of = [](const std::vector<core::TrialResult>& trials,
                      auto field) {
      double sum = 0.0;
      for (const auto& t : trials) sum += static_cast<double>(field(t));
      return sum / static_cast<double>(trials.size());
    };
    table.add_row(
        {"fault requeues / trial",
         Table::num(mean_of(result.baseline, [](const auto& t) { return t.fault_requeues; }), 1),
         Table::num(mean_of(result.rush, [](const auto& t) { return t.fault_requeues; }), 1)});
    table.add_row(
        {"oracle fallbacks / trial", Table::num(0.0, 1),
         Table::num(mean_of(result.rush, [](const auto& t) { return t.oracle_fallbacks; }), 1)});
  }
  std::printf("\n%s\n", table.render().c_str());

  Table apps({"app", "fcfs max (s)", "rush max (s)", "improvement"});
  const auto base = core::runtime_summaries(result.baseline);
  const auto rush = core::runtime_summaries(result.rush);
  for (const auto& [app, improvement] :
       core::max_runtime_improvement(result.baseline, result.rush)) {
    apps.add_row({app, Table::num(base.at(app).max, 1), Table::num(rush.at(app).max, 1),
                  Table::num(improvement, 1) + "%"});
  }
  std::printf("%s\n", apps.render().c_str());

  // Optional: export every trial as a Standard Workload Format trace.
  const std::string swf_prefix = args.get("swf-out");
  if (!swf_prefix.empty()) {
    auto dump = [&](const std::vector<core::TrialResult>& trials, const char* tag) {
      for (std::size_t t = 0; t < trials.size(); ++t) {
        const std::string file =
            swf_prefix + "_" + tag + "_" + std::to_string(t) + ".swf";
        std::ofstream os(file);
        core::SwfOptions swf;
        swf.comments = {"Experiment: " + spec->code};
        core::write_swf(trials[t], os, swf);
        std::printf("wrote %s\n", file.c_str());
      }
    };
    dump(result.baseline, "fcfs");
    dump(result.rush, "rush");
  }
  return 0;
}

const Command kCommands[] = {
    {"collect", "--out corpus.csv [--days N] [--seed N] [--jobs N]",
     "run the in-situ data-collection campaign",
     {{"out", Kind::Text}, {"days", Kind::Count}, {"seed", Kind::Seed}, {"jobs", Kind::Count}},
     cmd_collect},
    {"evaluate", "--corpus corpus.csv", "compare the four model families (leave-one-app-out CV)",
     {{"corpus", Kind::Text}}, cmd_evaluate},
    {"train", "--corpus corpus.csv --out model.rush [--model NAME] [--rfe]",
     "train and export the production 3-class predictor",
     {{"corpus", Kind::Text}, {"out", Kind::Text}, {"model", Kind::Text}, {"rfe", Kind::Switch}},
     cmd_train},
    {"inspect", "--model model.rush", "print an exported predictor's metadata",
     {{"model", Kind::Text}}, cmd_inspect},
    {"simulate",
     "--corpus corpus.csv --experiment ADAA|ADPA|PDPA|WS|SS\n[--trials N] [--seed N] "
     "[--swf-out PREFIX]\n[--faults plan.json] [--fallback fcfs|lkg]",
     "run a Table II experiment (optionally exporting SWF traces);\n--faults injects the fault "
     "plan into every trial and\n--fallback picks the oracle's degraded-mode policy\n(see "
     "docs/fault-injection.md)",
     {{"corpus", Kind::Text}, {"experiment", Kind::Text}, {"trials", Kind::Count},
      {"seed", Kind::Seed}, {"swf-out", Kind::Text}, {"faults", Kind::Text},
      {"fallback", Kind::Text}},
     cmd_simulate},
};

int usage() {
  std::printf(
      "rush — Resource Utilization aware Scheduler for HPC (IPDPS'22 reproduction)\n\n"
      "commands:\n");
  const char* indent = "\n           ";
  for (const Command& c : kCommands)
    std::printf("  %-8s %s%s%s\n", c.name, lines_joined(c.synopsis, indent).c_str(), indent,
                lines_joined(c.description, indent).c_str());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string_view name = argc > 1 ? argv[1] : "";
  for (const Command& command : kCommands) {
    if (name != command.name) continue;
    const Args args = parse(command, argc, argv);
    try {
      return command.run(args);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
  }
  return usage();
}
