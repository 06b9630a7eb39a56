// The bench harness's cache rule (bench/bench_common.hpp) at --days 1
// --trials 1: what a run reuses, what it recomputes, what it writes, and
// what it never touches. Every test caches in its own directory, named by
// RUSH_CACHE_DIR as the benches see it. The experiment tests start from a
// synthetic corpus file, so only a run that must recompute the corpus pays
// for a collection campaign.
#include "bench_common.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "apps/profiles.hpp"
#include "common/rng.hpp"
#include "core/result_io.hpp"

namespace rush::bench {
namespace {

namespace fs = std::filesystem;

// PDPA (150 jobs, a four-app model) is the cheapest Table II experiment.
constexpr core::ExperimentId kId = core::ExperimentId::PDPA;
constexpr std::size_t kJobs = 150;
constexpr const char* kCorpusFile = "rush_corpus_main_d1_s42.csv";
constexpr const char* kExperimentFile = "rush_experiment_PDPA_t1_s42_d1.csv";

std::string read(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

void write(const fs::path& path, const std::string& text) {
  std::ofstream(path, std::ios::binary) << text;
}

/// The header and the first `rows` rows: a file cut at a row boundary.
std::string first_rows(const std::string& text, std::size_t rows) {
  std::size_t end = text.find('\n');
  for (std::size_t r = 0; r < rows; ++r) end = text.find('\n', end + 1);
  return text.substr(0, end + 1);
}

std::vector<std::string> listing(const fs::path& dir) {
  std::vector<std::string> names;
  for (const auto& entry : fs::directory_iterator(dir)) names.push_back(entry.path().filename());
  std::sort(names.begin(), names.end());
  return names;
}

std::string trials_csv(const std::vector<core::TrialResult>& trials) {
  std::ostringstream os;
  core::save_trials_csv(trials, os);
  return os.str();
}

std::string experiment_csv(const core::ExperimentResult& result) {
  std::vector<core::TrialResult> all = result.baseline;
  all.insert(all.end(), result.rush.begin(), result.rush.end());
  return trials_csv(all);
}

/// A complete experiment file that no run computed: one trial per policy
/// with the spec's job count, every value made up.
std::string made_up_experiment() {
  std::vector<core::TrialResult> trials(2);
  trials[0].policy = "fcfs-easy";
  trials[1].policy = "rush";
  for (core::TrialResult& trial : trials) {
    trial.makespan_s = 1000.0;
    trial.jobs.resize(kJobs);
    for (core::JobOutcome& job : trial.jobs) {
      job.app = "Laghos";
      job.node_count = 16;
      job.runtime_s = 100.0;
      job.slowdown = 1.0;
    }
  }
  return trials_csv(trials);
}

/// A complete corpus (190 samples over the seven apps) with random run
/// times. The features are constant, so the model never predicts variation
/// and RUSH delays nothing: the trials stay as short as they can be.
core::Corpus synthetic_corpus() {
  const std::vector<std::string> apps = apps::proxy_app_names();
  Rng rng(5);
  core::Corpus corpus;
  for (int i = 0; i < 190; ++i) {
    core::CollectedSample sample;
    sample.app_index = i % static_cast<int>(apps.size());
    sample.app = apps[static_cast<std::size_t>(sample.app_index)];
    sample.node_count = 16;
    sample.start_s = 60.0 * i;
    sample.runtime_s = rng.uniform(100.0, 140.0);
    sample.features_all.assign(telemetry::FeatureAssembler::kNumFeatures, 0.5);
    sample.features_job.assign(telemetry::FeatureAssembler::kNumFeatures, 0.5);
    corpus.add(std::move(sample));
  }
  return corpus;
}

class BenchHarness : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* test = ::testing::UnitTest::GetInstance()->current_test_info();
    root_ = fs::temp_directory_path() /
            ("rush_bench_harness_" + std::to_string(::getpid()) + "_" + test->name());
    fs::remove_all(root_);
    fs::create_directories(root_);
    use_cache(root_ / "cache");
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(root_, ec);
  }

  /// Points RUSH_CACHE_DIR at `dir` for the runs that follow.
  void use_cache(const fs::path& dir) {
    cache_ = dir;
    ::setenv("RUSH_CACHE_DIR", dir.c_str(), 1);
  }

  /// Caches the synthetic corpus and, when given, an experiment file.
  void seed_cache(const std::string& experiment = {}) {
    fs::create_directories(cache_);
    std::ostringstream os;
    synthetic_corpus().to_csv(os);
    synthetic_csv_ = os.str();
    write(cache_ / kCorpusFile, synthetic_csv_);
    if (!experiment.empty()) write(cache_ / kExperimentFile, experiment);
  }

  /// parse_options over --days 1 --trials 1 plus `flags`.
  static BenchOptions options(std::vector<std::string> flags = {}) {
    std::vector<std::string> args{"test_bench_harness", "--days", "1", "--trials", "1"};
    args.insert(args.end(), flags.begin(), flags.end());
    std::vector<char*> argv;
    for (std::string& arg : args) argv.push_back(arg.data());
    return parse_options(static_cast<int>(argv.size()), argv.data());
  }

  /// The experiment as a bench runs it.
  static core::ExperimentResult run(const BenchOptions& opts) {
    core::ExperimentRunner runner = make_runner(opts, main_corpus(opts));
    return experiment(opts, runner, kId);
  }

  fs::path root_;
  fs::path cache_;
  std::string synthetic_csv_;
};

TEST_F(BenchHarness, FlagsReadEveryValueExactly) {
  const BenchOptions opts =
      options({"--seed", "18446744073709551615", "--shards", "2", "--jobs", "0", "--fresh"});
  EXPECT_EQ(opts.seed, std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(opts.days, 1);
  EXPECT_EQ(opts.trials, 1);
  EXPECT_EQ(opts.shards, 2);
  EXPECT_EQ(opts.jobs, 0);
  EXPECT_TRUE(opts.fresh);
}

TEST_F(BenchHarness, MalformedFlagsExitWithOneUsageLine) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  // None of these may start a run: read leniently, each would run with a
  // default, wrapped or truncated value, or abort mid-run.
  const std::vector<std::vector<std::string>> cases = {
      {"--days", "abc"},    {"--trials", "x"},          {"--trials", "2x"},
      {"--days", "0"},      {"--trials", "0"},          {"--shards", "0"},
      {"--jobs", "-1"},     {"--days", "3000000000"},   {"--seed", "-1"},
      {"--seed", "18446744073709551616"},               {"--day", "1"},
      {"--jobs"},           {"--trace"},                {"--faults"}};
  for (const std::vector<std::string>& flags : cases) {
    EXPECT_EXIT((void)options(flags), ::testing::ExitedWithCode(2),
                "^test_bench_harness: [^\n]*\\(usage: --seed N [^\n]*\\)\n$")
        << flags.front();
  }
}

TEST_F(BenchHarness, CorpusIsWrittenReusedAndRecomputedWhenShort) {
  use_cache(root_ / "cache" / "nested");  // the directory does not exist yet
  const core::Corpus cold = main_corpus(options());
  ASSERT_EQ(cold.size(), 190u);  // 1 day x 1 session x 190 jobs
  const std::string cold_csv = read(cache_ / kCorpusFile);
  std::ostringstream cold_os;
  cold.to_csv(cold_os);
  EXPECT_EQ(cold_csv, cold_os.str());

  // An edited value comes back: the warm run loads the file.
  core::Corpus edited;
  for (core::CollectedSample sample : cold.samples()) {
    if (edited.empty()) sample.runtime_s = 4242.5;
    edited.add(std::move(sample));
  }
  std::ostringstream edited_os;
  edited.to_csv(edited_os);
  write(cache_ / kCorpusFile, edited_os.str());
  EXPECT_EQ(main_corpus(options()).samples().front().runtime_s, 4242.5);
  EXPECT_EQ(read(cache_ / kCorpusFile), edited_os.str());

  // Cut at a row boundary, 100 of 190 samples: recomputed and rewritten.
  write(cache_ / kCorpusFile, first_rows(cold_csv, 100));
  EXPECT_EQ(main_corpus(options()).size(), 190u);
  EXPECT_EQ(read(cache_ / kCorpusFile), cold_csv);
  EXPECT_EQ(listing(cache_), std::vector<std::string>{kCorpusFile});
}

TEST_F(BenchHarness, ExperimentIsWrittenReusedAndRecomputedWhenShort) {
  seed_cache();
  const core::ExperimentResult cold = run(options());
  const std::string cold_csv = read(cache_ / kExperimentFile);
  EXPECT_EQ(cold_csv, experiment_csv(cold));
  EXPECT_EQ(read(cache_ / kCorpusFile), synthetic_csv_);
  EXPECT_EQ(listing(cache_), (std::vector<std::string>{kCorpusFile, kExperimentFile}));

  // An edited value comes back: the warm run loads the file.
  std::istringstream is(cold_csv);
  std::vector<core::TrialResult> trials = core::load_trials_csv(is);
  ASSERT_EQ(trials.size(), 2u);
  trials[1].makespan_s = 12345.5;
  write(cache_ / kExperimentFile, trials_csv(trials));
  const core::ExperimentResult warm = run(options());
  EXPECT_EQ(warm.spec.code, "PDPA");
  ASSERT_EQ(warm.baseline.size(), 1u);
  ASSERT_EQ(warm.rush.size(), 1u);
  EXPECT_EQ(warm.rush[0].policy, "rush");
  EXPECT_EQ(warm.rush[0].makespan_s, 12345.5);
  EXPECT_EQ(warm.rush[0].jobs.size(), kJobs);
  EXPECT_EQ(read(cache_ / kExperimentFile), trials_csv(trials));

  // Cut at row boundaries: the baseline trial alone (no RUSH trial), then
  // the RUSH trial with 140 of its 150 jobs. Both are recomputed.
  const std::string whole = made_up_experiment();
  for (const std::string& cut : {first_rows(whole, kJobs), first_rows(whole, kJobs + 140)}) {
    write(cache_ / kExperimentFile, cut);
    const core::ExperimentResult again = run(options());
    EXPECT_EQ(again.rush.at(0).jobs.size(), kJobs);
    EXPECT_EQ(read(cache_ / kExperimentFile), cold_csv);
  }
}

TEST_F(BenchHarness, FreshOverwritesFaultRunsLeaveTheCacheAlone) {
  seed_cache(made_up_experiment());
  const core::ExperimentResult fresh = run(options({"--fresh"}));
  const std::string corpus_csv = read(cache_ / kCorpusFile);
  const std::string healthy_csv = read(cache_ / kExperimentFile);
  EXPECT_NE(corpus_csv, synthetic_csv_);  // the campaign ran
  EXPECT_EQ(healthy_csv, experiment_csv(fresh));
  const auto corpus_mtime = fs::last_write_time(cache_ / kCorpusFile);
  const auto experiment_mtime = fs::last_write_time(cache_ / kExperimentFile);

  const fs::path plan = root_ / "plan.json";
  write(plan, R"({"v": 1, "events": [
    {"kind": "node_crash", "at_s": 300, "node": 37, "duration_s": 600},
    {"kind": "sampler_dropout", "at_s": 0, "duration_s": 3600}]})");
  const core::ExperimentResult faulted = run(options({"--faults", plan.string()}));
  EXPECT_EQ(faulted.rush.at(0).jobs.size(), kJobs);
  EXPECT_EQ(read(cache_ / kCorpusFile), corpus_csv);
  EXPECT_EQ(read(cache_ / kExperimentFile), healthy_csv);
  EXPECT_EQ(fs::last_write_time(cache_ / kCorpusFile), corpus_mtime);
  EXPECT_EQ(fs::last_write_time(cache_ / kExperimentFile), experiment_mtime);
  EXPECT_EQ(listing(cache_), (std::vector<std::string>{kCorpusFile, kExperimentFile}));
  // The plan reached the trials.
  EXPECT_NE(trials_csv(faulted.rush), trials_csv(fresh.rush));
}

TEST_F(BenchHarness, TraceOverwritesAndGarbageIsRecomputed) {
  seed_cache(made_up_experiment());
  const fs::path trace = root_ / "run.jsonl";
  {
    const BenchOptions opts = options({"--trace", trace.string()});
    const core::ExperimentResult traced = run(opts);
    EXPECT_EQ(read(cache_ / kExperimentFile), experiment_csv(traced));
  }
  EXPECT_EQ(read(cache_ / kCorpusFile), synthetic_csv_);
  EXPECT_NE(read(trace).find("\"ev\":\"trial_start\""), std::string::npos);
  EXPECT_NE(read(trace.string() + ".manifest.json").find("\"tool\":\"test_bench_harness\""),
            std::string::npos);
  EXPECT_NE(read(trace.string() + ".metrics.json").find('{'), std::string::npos);

  // A garbage file is recomputed and rewritten. A garbage corpus takes the
  // same path as the short one in CorpusIsWrittenReusedAndRecomputedWhenShort:
  // Corpus::from_csv throws ParseError on it (CsvMutation).
  write(cache_ / kExperimentFile, "garbage");
  const core::ExperimentResult recomputed = run(options());
  EXPECT_EQ(read(cache_ / kExperimentFile), experiment_csv(recomputed));
}

TEST_F(BenchHarness, UnwritableCacheWarnsOnceAndKeepsTheResult) {
  write(root_ / "file", "a regular file");
  use_cache(root_ / "file" / "cache");
  ::testing::internal::CaptureStderr();
  const BenchOptions opts = options();
  core::ExperimentRunner runner = make_runner(opts, synthetic_corpus());
  const core::ExperimentResult result = experiment(opts, runner, kId);
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(result.rush.at(0).jobs.size(), kJobs);
  EXPECT_EQ(std::count(err.begin(), err.end(), '\n'), 1) << err;
  EXPECT_NE(err.find((cache_ / kExperimentFile).string()), std::string::npos) << err;
}

}  // namespace
}  // namespace rush::bench
