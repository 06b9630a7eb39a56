#include "core/result_io.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/error.hpp"
#include "golden.hpp"

namespace rush::core {
namespace {

TrialResult make_trial(const std::string& policy, std::uint64_t seed, int jobs) {
  TrialResult trial;
  trial.policy = policy;
  trial.seed = seed;
  trial.makespan_s = 1234.5;
  trial.total_skips = 42;
  trial.oracle_evaluations = 99;
  for (int i = 0; i < jobs; ++i) {
    JobOutcome job;
    job.app = i % 2 == 0 ? "AMG" : "Laghos";
    job.node_count = 16;
    job.submit_s = 10.0 * i;
    job.wait_s = 5.5 * i;
    job.runtime_s = 100.0 + i;
    job.slowdown = 1.0 + 0.01 * i;
    job.submitted_at_start = i == 0;
    job.backfilled = i == 1;
    job.skips = i;
    trial.jobs.push_back(std::move(job));
  }
  return trial;
}

TEST(ResultIo, TrialsRoundTrip) {
  std::vector<TrialResult> trials{make_trial("fcfs-easy", 7, 3), make_trial("rush", 7, 3)};
  std::stringstream ss;
  save_trials_csv(trials, ss);
  const auto back = load_trials_csv(ss);
  ASSERT_EQ(back.size(), 2u);
  // std::map ordering: "fcfs-easy" < "rush".
  const TrialResult& fcfs = back[0];
  EXPECT_EQ(fcfs.policy, "fcfs-easy");
  EXPECT_EQ(fcfs.seed, 7u);
  EXPECT_DOUBLE_EQ(fcfs.makespan_s, 1234.5);
  EXPECT_EQ(fcfs.total_skips, 42u);
  ASSERT_EQ(fcfs.jobs.size(), 3u);
  EXPECT_EQ(fcfs.jobs[1].app, "Laghos");
  EXPECT_TRUE(fcfs.jobs[1].backfilled);
  EXPECT_NEAR(fcfs.jobs[2].slowdown, 1.02, 1e-9);
  EXPECT_TRUE(fcfs.jobs[0].submitted_at_start);
}

TEST(ResultIo, MultipleTrialsPerPolicyKeepIdentity) {
  constexpr std::uint64_t kMaxSeed = 18446744073709551615ULL;
  std::vector<TrialResult> trials{make_trial("rush", 1, 2), make_trial("rush", kMaxSeed, 4)};
  std::stringstream ss;
  save_trials_csv(trials, ss);
  const auto back = load_trials_csv(ss);
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[0].jobs.size(), 2u);
  EXPECT_EQ(back[1].jobs.size(), 4u);
  EXPECT_EQ(back[0].seed, 1u);
  EXPECT_EQ(back[1].seed, kMaxSeed);
  std::ostringstream again;
  save_trials_csv(back, again);
  EXPECT_EQ(again.str(), ss.str());
}

// The trials CSV's bytes, pinned: a seed past 2^63 and slowdowns that
// need all nine decimals.
TEST(ResultIo, TrialsCsvKeepsItsBytes) {
  TrialResult fcfs = make_trial("fcfs-easy", 15771017238407051097ULL, 3);
  fcfs.makespan_s = 86400.123456789;
  fcfs.jobs[1].slowdown = 1.0 / 3.0;
  fcfs.jobs[2].slowdown = 2.718281828459;
  TrialResult rush = make_trial("rush", 42, 2);
  rush.total_skips = 7;
  rush.jobs[0].wait_s = 0.0000004;
  rush.jobs[1].slowdown = 12.3456789012;
  std::ostringstream os;
  save_trials_csv({fcfs, rush}, os);
  EXPECT_EQ(golden::hex(golden::fnv1a(os.str())), "0xf8d7ecd3efe75429") << os.str();
}

TEST(ResultIo, LoadRejectsGarbage) {
  std::stringstream bad("not,a,header\n1,2,3\n");
  EXPECT_THROW((void)load_trials_csv(bad), ParseError);
  std::stringstream good;
  save_trials_csv({make_trial("rush", 5, 1)}, good);
  std::string text = good.str();
  const std::size_t seed = text.find(",5,", text.find('\n'));
  text.replace(seed + 1, 1, "18446744073709551616");
  std::stringstream seed_too_big(text);
  EXPECT_THROW((void)load_trials_csv(seed_too_big), ParseError);
  std::stringstream empty("");
  EXPECT_THROW((void)load_trials_csv(empty), ParseError);
}

TEST(ResultIo, ExperimentSaveLoad) {
  ExperimentResult result;
  result.spec = experiment_spec(ExperimentId::ADAA);
  result.baseline = {make_trial("fcfs-easy", 5, 2)};
  result.rush = {make_trial("rush", 5, 2)};
  const auto path = std::filesystem::temp_directory_path() / "rush_test_experiment.csv";
  save_experiment(result, path);
  const ExperimentResult back = load_experiment(result.spec, path);
  EXPECT_EQ(back.spec.code, "ADAA");
  ASSERT_EQ(back.baseline.size(), 1u);
  ASSERT_EQ(back.rush.size(), 1u);
  EXPECT_EQ(back.rush[0].jobs.size(), 2u);
  std::filesystem::remove(path);
}

TEST(ResultIo, LoadExperimentRequiresBothPolicies) {
  const auto path = std::filesystem::temp_directory_path() / "rush_test_experiment2.csv";
  {
    std::ofstream os(path);
    save_trials_csv({make_trial("rush", 1, 1)}, os);  // rush only
  }
  EXPECT_THROW((void)load_experiment(experiment_spec(ExperimentId::ADAA), path), ParseError);
  std::filesystem::remove(path);
  EXPECT_THROW((void)load_experiment(experiment_spec(ExperimentId::ADAA), path), ParseError);
}

TEST(ResultIo, DefaultCachePathUsesEnv) {
  const auto path = default_experiment_cache("XYZ");
  EXPECT_NE(path.string().find("rush_experiment_XYZ.csv"), std::string::npos);
}

}  // namespace
}  // namespace rush::core
