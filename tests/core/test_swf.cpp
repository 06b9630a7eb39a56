#include "core/swf.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"

namespace rush::core {
namespace {

TrialResult sample_trial() {
  TrialResult trial;
  trial.policy = "rush";
  JobOutcome a;
  a.app = "AMG";
  a.node_count = 16;
  a.submit_s = 120.0;
  a.wait_s = 30.0;
  a.runtime_s = 250.5;
  a.skips = 2;
  JobOutcome b;
  b.app = "Laghos";
  b.node_count = 8;
  b.submit_s = 0.0;
  b.wait_s = 0.0;
  b.runtime_s = 199.25;
  b.skips = 0;
  trial.jobs = {a, b};  // deliberately out of submit order
  return trial;
}

TEST(Swf, WritesHeaderCommentsAndSortedJobs) {
  std::stringstream ss;
  SwfOptions options;
  options.comments = {"Experiment: ADAA"};
  write_swf(sample_trial(), ss, options);
  const std::string text = ss.str();
  EXPECT_NE(text.find("; SWF trace exported by RUSH (policy: rush)"), std::string::npos);
  EXPECT_NE(text.find("; Experiment: ADAA"), std::string::npos);
  // Job submitted at t=0 (Laghos) must come first.
  const auto first_job = text.find("\n1 0 ");
  const auto second_job = text.find("\n2 120 ");
  EXPECT_NE(first_job, std::string::npos);
  EXPECT_NE(second_job, std::string::npos);
  EXPECT_LT(first_job, second_job);
}

/// The numeric fields of every job line (comment and blank lines skipped).
std::vector<std::vector<double>> job_fields(const std::string& text) {
  std::vector<std::vector<double>> jobs;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line.front() == ';') continue;
    std::istringstream fields(line);
    std::vector<double>& job = jobs.emplace_back();
    double v = 0.0;
    while (fields >> v) job.push_back(v);
    EXPECT_TRUE(fields.eof()) << "non-numeric field in: " << line;
  }
  return jobs;
}

std::string swf_text(const SwfOptions& options = {}) {
  std::ostringstream os;
  write_swf(sample_trial(), os, options);
  return std::move(os).str();
}

TEST(Swf, EveryJobLineHas18Fields) {
  const auto jobs = job_fields(swf_text());
  ASSERT_EQ(jobs.size(), 2u);
  for (const auto& job : jobs) EXPECT_EQ(job.size(), 18u);
}

TEST(Swf, RoundTripPreservesTheMeaningfulFields) {
  // 1-based SWF fields: 1 job number, 2 submit, 3 wait, 4 run time,
  // 5 allocated procs, 11 status, 15 partition (1 + skip count).
  const auto jobs = job_fields(swf_text());
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_EQ(jobs[0][0], 1.0);
  EXPECT_DOUBLE_EQ(jobs[0][1], 0.0);
  EXPECT_NEAR(jobs[0][3], 199.25, 0.01);
  EXPECT_EQ(jobs[0][4], 8 * 32);
  EXPECT_EQ(jobs[0][14] - 1, 0);
  EXPECT_EQ(jobs[0][10], 1.0);
  EXPECT_DOUBLE_EQ(jobs[1][1], 120.0);
  EXPECT_DOUBLE_EQ(jobs[1][2], 30.0);
  EXPECT_EQ(jobs[1][14] - 1, 2);
}

TEST(Swf, CustomCoresPerNode) {
  SwfOptions options;
  options.cores_per_node = 4;
  const auto jobs = job_fields(swf_text(options));
  ASSERT_FALSE(jobs.empty());
  EXPECT_EQ(jobs[0][4], 8 * 4);
}

TEST(Swf, RejectsBadOptions) {
  std::stringstream ss;
  SwfOptions bad;
  bad.cores_per_node = 0;
  EXPECT_THROW(write_swf(sample_trial(), ss, bad), PreconditionError);
}

}  // namespace
}  // namespace rush::core
