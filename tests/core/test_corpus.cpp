#include "core/corpus.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "common/error.hpp"
#include "golden.hpp"

namespace rush::core {
namespace {

CollectedSample make_sample(const std::string& app, int app_index, double runtime,
                            double fill = 1.0) {
  CollectedSample s;
  s.app = app;
  s.app_index = app_index;
  s.workload = telemetry::WorkloadClass::Network;
  s.node_count = 16;
  s.start_s = 100.0;
  s.runtime_s = runtime;
  s.features_all.assign(telemetry::FeatureAssembler::kNumFeatures, fill);
  s.features_job.assign(telemetry::FeatureAssembler::kNumFeatures, fill * 2.0);
  return s;
}

TEST(Corpus, AddAndAccess) {
  Corpus c;
  EXPECT_TRUE(c.empty());
  c.add(make_sample("AMG", 0, 250.0));
  c.add(make_sample("Laghos", 1, 350.0));
  EXPECT_EQ(c.size(), 2u);
  EXPECT_EQ(c.app_names(), (std::vector<std::string>{"AMG", "Laghos"}));
}

TEST(Corpus, StatsPerApp) {
  Corpus c;
  c.add(make_sample("AMG", 0, 100.0));
  c.add(make_sample("AMG", 0, 200.0));
  c.add(make_sample("AMG", 0, 300.0));
  c.add(make_sample("Laghos", 1, 400.0));
  const AppStats stats = c.stats_for("AMG");
  EXPECT_EQ(stats.runs, 3u);
  EXPECT_DOUBLE_EQ(stats.mean_s, 200.0);
  EXPECT_DOUBLE_EQ(stats.min_s, 100.0);
  EXPECT_DOUBLE_EQ(stats.max_s, 300.0);
  EXPECT_NEAR(stats.stddev_s, 100.0, 1e-9);  // sample stddev of {100,200,300}
  EXPECT_THROW((void)c.stats_for("Unknown"), PreconditionError);
}

TEST(Corpus, AppStatsFollowsFirstSeenOrder) {
  Corpus c;
  c.add(make_sample("Laghos", 1, 350.0));
  c.add(make_sample("AMG", 0, 250.0));
  c.add(make_sample("Laghos", 1, 360.0));
  const auto stats = c.app_stats();
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_EQ(stats[0].app, "Laghos");
  EXPECT_EQ(stats[1].app, "AMG");
}

TEST(Corpus, FilterApps) {
  Corpus c;
  c.add(make_sample("AMG", 0, 100.0));
  c.add(make_sample("Laghos", 1, 200.0));
  c.add(make_sample("AMG", 0, 150.0));
  const Corpus filtered = c.filter_apps({"AMG"});
  EXPECT_EQ(filtered.size(), 2u);
  EXPECT_EQ(filtered.app_names(), std::vector<std::string>{"AMG"});
  EXPECT_TRUE(c.filter_apps({"Nothing"}).empty());
}

TEST(Corpus, CsvRoundTrip) {
  Corpus c;
  c.add(make_sample("AMG", 0, 123.456, 0.5));
  c.add(make_sample("Laghos", 1, 654.321, 2.5));
  std::stringstream ss;
  c.to_csv(ss);
  const Corpus back = Corpus::from_csv(ss);
  ASSERT_EQ(back.size(), 2u);
  const CollectedSample& s = back.samples()[1];
  EXPECT_EQ(s.app, "Laghos");
  EXPECT_EQ(s.app_index, 1);
  EXPECT_EQ(s.workload, telemetry::WorkloadClass::Network);
  EXPECT_EQ(s.node_count, 16);
  EXPECT_NEAR(s.runtime_s, 654.321, 1e-6);
  EXPECT_NEAR(s.features_all[0], 2.5, 1e-9);
  EXPECT_NEAR(s.features_job[0], 5.0, 1e-9);
}

// The corpus CSV's bytes, pinned: a quoted app name, signed zero, tiny,
// huge and inexact features, and a start time past 2^20 seconds.
TEST(Corpus, CsvKeepsItsBytes) {
  Corpus c;
  CollectedSample first = make_sample("Lag,\"hos", 3, 291.25, 0.1);
  first.workload = telemetry::WorkloadClass::Io;
  first.start_s = 1382400.25;
  first.features_all[0] = -0.0;
  first.features_all[1] = 1e-7;
  first.features_all[2] = 1e21;
  first.features_job[3] = 1.0 / 3.0;
  c.add(first);
  CollectedSample second = make_sample("AMG", 0, 0.1, -2.5e-300);
  second.workload = telemetry::WorkloadClass::Compute;
  second.node_count = 128;
  second.start_s = 0.0;
  second.features_job[0] = 123456789.123;
  c.add(second);
  std::ostringstream os;
  c.to_csv(os);
  const std::string text = os.str();
  EXPECT_EQ(golden::hex(golden::fnv1a(text)), "0xd39a764e73e73077")
      << text.substr(text.find('\n') + 1, 160);
}

TEST(Corpus, FromCsvRejectsWrongShape) {
  std::stringstream bad("a,b,c\n1,2,3\n");
  EXPECT_THROW((void)Corpus::from_csv(bad), ParseError);
  std::stringstream empty("");
  EXPECT_THROW((void)Corpus::from_csv(empty), ParseError);
}

TEST(Corpus, FromCsvRejectsBadRuntimeAndWorkload) {
  // One good row, then the same row with one cell replaced.
  const auto with_cell = [](std::size_t col, const std::string& value) {
    Corpus c;
    c.add(make_sample("AMG", 0, 100.0));
    std::stringstream ss;
    c.to_csv(ss);
    std::string text = ss.str();
    const std::size_t row = text.find('\n') + 1;
    std::size_t start = row;
    for (std::size_t i = 0; i < col; ++i) start = text.find(',', start) + 1;
    text.replace(start, text.find(',', start) - start, value);
    return text;
  };
  {
    std::stringstream ok(with_cell(5, "250"));
    EXPECT_EQ(Corpus::from_csv(ok).size(), 1u);
  }
  for (const auto& [col, value] : std::vector<std::pair<std::size_t, std::string>>{
           {5, "0"}, {5, "-3"}, {5, "nan"}, {5, "inf"}, {2, "7"}, {2, "-1"}, {4, "nan"},
           {4, "-inf"}, {6 + 17, "nan"}, {6 + 300, "inf"}, {6 + 300, "1e400"},
           {1, "2147483648"}}) {
    std::stringstream bad(with_cell(col, value));
    EXPECT_THROW((void)Corpus::from_csv(bad), ParseError) << "column " << col << " = " << value;
  }
}

TEST(Corpus, AddValidatesSample) {
  Corpus c;
  CollectedSample bad = make_sample("AMG", 0, 100.0);
  bad.features_all.resize(3);
  EXPECT_THROW(c.add(bad), PreconditionError);
  CollectedSample zero_runtime = make_sample("AMG", 0, 100.0);
  zero_runtime.runtime_s = 0.0;
  EXPECT_THROW(c.add(zero_runtime), PreconditionError);
}

}  // namespace
}  // namespace rush::core
