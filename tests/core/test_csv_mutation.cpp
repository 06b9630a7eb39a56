// Seeded mutation test for the two CSV loaders (Corpus::from_csv and
// load_trials_csv). A fixed sequence of byte flips, truncations, splices
// of the two files and hostile cell substitutions (tests/mutation.hpp) is
// applied to a valid corpus and a valid trials file. Every mutant must
// either load or throw ParseError, and whatever loads must save, load and
// save again to the same bytes. The unmutated files must save to their
// own bytes.
#include <gtest/gtest.h>

#include <array>
#include <sstream>
#include <string>
#include <string_view>

#include "core/corpus.hpp"
#include "core/result_io.hpp"
#include "mutation.hpp"

namespace rush::core {
namespace {

using mutation::mutate;
using mutation::resave;

constexpr int kMutants = 2000;
constexpr std::array<std::string_view, 7> kHostileCells{
    "nan", "inf", "1e400", "18446744073709551616", "-0", "", "\"cr\rin quotes\""};

std::string corpus_csv() {
  constexpr std::size_t kF = telemetry::FeatureAssembler::kNumFeatures;
  Corpus c;
  for (int i = 0; i < 2; ++i) {
    CollectedSample s;
    s.app = i == 0 ? "AMG" : "Lag,\"hos";
    s.app_index = i;
    s.workload = telemetry::WorkloadClass::Network;
    s.node_count = 16 << i;
    s.start_s = 3600.25 * (i + 1);
    s.runtime_s = 250.5 + i;
    for (std::size_t f = 0; f < kF; ++f) {
      s.features_all.push_back(0.37 * static_cast<double>(f) - i);
      s.features_job.push_back(1e-3 * static_cast<double>(f * f) + i);
    }
    c.add(std::move(s));
  }
  std::ostringstream os;
  c.to_csv(os);
  return os.str();
}

std::string trials_csv() {
  std::vector<TrialResult> trials(2);
  for (std::size_t t = 0; t < trials.size(); ++t) {
    TrialResult& trial = trials[t];
    trial.policy = t == 0 ? "fcfs-easy" : "rush";
    trial.seed = 15771017238407051097ULL + t;
    trial.makespan_s = 86400.5;
    trial.total_skips = 3;
    trial.oracle_evaluations = 40;
    for (int j = 0; j < 3; ++j) {
      JobOutcome job;
      job.app = j == 1 ? "Laghos" : "AMG";
      job.node_count = 16;
      job.submit_s = 10.0 * j;
      job.wait_s = 2.5 * j;
      job.runtime_s = 100.0 + j;
      job.slowdown = 1.0 + 0.001 * j;
      job.submitted_at_start = j == 0;
      job.backfilled = j == 2;
      job.skips = j;
      trial.jobs.push_back(std::move(job));
    }
  }
  std::ostringstream os;
  save_trials_csv(trials, os);
  return os.str();
}

TEST(CsvMutation, EveryMutantLoadsOrThrowsParseError) {
  const std::string corpus = corpus_csv();
  const std::string trials = trials_csv();
  const auto load_corpus = [](std::istream& is) { return Corpus::from_csv(is); };
  const auto save_corpus = [](const Corpus& c, std::ostream& os) { c.to_csv(os); };
  const auto save_trials = [](const std::vector<TrialResult>& t, std::ostream& os) {
    save_trials_csv(t, os);
  };
  ASSERT_EQ(resave(corpus, load_corpus, save_corpus), corpus);
  ASSERT_EQ(resave(trials, load_trials_csv, save_trials), trials);

  Rng rng(20221);
  int loaded = 0;
  for (int i = 0; i < kMutants; ++i) {
    const bool from_corpus = i % 2 == 0;
    const std::string mutant =
        from_corpus ? mutate(rng, corpus, trials, kHostileCells, ",\n")
                    : mutate(rng, trials, corpus, kHostileCells, ",\n");
    SCOPED_TRACE("mutant " + std::to_string(i));
    try {
      loaded += resave(mutant, load_corpus, save_corpus) ? 1 : 0;
      loaded += resave(mutant, load_trials_csv, save_trials) ? 1 : 0;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "threw " << e.what() << " instead of ParseError";
    }
  }
  // About a quarter load: damage to a header name or a digit parses, the
  // hostile cells and broken structure do not. Neither bound is close.
  EXPECT_GT(loaded, kMutants / 10);
  EXPECT_LT(loaded, kMutants / 2);
}

}  // namespace
}  // namespace rush::core
