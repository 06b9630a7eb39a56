#include "core/result_io.hpp"

#include <array>
#include <map>
#include <string_view>

#include "common/csv.hpp"
#include "common/error.hpp"

namespace rush::core {

namespace {
constexpr std::array<std::string_view, 15> kHeader{
    "policy", "trial",    "seed",    "makespan_s", "total_skips", "oracle_evals",
    "app",    "nodes",    "submit_s", "wait_s",    "runtime_s",   "slowdown",
    "initial", "backfilled", "skips"};
}  // namespace

void save_trials_csv(const std::vector<TrialResult>& trials, std::ostream& os) {
  CsvWriter writer(os);
  for (const std::string_view name : kHeader) writer.text(name);
  writer.end_row();
  for (std::size_t t = 0; t < trials.size(); ++t) {
    const TrialResult& trial = trials[t];
    for (const JobOutcome& job : trial.jobs) {
      writer.text(trial.policy);
      writer.integer(std::uint64_t{t});
      writer.integer(trial.seed);
      writer.fixed(trial.makespan_s, 6);
      writer.integer(trial.total_skips);
      writer.integer(trial.oracle_evaluations);
      writer.text(job.app);
      writer.integer(job.node_count);
      writer.fixed(job.submit_s, 6);
      writer.fixed(job.wait_s, 6);
      writer.fixed(job.runtime_s, 6);
      writer.fixed(job.slowdown, 9);
      writer.integer(int{job.submitted_at_start});
      writer.integer(int{job.backfilled});
      writer.integer(job.skips);
      writer.end_row();
    }
  }
}

std::vector<TrialResult> load_trials_csv(std::istream& is) {
  CsvReader reader(is, "trials CSV");
  bool header = reader.next() && reader.size() == kHeader.size();
  for (std::size_t c = 0; header && c < kHeader.size(); ++c) header = reader.text(c) == kHeader[c];
  if (!header) throw ParseError("trials CSV: missing or stale header");

  std::map<std::pair<std::string, int>, TrialResult> trials;  // keeps (policy, index) order
  while (reader.next()) {
    if (reader.size() != kHeader.size()) throw reader.error("wrong arity");
    const std::string policy(reader.text(0));
    TrialResult& trial = trials[{policy, reader.integer<int>(1)}];
    trial.policy = policy;
    trial.seed = reader.integer<std::uint64_t>(2);
    trial.makespan_s = reader.number(3);
    trial.total_skips = reader.integer<std::uint64_t>(4);
    trial.oracle_evaluations = reader.integer<std::uint64_t>(5);
    JobOutcome job;
    job.app = reader.text(6);
    job.node_count = reader.integer<int>(7);
    job.submit_s = reader.number(8);
    job.wait_s = reader.number(9);
    job.runtime_s = reader.number(10);
    job.slowdown = reader.number(11);
    job.submitted_at_start = reader.flag(12);
    job.backfilled = reader.flag(13);
    job.skips = reader.integer<int>(14);
    trial.jobs.push_back(std::move(job));
  }

  std::vector<TrialResult> out;
  out.reserve(trials.size());
  for (auto& [key, trial] : trials) out.push_back(std::move(trial));
  return out;
}

}  // namespace rush::core
