#include "core/report.hpp"

#include "common/error.hpp"

namespace rush::core {

namespace {

bool match(const JobOutcome& job, int node_count_filter) {
  return node_count_filter == 0 || job.node_count == node_count_filter;
}

}  // namespace

std::map<std::string, double> mean_variation_runs(const std::vector<TrialResult>& trials,
                                                  const Labeler& labeler,
                                                  int node_count_filter) {
  RUSH_EXPECTS(!trials.empty());
  std::map<std::string, double> totals;
  for (const TrialResult& trial : trials) {
    for (const JobOutcome& job : trial.jobs) {
      if (!match(job, node_count_filter)) continue;
      totals.try_emplace(job.app, 0.0);
      if (labeler.knows_app(job.app) && labeler.is_variation(job.app, job.runtime_s))
        totals[job.app] += 1.0;
    }
  }
  for (auto& [app, total] : totals) total /= static_cast<double>(trials.size());
  return totals;
}

double mean_total_variation_runs(const std::vector<TrialResult>& trials, const Labeler& labeler,
                                 int node_count_filter) {
  double total = 0.0;
  for (const auto& [app, count] : mean_variation_runs(trials, labeler, node_count_filter))
    total += count;
  return total;
}

std::map<std::string, Summary> runtime_summaries(const std::vector<TrialResult>& trials,
                                                 int node_count_filter) {
  std::map<std::string, std::vector<double>> pooled;
  for (const TrialResult& trial : trials)
    for (const JobOutcome& job : trial.jobs)
      if (match(job, node_count_filter)) pooled[job.app].push_back(job.runtime_s);
  std::map<std::string, Summary> out;
  for (const auto& [app, runtimes] : pooled) out[app] = summarize(runtimes);
  return out;
}

double mean_makespan(const std::vector<TrialResult>& trials) {
  RUSH_EXPECTS(!trials.empty());
  double total = 0.0;
  for (const TrialResult& trial : trials) total += trial.makespan_s;
  return total / static_cast<double>(trials.size());
}

std::map<std::string, double> mean_wait_times(const std::vector<TrialResult>& trials,
                                              bool exclude_initial) {
  std::map<std::string, RunningStats> acc;
  for (const TrialResult& trial : trials) {
    for (const JobOutcome& job : trial.jobs) {
      if (exclude_initial && job.submitted_at_start) continue;
      acc[job.app].add(job.wait_s);
    }
  }
  std::map<std::string, double> out;
  for (const auto& [app, stats] : acc) out[app] = stats.mean();
  return out;
}

std::map<std::string, double> max_runtime_improvement(const std::vector<TrialResult>& baseline,
                                                      const std::vector<TrialResult>& rush,
                                                      int node_count_filter) {
  const auto base = runtime_summaries(baseline, node_count_filter);
  const auto opt = runtime_summaries(rush, node_count_filter);
  std::map<std::string, double> out;
  for (const auto& [app, base_summary] : base) {
    const auto it = opt.find(app);
    if (it == opt.end() || base_summary.max <= 0.0) continue;
    out[app] = 100.0 * (base_summary.max - it->second.max) / base_summary.max;
  }
  return out;
}

}  // namespace rush::core
