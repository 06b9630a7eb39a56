// Result aggregation helpers behind the paper's figures.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "core/experiment.hpp"

namespace rush::core {

/// Mean number of runs per trial whose run time exceeds the variation
/// threshold (z > 1.5 against the training-corpus app statistics), per
/// application — the metric of Figs. 4-5. Only jobs matching
/// `node_count_filter` (0 = any) are counted.
std::map<std::string, double> mean_variation_runs(const std::vector<TrialResult>& trials,
                                                  const Labeler& labeler,
                                                  int node_count_filter = 0);

/// Total variation runs across all apps, averaged over trials (the
/// "17 -> 4" headline number).
double mean_total_variation_runs(const std::vector<TrialResult>& trials, const Labeler& labeler,
                                 int node_count_filter = 0);

/// Run-time distribution per app (Figs. 6-7) or per (app, node count)
/// (Fig. 8), pooled across trials.
std::map<std::string, Summary> runtime_summaries(const std::vector<TrialResult>& trials,
                                                 int node_count_filter = 0);

/// Mean makespan across trials (Fig. 10).
double mean_makespan(const std::vector<TrialResult>& trials);

/// Mean wait time per app (Fig. 11). When `exclude_initial`, jobs
/// submitted at t=0 are ignored (the paper plots only the later 80%).
std::map<std::string, double> mean_wait_times(const std::vector<TrialResult>& trials,
                                              bool exclude_initial = true);

/// Percent improvement of RUSH over baseline in max run time per app
/// (Fig. 9): 100 * (max_base - max_rush) / max_base.
std::map<std::string, double> max_runtime_improvement(const std::vector<TrialResult>& baseline,
                                                      const std::vector<TrialResult>& rush,
                                                      int node_count_filter = 0);

}  // namespace rush::core
