// CSV stream I/O for trial results, one row per job.
//
// Several figures are views over the same experiments (ADAA feeds Figs. 5,
// 6, 10, and 11); the bench harness (bench/bench_common) caches each
// experiment's trials in this format and decides when a file is reused.
#pragma once

#include <iosfwd>

#include "core/experiment.hpp"

namespace rush::core {

void save_trials_csv(const std::vector<TrialResult>& trials, std::ostream& os);
/// Trials in (policy, trial index) order. Throws ParseError on malformed
/// input.
std::vector<TrialResult> load_trials_csv(std::istream& is);

}  // namespace rush::core
