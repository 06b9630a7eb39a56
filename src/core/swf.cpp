#include "core/swf.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ostream>

#include "common/error.hpp"

namespace rush::core {

void write_swf(const TrialResult& trial, std::ostream& os, const SwfOptions& options) {
  RUSH_EXPECTS(options.cores_per_node > 0);
  os << "; SWF trace exported by RUSH (policy: " << trial.policy << ")\n";
  os << "; MaxJobs: " << trial.jobs.size() << "\n";
  os << "; Note: field 15 (partition) carries 1 + Algorithm-2 skip count\n";
  for (const std::string& comment : options.comments) os << "; " << comment << "\n";

  // SWF traces are sorted by submit time.
  std::vector<const JobOutcome*> jobs;
  jobs.reserve(trial.jobs.size());
  for (const JobOutcome& job : trial.jobs) jobs.push_back(&job);
  std::stable_sort(jobs.begin(), jobs.end(), [](const JobOutcome* a, const JobOutcome* b) {
    return a->submit_s < b->submit_s;
  });

  char line[256];
  long long number = 1;
  for (const JobOutcome* job : jobs) {
    const long long procs =
        static_cast<long long>(job->node_count) * options.cores_per_node;
    // 18 fields:        1    2  3  4  5 6 7  8   9 10 11 12 13 14 15 16 17 18
    std::snprintf(line, sizeof(line),
                  "%lld %.0f %.0f %.2f %lld -1 -1 %lld %.0f -1 1 1 -1 1 %d -1 -1 -1\n",
                  number, job->submit_s, job->wait_s, job->runtime_s, procs, procs,
                  std::ceil(job->runtime_s), 1 + job->skips);
    os << line;
    ++number;
  }
}

}  // namespace rush::core
