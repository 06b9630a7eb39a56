// Longitudinal data collection (paper §III, §V-A).
//
// Reproduces the paper's control-job campaign in-situ: every day over
// several months, one or more scheduled workload sessions run on the
// busy, noise-loaded pod (exactly the machinery the experiments use), and
// every job launch contributes one training sample:
//   1. the counter sampler covers the 5-minute window before launch,
//   2. the MPI canary benchmarks run on the allocated nodes,
//   3. the 282-feature vectors are assembled under both scopes,
//   4. the job's eventual run time is recorded.
// Because samples are taken at real scheduling decision points, the
// training feature distribution matches what the RUSH oracle will see at
// deployment. A mid-campaign congestion storm reproduces the Fig. 1
// "mid-December" spike.
#pragma once

#include "core/corpus.hpp"
#include "core/environment.hpp"
#include "core/session.hpp"

namespace rush::core {

struct CollectorConfig {
  /// Apps to run; empty means the full seven-app catalog.
  std::vector<std::string> apps;
  int days = 16;
  int sessions_per_day = 1;
  /// Matches the experiments' queue depth so training sees the same
  /// saturation regime the scheduler will decide in.
  int jobs_per_session = 190;
  double submit_window_s = 1200.0;
  /// Mid-campaign congestion storm (the Fig. 1 "mid-December" spike);
  /// disabled when storm_days <= 0.
  double storm_at_fraction = 0.62;
  double storm_days = 3.0;
  double storm_net_intensity = 0.25;
  double storm_io_intensity = 0.3;
  std::uint64_t seed = 42;
  /// Independent campaign shards run concurrently on the task pool: the
  /// day range splits into `shards` contiguous slices, each profiled on
  /// its own Environment (own seed stream, storm window clipped to the
  /// slice), and the per-shard corpora concatenate in shard order. The
  /// shard count — not the worker count — defines the campaign, so the
  /// corpus is bit-identical for any `jobs`. shards == 1 is the legacy
  /// single-environment campaign (cache-compatible with earlier builds).
  int shards = 1;
  /// Worker policy for sharded collection (see parallel_for_indexed):
  /// 1 = serial, 0 = shared pool, N > 1 = dedicated pool.
  int jobs = 0;
};

class LongitudinalCollector {
 public:
  /// Builds its own single-pod Environment from `env_config` (the
  /// environment seed is overridden by config.seed for reproducibility).
  LongitudinalCollector(CollectorConfig config, EnvironmentConfig env_config);

  /// Run the whole campaign and return the corpus.
  [[nodiscard]] Corpus collect();

 private:
  /// One contiguous slice of the campaign, days [day_begin, day_end), on
  /// a fresh Environment seeded with `env_seed`.
  [[nodiscard]] Corpus collect_days(int day_begin, int day_end, std::uint64_t env_seed) const;

  CollectorConfig config_;
  EnvironmentConfig env_config_;
};

}  // namespace rush::core
