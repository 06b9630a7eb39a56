#include "core/collector.hpp"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <unordered_map>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/task_pool.hpp"

namespace rush::core {

namespace {
constexpr int kNodesPerJob = 16;  // the experiments' default job size
/// Earliest/latest session start within a day (seconds past midnight).
constexpr double kSessionStartLoS = 6.0 * 3600.0;
constexpr double kSessionStartHiS = 18.0 * 3600.0;
}  // namespace

LongitudinalCollector::LongitudinalCollector(CollectorConfig config, EnvironmentConfig env_config)
    : config_(std::move(config)), env_config_(env_config) {
  RUSH_EXPECTS(config_.days > 0);
  RUSH_EXPECTS(config_.sessions_per_day > 0);
  RUSH_EXPECTS(config_.jobs_per_session > 0);
  RUSH_EXPECTS(config_.shards >= 1);
  // Tie the environment's stochastic state to the collection seed so the
  // whole campaign is one reproducible unit.
  env_config_.seed = config_.seed ^ 0x9e3779b97f4a7c15ULL;
}

Corpus LongitudinalCollector::collect() {
  const int shards = std::min(config_.shards, config_.days);
  if (shards <= 1) return collect_days(0, config_.days, env_config_.seed);

  // Each shard is an independent in-situ campaign over its day slice;
  // results land by shard index, so the merged corpus is identical for
  // any worker count — only the shard count shapes the data.
  std::vector<Corpus> parts(static_cast<std::size_t>(shards));
  parallel_for_indexed(config_.jobs, static_cast<std::size_t>(shards), [&](std::size_t s) {
    const int lo = static_cast<int>(static_cast<std::size_t>(config_.days) * s /
                                    static_cast<std::size_t>(shards));
    const int hi = static_cast<int>(static_cast<std::size_t>(config_.days) * (s + 1) /
                                    static_cast<std::size_t>(shards));
    const std::uint64_t shard_seed = Rng(env_config_.seed).split(0x5A4D + s).next();
    parts[s] = collect_days(lo, hi, shard_seed);
  });

  Corpus merged;
  for (Corpus& part : parts) merged.append(std::move(part));
  return merged;
}

Corpus LongitudinalCollector::collect_days(int day_begin, int day_end,
                                           std::uint64_t env_seed) const {
  EnvironmentConfig shard_env_config = env_config_;
  shard_env_config.seed = env_seed;
  Environment env(shard_env_config);
  auto rng = env.rng_for(0xC011EC7);

  std::vector<std::string> app_names = config_.apps;
  if (app_names.empty()) app_names = apps::proxy_app_names();
  std::unordered_map<std::string, int> app_index;
  for (std::size_t i = 0; i < app_names.size(); ++i)
    app_index.emplace(app_names[i], static_cast<int>(i));

  const double day = 86400.0;
  const int shard_days = day_end - day_begin;
  const double campaign_s = static_cast<double>(config_.days) * day;
  if (config_.storm_days > 0.0) {
    // The storm sits on the full-campaign timeline; a shard sees only the
    // part overlapping its day slice, shifted into shard-local time. The
    // final slice is open-ended so the full-campaign call (0, days)
    // reproduces the legacy unclipped storm exactly.
    const double slice_lo = static_cast<double>(day_begin) * day;
    const double slice_hi = day_end == config_.days
                                ? std::numeric_limits<double>::infinity()
                                : static_cast<double>(day_end) * day;
    const double global_start = campaign_s * config_.storm_at_fraction;
    const double global_end = global_start + config_.storm_days * day;
    const double lo = std::max(global_start, slice_lo);
    const double hi = std::min(global_end, slice_hi);
    if (lo < hi) {
      cluster::Storm storm;
      storm.start = lo - slice_lo;
      storm.end = hi - slice_lo;
      storm.net_intensity = config_.storm_net_intensity;
      storm.io_intensity = config_.storm_io_intensity;
      env.background().add_storm(storm);
    }
  }
  env.background().start();

  // The experiments' stage: the noise job runs for the whole campaign, and
  // its allocator persists across sessions (every session drains fully).
  NoisyPod stage(env);
  stage.noise().start();

  Corpus corpus;
  for (int d = 0; d < shard_days; ++d) {
    for (int s = 0; s < config_.sessions_per_day; ++s) {
      const double start =
          static_cast<double>(d) * day +
          rng.uniform(kSessionStartLoS, kSessionStartHiS) +
          static_cast<double>(s) * 4.0 * 3600.0;

      // Lead time so the counter store holds a full window at the first
      // launch, then run the session with sampling on.
      env.engine().run_until(std::max(env.engine().now(), start - env.features().window_s()));
      env.sampler().start();
      env.engine().run_until(start);

      SessionConfig sc;
      sc.apps = app_names;
      sc.num_jobs = config_.jobs_per_session;
      sc.node_counts = {kNodesPerJob};
      sc.submit_window_s = config_.submit_window_s;

      sched::SchedulerConfig baseline;  // FCFS+EASY, no RUSH
      WorkloadSession session(env, stage.allocator(), sc, baseline, nullptr, rng.split(0x5E55));

      std::unordered_map<sched::JobId, CollectedSample> pending;
      session.on_start([this, &env, &pending, &app_index](const sched::Job& job) {
        const auto canary = env.canary().run(job.nodes);
        CollectedSample sample;
        sample.app = job.app_name();
        sample.app_index = app_index.at(sample.app);
        sample.workload = job.spec.app.workload;
        sample.node_count = static_cast<int>(job.nodes.size());
        sample.start_s = env.engine().now();
        sample.features_all =
            env.features().assemble(env.engine().now(), telemetry::AggregationScope::AllNodes,
                                    job.nodes, canary, job.spec.app.workload);
        sample.features_job =
            env.features().assemble(env.engine().now(), telemetry::AggregationScope::JobNodes,
                                    job.nodes, canary, job.spec.app.workload);
        pending.emplace(job.id, std::move(sample));
      });
      session.on_complete([&pending, &corpus](const sched::Job& job) {
        const auto it = pending.find(job.id);
        RUSH_ASSERT(it != pending.end());
        it->second.runtime_s = job.runtime_s();
        corpus.add(std::move(it->second));
        pending.erase(it);
      });

      (void)session.run();
      env.sampler().stop();
    }
  }
  return corpus;
}

Corpus LongitudinalCollector::collect_or_load(const std::filesystem::path& cache_path) {
  if (std::filesystem::exists(cache_path)) {
    std::ifstream in(cache_path);
    if (in) {
      try {
        Corpus cached = Corpus::from_csv(in);
        if (!cached.empty()) return cached;
      } catch (const std::exception&) {
        // fall through and rebuild
      }
    }
  }
  Corpus corpus = collect();
  std::ofstream out(cache_path);
  if (out) corpus.to_csv(out);
  return corpus;
}

std::filesystem::path default_corpus_cache(const std::string& tag) {
  const char* dir = std::getenv("RUSH_CACHE_DIR");
  const std::filesystem::path base = dir != nullptr ? dir : ".";
  return base / ("rush_corpus_" + tag + ".csv");
}

}  // namespace rush::core
