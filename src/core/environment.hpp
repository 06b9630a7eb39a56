// One-stop simulation environment.
//
// Bundles the engine, fat-tree, contention models, telemetry stack, and
// execution model with consistent seeding so the collector, experiment
// runner, examples, and benches do not each re-wire the world. NoisyPod
// adds the paper's experimental stage on top of it.
#pragma once

#include <memory>

#include "apps/execution.hpp"
#include "apps/noise.hpp"
#include "cluster/allocator.hpp"
#include "cluster/background.hpp"
#include "cluster/lustre.hpp"
#include "cluster/network.hpp"
#include "common/rng.hpp"
#include "sim/engine.hpp"
#include "telemetry/canary.hpp"
#include "telemetry/features.hpp"
#include "telemetry/sampler.hpp"
#include "telemetry/store.hpp"

namespace rush::obs {
class EventTrace;
class MetricsRegistry;
}  // namespace rush::obs

namespace rush::core {

/// Machine shape and master seed; every other model runs on its own
/// constants.
struct EnvironmentConfig {
  cluster::FatTreeConfig tree;
  std::uint64_t seed = 2022;
};

/// Quartz-like single-pod default used by the paper's experiments:
/// 512 nodes (16 edge switches x 32 nodes) in one pod.
EnvironmentConfig single_pod_config(std::uint64_t seed = 2022);

class Environment {
 public:
  explicit Environment(EnvironmentConfig config);

  [[nodiscard]] const EnvironmentConfig& config() const noexcept { return config_; }

  sim::Engine& engine() noexcept { return engine_; }
  cluster::FatTree& tree() noexcept { return *tree_; }
  cluster::NetworkModel& network() noexcept { return *network_; }
  cluster::LustreModel& lustre() noexcept { return *lustre_; }
  cluster::BackgroundLoad& background() noexcept { return *background_; }
  telemetry::CounterStore& store() noexcept { return *store_; }
  telemetry::CounterSampler& sampler() noexcept { return *sampler_; }
  telemetry::MpiCanary& canary() noexcept { return *canary_; }
  telemetry::FeatureAssembler& features() noexcept { return *features_; }
  apps::ExecutionModel& execution() noexcept { return *execution_; }

  /// Deterministic child RNG for a named component.
  [[nodiscard]] Rng rng_for(std::uint64_t tag) { return master_rng_.split(tag); }

  /// Attach observability sinks to every layer the environment owns
  /// (engine event counters, network probe/rebuild counters, sampler
  /// congestion episodes). Either pointer may be null (that side
  /// detaches), so all inputs are valid; both must outlive the
  /// environment or be detached first.
  void attach_obs(obs::EventTrace* trace, obs::MetricsRegistry* metrics);

  /// Nodes of the telemetry pod (pod 0, the experiment reservation).
  [[nodiscard]] cluster::NodeSet pod_nodes() const;

 private:
  EnvironmentConfig config_;
  Rng master_rng_;
  sim::Engine engine_;
  std::unique_ptr<cluster::FatTree> tree_;
  std::unique_ptr<cluster::NetworkModel> network_;
  std::unique_ptr<cluster::LustreModel> lustre_;
  std::unique_ptr<cluster::BackgroundLoad> background_;
  std::unique_ptr<telemetry::CounterStore> store_;
  std::unique_ptr<telemetry::CounterSampler> sampler_;
  std::unique_ptr<telemetry::MpiCanary> canary_;
  std::unique_ptr<telemetry::FeatureAssembler> features_;
  std::unique_ptr<apps::ExecutionModel> execution_;
};

/// The paper's experimental stage (§VI-A) on the telemetry pod, which the
/// in-situ collection (§V-A) runs on too, so the model trains on the
/// features it later schedules with: a noise job on every
/// kNoiseNodeStride-th node sends variable all-to-all traffic, and the
/// workload is allocated from the remaining nodes. Construction draws the
/// noise job's RNG stream from the environment; the caller starts the
/// noise job after the background load and the sampler.
class NoisyPod {
 public:
  /// 1/16 of the pod: two noise nodes under each 32-node edge switch.
  static constexpr std::size_t kNoiseNodeStride = 16;

  explicit NoisyPod(Environment& env);

  apps::NoiseJob& noise() noexcept { return noise_; }
  cluster::NodeAllocator& allocator() noexcept { return allocator_; }

 private:
  apps::NoiseJob noise_;
  cluster::NodeAllocator allocator_;
};

}  // namespace rush::core
