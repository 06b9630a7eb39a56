#include "core/environment.hpp"

#include "telemetry/schema.hpp"

namespace rush::core {

namespace {
constexpr double kLustreGbps = 480.0;  // aggregate filesystem bandwidth
/// Look-back of the counter features (paper §III-D: 5-minute
/// aggregates). The assembler is the store's only reader, so the store
/// keeps exactly the frames this window can reach.
constexpr double kFeatureWindowS = 300.0;
/// Pod whose nodes the telemetry store covers (the "reservation").
constexpr int kTelemetryPod = 0;

/// Pod nodes on the noise job's stride (`noise`) or off it.
cluster::NodeSet stride_nodes(const cluster::NodeSet& pod, bool noise) {
  cluster::NodeSet out;
  for (std::size_t i = 0; i < pod.size(); ++i)
    if ((i % NoisyPod::kNoiseNodeStride == 0) == noise) out.push_back(pod[i]);
  return out;
}
}  // namespace

EnvironmentConfig single_pod_config(std::uint64_t seed) {
  EnvironmentConfig cfg;
  cfg.tree.pods = 1;
  cfg.tree.edges_per_pod = 16;
  cfg.tree.nodes_per_edge = 32;
  cfg.seed = seed;
  return cfg;
}

Environment::Environment(EnvironmentConfig config)
    : config_(config), master_rng_(config.seed) {
  tree_ = std::make_unique<cluster::FatTree>(config_.tree);
  network_ = std::make_unique<cluster::NetworkModel>(*tree_);
  lustre_ = std::make_unique<cluster::LustreModel>(kLustreGbps);
  background_ =
      std::make_unique<cluster::BackgroundLoad>(engine_, *network_, *lustre_, rng_for(0xBACD));
  store_ = std::make_unique<telemetry::CounterStore>(pod_nodes(), telemetry::num_counters(),
                                                     kFeatureWindowS);
  sampler_ = std::make_unique<telemetry::CounterSampler>(engine_, *network_, *lustre_, *store_,
                                                         rng_for(0x5A3B));
  canary_ = std::make_unique<telemetry::MpiCanary>(*network_, rng_for(0xCA4A));
  features_ = std::make_unique<telemetry::FeatureAssembler>(*store_, kFeatureWindowS);
  execution_ = std::make_unique<apps::ExecutionModel>(
      engine_, *network_, *lustre_, apps::ExecutionConfig{}, rng_for(0xE8EC));
}

void Environment::attach_obs(obs::EventTrace* trace, obs::MetricsRegistry* metrics) {
  engine_.set_metrics(metrics);
  network_->set_metrics(metrics);
  sampler_->set_obs(trace, metrics);
}

cluster::NodeSet Environment::pod_nodes() const {
  return tree_->nodes_in_pod(kTelemetryPod);
}

NoisyPod::NoisyPod(Environment& env)
    : noise_(env.engine(), env.network(), stride_nodes(env.pod_nodes(), true),
             env.rng_for(0x401CE)),
      allocator_(stride_nodes(env.pod_nodes(), false)) {}

}  // namespace rush::core
