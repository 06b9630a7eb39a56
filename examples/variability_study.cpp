// Variability study: use the library as a *measurement* tool rather than
// a scheduler — characterize how each proxy application's run time reacts
// to network and filesystem contention, and how visible that contention
// is in the synthesized LDMS counters and canary benchmarks.
//
// This is the §III story of the paper: shared-resource health is a
// meaningful, observable predictor of near-future application
// performance.
//
// Build & run:  ./build/examples/variability_study
#include <cstdio>
#include <vector>

#include "apps/execution.hpp"
#include "common/table.hpp"
#include "core/environment.hpp"

using namespace rush;

namespace {

/// Run one app at a controlled ambient congestion level and report its
/// run time plus what the telemetry saw right before launch.
struct Observation {
  double runtime_s = 0.0;
  double canary_allreduce_ms = 0.0;
  double mean_edge_util = 0.0;
};

Observation observe(const apps::AppProfile& app, double ambient_level, std::uint64_t seed) {
  core::Environment env(core::single_pod_config(seed));
  const auto& tree = env.tree();

  // Pin the ambient load on every edge uplink (no stochastic background).
  for (int e = 0; e < tree.num_edges(); ++e) {
    env.network().set_ambient_load(tree.edge_uplink(e),
                                   ambient_level * tree.config().edge_uplink_gbps);
  }

  // A 16-node placement straddling two edge switches.
  cluster::NodeSet nodes;
  for (int i = 24; i < 40; ++i) nodes.push_back(i);

  env.sampler().start();
  env.engine().run_until(300.0);  // fill the 5-minute counter window

  Observation obs;
  obs.canary_allreduce_ms = env.canary().run(nodes)[8] * 1000.0;  // allreduce mean
  obs.mean_edge_util = env.network().link_utilization(tree.edge_uplink(0));

  const sim::Time start_s = env.engine().now();
  env.execution().launch(app, nodes, apps::ScalingMode::Strong,
                         [&obs, &env, start_s](double /*slowdown*/) {
                           obs.runtime_s = env.engine().now() - start_s;
                         });
  env.engine().run_until(env.engine().now() + 4.0 * 3600.0);
  return obs;
}

}  // namespace

int main() {
  const std::vector<double> levels{0.0, 0.3, 0.6, 0.8, 1.0};

  std::printf("Run-time response to ambient edge-uplink congestion\n");
  std::printf("(16-node jobs straddling two edge switches; deterministic ambient)\n\n");

  Table table({"app", "class", "util", "runtime (s)", "slowdown", "canary allreduce (ms)"});
  for (const apps::AppProfile& app : apps::proxy_apps()) {
    double baseline = 0.0;
    for (std::size_t i = 0; i < levels.size(); ++i) {
      const Observation obs = observe(app, levels[i], 1234);
      if (i == 0) baseline = obs.runtime_s;
      table.add_row({i == 0 ? app.name : "",
                     i == 0 ? telemetry::workload_class_name(app.workload) : "",
                     Table::num(levels[i], 1), Table::num(obs.runtime_s, 1),
                     Table::num(obs.runtime_s / baseline, 2) + "x",
                     Table::num(obs.canary_allreduce_ms, 1)});
    }
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("Reading the table: network-heavy apps (Laghos, SWFFT, AMG) stretch the most;\n"
              "compute-bound apps (Kripke, PENNANT) barely move; the canary benchmark times\n"
              "rise with utilization *before* the job runs — that is the signal the RUSH\n"
              "predictor learns from.\n");
  return 0;
}
