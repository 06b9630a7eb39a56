// Custom policy composition: the paper argues the RUSH modification is
// policy-agnostic — "the main and backfilling policies can be replaced
// with other queue ordering policies", e.g. Shortest Job First. This
// example runs the same workload under four schedulers:
//
//   FCFS+EASY        (paper baseline)        SJF+EASY
//   FCFS+EASY+RUSH   (paper system)          SJF+EASY+RUSH
//
// using a hand-written oracle (a simple utilization threshold instead of
// the trained model) to show the VariabilityOracle plug point.
//
// Build & run:  ./build/examples/custom_policy
#include <cstdio>

#include "common/stats.hpp"
#include "common/table.hpp"
#include "core/environment.hpp"
#include "core/session.hpp"

using namespace rush;

namespace {

/// A rule-based oracle: predict variation when the candidate nodes' edge
/// uplinks are already hot. No ML — just the plug-in interface.
class ThresholdOracle final : public sched::VariabilityOracle {
 public:
  ThresholdOracle(core::Environment& env, double hot_utilization)
      : env_(env), hot_(hot_utilization) {}

  sched::VariabilityPrediction predict(const sched::Job&,
                                       const cluster::NodeSet& candidate_nodes) override {
    const auto& tree = env_.tree();
    double worst = 0.0;
    for (cluster::NodeId n : candidate_nodes) {
      worst = std::max(worst,
                       env_.network().link_utilization(tree.edge_uplink(tree.edge_of(n))));
    }
    if (worst > hot_) return sched::VariabilityPrediction::Variation;
    if (worst > 0.75 * hot_) return sched::VariabilityPrediction::LittleVariation;
    return sched::VariabilityPrediction::NoVariation;
  }

 private:
  core::Environment& env_;
  double hot_;
};

struct Outcome {
  double makespan_s = 0.0;
  double mean_wait_s = 0.0;
  double p95_slowdown = 0.0;
  std::uint64_t skips = 0;
};

Outcome run(const std::string& main_policy, bool use_rush, std::uint64_t seed) {
  core::Environment env(core::single_pod_config(seed));

  // Same experimental stage as the paper: noise job + background load.
  core::NoisyPod stage(env);
  env.background().start();
  env.sampler().start();
  stage.noise().start();

  ThresholdOracle oracle(env, 0.8);
  sched::SchedulerConfig sc;
  sc.rush_enabled = use_rush;

  core::SessionConfig session_cfg;
  session_cfg.apps = apps::proxy_app_names();
  session_cfg.num_jobs = 95;
  session_cfg.main_policy = main_policy;
  session_cfg.backfill_policy = main_policy;
  core::WorkloadSession session(env, stage.allocator(), session_cfg, sc,
                                use_rush ? &oracle : nullptr, env.rng_for(0x5EED));
  const core::TrialResult result = session.run();

  Outcome out;
  out.makespan_s = result.makespan_s;
  out.skips = result.total_skips;
  std::vector<double> slowdowns;
  double wait = 0.0;
  for (const auto& job : result.jobs) {
    wait += job.wait_s;
    slowdowns.push_back(job.slowdown);
  }
  out.mean_wait_s = wait / static_cast<double>(result.jobs.size());
  out.p95_slowdown = stats::quantile(slowdowns, 0.95);
  return out;
}

}  // namespace

int main() {
  std::printf("Composing RUSH with different queue ordering policies (95-job workload,\n"
              "rule-based threshold oracle instead of the trained model):\n\n");
  Table table({"scheduler", "makespan (s)", "mean wait (s)", "p95 slowdown", "delays"});
  for (const auto& [policy, rush_on, label] :
       {std::tuple{"fcfs", false, "FCFS+EASY"}, std::tuple{"fcfs", true, "FCFS+EASY+RUSH"},
        std::tuple{"sjf", false, "SJF+EASY"}, std::tuple{"sjf", true, "SJF+EASY+RUSH"}}) {
    const Outcome out = run(policy, rush_on, 2024);
    table.add_row({label, Table::num(out.makespan_s, 0), Table::num(out.mean_wait_s, 1),
                   Table::num(out.p95_slowdown, 2) + "x", std::to_string(out.skips)});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("The RUSH Start() hook (Algorithm 2) composes with either ordering policy —\n"
              "it only changes when a launch is allowed, not how the queue is sorted.\n");
  return 0;
}
