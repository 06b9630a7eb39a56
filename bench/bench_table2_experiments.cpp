// Table II: the experiment definitions used to compare RUSH against the
// FCFS+EASY baseline inside a 512-node reservation — then every one of
// them run (fanned across the task pool) with a per-experiment summary.
#include <cstdio>

#include "bench_common.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "core/report.hpp"

using namespace rush;

namespace {

/// Table II's description column.
const char* description(core::ExperimentId id) {
  switch (id) {
    case core::ExperimentId::ADAA:
      return "ML model trained on data from all running applications";
    case core::ExperimentId::ADPA:
      return "Subset of 3 applications running";
    case core::ExperimentId::PDPA:
      return "ML model trained on AMG, Kripke, sw4lite, SWFFT";
    case core::ExperimentId::WS:
      return "Jobs run on 8, 16, and 32 nodes - weak scaling";
    case core::ExperimentId::SS:
      return "Jobs run on 8, 16, and 32 nodes - strong scaling";
  }
  return "";
}

}  // namespace

int main(int argc, char** argv) {
  const auto opts = bench::parse_options(argc, argv);
  bench::print_banner("Table II", "Experiments run in the 512-node reservation", opts);

  Table table({"Experiment", "Name", "Applications", "# of Jobs", "Description"});
  for (const auto& spec : core::all_experiments()) {
    const std::string apps = spec.run_apps.size() == 7 ? "All" : str::join(spec.run_apps, ", ");
    table.add_row({spec.code, spec.name, apps, std::to_string(spec.num_jobs),
                   description(spec.id)});
  }
  std::printf("\n%s\n", table.render().c_str());

  const core::ExperimentConfig defaults;
  const core::SessionConfig session_defaults;
  std::printf("Common setup (paper §VI-A): single 512-node pod; noise job on 1/%zu of the\n"
              "nodes sending variable all-to-all traffic; %.0f%% of the queue submitted at\n"
              "t=0 and the rest uniformly over %.0f minutes; %d trials per policy;\n"
              "16 nodes per job unless the experiment scales to {8,16,32}.\n\n",
              core::NoisyPod::kNoiseNodeStride, 100.0 * session_defaults.initial_fraction,
              session_defaults.submit_window_s / 60.0, defaults.trials_per_policy);

  core::ExperimentRunner runner = bench::make_runner(opts, bench::main_corpus(opts));

  const std::vector<core::ExperimentId> ids{core::ExperimentId::ADAA, core::ExperimentId::ADPA,
                                            core::ExperimentId::PDPA, core::ExperimentId::WS,
                                            core::ExperimentId::SS};
  const auto results = bench::experiments(opts, runner, ids);

  Table run_table({"experiment", "variation runs (fcfs-easy)", "variation runs (rush)",
                   "makespan (fcfs-easy)", "makespan (rush)"});
  for (const auto& result : results) {
    const double var_base = core::mean_total_variation_runs(result.baseline, runner.labeler());
    const double var_rush = core::mean_total_variation_runs(result.rush, runner.labeler());
    run_table.add_row({result.spec.code, Table::num(var_base, 1), Table::num(var_rush, 1),
                       str::format_duration(core::mean_makespan(result.baseline)),
                       str::format_duration(core::mean_makespan(result.rush))});
  }
  std::printf("All five experiments, %d trials/policy each:\n%s\n", opts.trials,
              run_table.render().c_str());
  std::printf("paper shape: RUSH cuts variation runs in every experiment while makespans\n"
              "stay within tens of seconds of FCFS+EASY.\n\n");
  return 0;
}
