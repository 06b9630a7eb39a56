// Headline claims (paper §I and §VII), paper vs measured:
//   - ML models predict variation well (paper: F1 0.95 in CV)
//   - variation runs drop sharply under RUSH (paper: 17 -> 4)
//   - maximum run time improves (paper: up to 5.8%), no outliers added
//   - makespan and wait times are not significantly burdened
#include <algorithm>
#include <cstdio>

#include "bench_common.hpp"
#include "common/table.hpp"
#include "core/pipeline.hpp"
#include "core/report.hpp"
#include "ml/serialize.hpp"
#include "ml/validation.hpp"

using namespace rush;

int main(int argc, char** argv) {
  const auto opts = bench::parse_options(argc, argv);
  bench::print_banner("Headline summary", "Paper claims vs this reproduction", opts);

  const core::Corpus corpus = bench::main_corpus(opts);
  const core::Labeler labeler(corpus);

  // Best-model CV F1 (AdaBoost, all-node scope, leave-one-app-out).
  const auto dataset = labeler.binary_dataset(corpus, telemetry::AggregationScope::AllNodes);
  const auto folds = ml::leave_one_group_out(dataset.groups());
  const auto adaboost = ml::make_classifier("adaboost");
  const double cv_f1 = ml::cross_validate(*adaboost, dataset, folds).mean_f1();

  core::ExperimentRunner runner = bench::make_runner(opts, corpus);
  const auto adaa = bench::experiment(opts, runner, core::ExperimentId::ADAA);

  const double var_base = core::mean_total_variation_runs(adaa.baseline, runner.labeler());
  const double var_rush = core::mean_total_variation_runs(adaa.rush, runner.labeler());

  double best_improvement = 0.0;
  bool any_regression = false;
  for (const auto& [app, improvement] :
       core::max_runtime_improvement(adaa.baseline, adaa.rush)) {
    best_improvement = std::max(best_improvement, improvement);
    if (improvement < -1.0) any_regression = true;
  }

  const double makespan_base = core::mean_makespan(adaa.baseline);
  const double makespan_rush = core::mean_makespan(adaa.rush);
  double wait_delta = 0.0;
  {
    const auto wb = core::mean_wait_times(adaa.baseline);
    const auto wr = core::mean_wait_times(adaa.rush);
    for (const auto& [app, b] : wb) wait_delta = std::max(wait_delta, wr.at(app) - b);
  }
  double skips = 0.0;
  int threshold_hits = 0;
  for (const auto& trial : adaa.rush) {
    skips += static_cast<double>(trial.total_skips);
    for (const auto& job : trial.jobs)
      if (job.skips >= 10) ++threshold_hits;
  }
  skips /= static_cast<double>(adaa.rush.size());

  Table table({"claim", "paper", "measured"});
  table.add_row({"CV F1 of best model (AdaBoost)", "0.95", Table::num(cv_f1, 2)});
  table.add_row({"variation runs per ADAA trial", "17 -> 4",
                 Table::num(var_base, 1) + " -> " + Table::num(var_rush, 1)});
  table.add_row({"variation reduction", "~76%",
                 Table::num(100.0 * (var_base - var_rush) / var_base, 0) + "%"});
  table.add_row({"best max-run-time improvement", "5.8%", Table::num(best_improvement, 1) + "%"});
  table.add_row({"max-run-time regressions", "none", any_regression ? "SOME" : "none"});
  table.add_row({"makespan delta", "-66 s .. -18 s",
                 Table::num(makespan_rush - makespan_base, 0) + " s"});
  table.add_row({"worst per-app wait increase", "< 60 s", Table::num(wait_delta, 0) + " s"});
  table.add_row({"Algorithm-2 skips per trial", "(threshold 10 never hit)",
                 Table::num(skips, 0) + " (" + std::to_string(threshold_hits) +
                     " jobs at threshold)"});
  std::printf("\n%s\n", table.render().c_str());
  return 0;
}
