// Golden decision suite for the scheduler (Algorithms 1-2).
//
// Every scenario builds one isolated world (engine, allocator, execution
// model, oracle, fault injector, trace sink), feeds it one randomized
// workload generated from the scenario seed, and folds everything the run
// produced into one FNV-1a digest: launch order, node assignments,
// backfill flags, completion order, skip/requeue totals, the makespan's
// bit pattern and the full trace byte stream. The digests were recorded
// from runs in which this Scheduler and the pre-optimization reference
// scheduler it replaced agreed byte for byte. The matrix crosses seeds,
// EASY backfill on/off, RUSH off / Front / AfterFront skip placement, and
// fault plans (crash + drain + restore), so the indexed queue, the
// reservation timeline, the word-bitset allocator, and the AfterFront
// linear-fallback regime are all pinned. A mismatch prints the observed
// digest; see tests/golden.hpp for how a deliberate change updates it.
#include <gtest/gtest.h>

#include <bit>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "faults/injector.hpp"
#include "golden.hpp"
#include "obs/trace.hpp"
#include "sched/scheduler.hpp"
#include "sim/engine.hpp"

namespace rush::sched {
namespace {

cluster::FatTreeConfig small_config() {
  cluster::FatTreeConfig cfg;
  cfg.pods = 1;
  cfg.edges_per_pod = 2;
  cfg.nodes_per_edge = 32;  // 64 nodes
  return cfg;
}

apps::AppProfile quiet_app(double runtime_s) {
  apps::AppProfile app;
  app.name = "quiet";
  app.base_runtime_s = runtime_s;
  app.compute_frac = 1.0;
  app.network_frac = 0.0;
  app.io_frac = 0.0;
  app.net_gbps_per_node = 0.0;
  app.io_gbps_per_node = 0.0;
  app.noise_sigma = 0.0;
  app.serial_fraction = 1.0;
  return app;
}

/// Deterministic oracle keyed on the job id only, so the prediction
/// stream depends on nothing but the workload.
class IdHashOracle final : public VariabilityOracle {
 public:
  VariabilityPrediction predict(const Job& job, const cluster::NodeSet&) override {
    switch ((job.id * 2654435761ULL) % 5) {
      case 0:
        return VariabilityPrediction::Variation;
      case 1:
        return VariabilityPrediction::LittleVariation;
      default:
        return VariabilityPrediction::NoVariation;
    }
  }
};

struct Scenario {
  std::uint64_t seed = 1;
  bool backfill = true;
  bool rush = false;
  SkipPlacement placement = SkipPlacement::Front;
  bool faults = false;
};

struct Submission {
  sim::Time at = 0.0;
  JobSpec spec;
};

/// One workload per seed: bursty submit
/// times (several jobs share a timestamp to exercise the id tie-break),
/// mixed widths, and walltime estimates looser than the runtimes.
std::vector<Submission> make_workload(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Submission> subs;
  sim::Time t = 0.0;
  for (int i = 0; i < 48; ++i) {
    if (rng.uniform() > 0.3) t += rng.uniform(1.0, 80.0);  // else: same-time burst
    Submission s;
    s.at = t;
    const double runtime = rng.uniform(40.0, 400.0);
    s.spec = JobSpec{};
    s.spec.app = quiet_app(runtime);
    s.spec.num_nodes = static_cast<int>(rng.uniform_int(1, 48));
    s.spec.walltime_estimate_s = runtime * rng.uniform(1.05, 1.6);
    subs.push_back(std::move(s));
  }
  return subs;
}

faults::FaultPlan make_fault_plan() {
  auto ev = [](faults::FaultKind kind, sim::Time at, cluster::NodeId node) {
    faults::FaultEvent e;
    e.kind = kind;
    e.at_s = at;
    e.node = node;
    return e;
  };
  faults::FaultPlan plan;
  plan.events = {
      ev(faults::FaultKind::NodeCrash, 250.0, 5),
      ev(faults::FaultKind::NodeDrain, 400.0, 17),
      ev(faults::FaultKind::NodeCrash, 650.0, 40),
      ev(faults::FaultKind::NodeRestore, 900.0, 5),
      ev(faults::FaultKind::NodeRestore, 1200.0, 40),
      ev(faults::FaultKind::NodeRestore, 1500.0, 17),
  };
  return plan;
}

/// Runs one scenario and returns the digest of everything it produced.
std::uint64_t run_scenario(const Scenario& sc) {
  sim::Engine engine;
  cluster::FatTree tree(small_config());
  cluster::NetworkModel net(tree);
  cluster::LustreModel fs(1000.0);
  apps::ExecutionConfig exec_cfg;
  exec_cfg.os_noise = 0.0;
  apps::ExecutionModel exec(engine, net, fs, exec_cfg, Rng(sc.seed ^ 0xabcdULL));
  cluster::NodeAllocator allocator(tree.nodes_in_pod(0));

  std::ostringstream trace_sink;
  obs::EventTrace trace(trace_sink);

  std::unique_ptr<faults::FaultInjector> injector;
  if (sc.faults) {
    injector = std::make_unique<faults::FaultInjector>(engine, make_fault_plan());
    injector->set_obs(&trace, nullptr);
  }

  IdHashOracle oracle;
  SchedulerConfig cfg;
  cfg.enable_backfill = sc.backfill;
  cfg.rush_enabled = sc.rush;
  cfg.skip_placement = sc.placement;
  cfg.trace = &trace;
  cfg.faults = injector.get();

  Scheduler sched(engine, allocator, exec, std::make_unique<FcfsPolicy>(),
                  std::make_unique<SjfPolicy>(), cfg, sc.rush ? &oracle : nullptr);

  std::string launches;  // "id@t bf=0/1 nodes=..." per launch, in launch order
  std::string completed;
  sched.on_start([&](const Job& job) {
    launches += std::to_string(job.id) + "@" + std::to_string(job.start_s) +
                " bf=" + (job.backfilled ? "1" : "0") + " nodes=";
    for (const auto n : job.nodes) launches += std::to_string(n) + ",";
    launches += "\n";
  });
  sched.on_complete([&](const Job& job) { completed += std::to_string(job.id) + " "; });

  if (injector) injector->arm();
  for (const Submission& s : make_workload(sc.seed)) (void)sched.submit_at(s.at, s.spec);
  engine.run();
  trace.flush();

  // A degenerate scenario that never queued anything would pin nothing;
  // make sure the workload actually exercised the machinery.
  EXPECT_FALSE(launches.empty());
  EXPECT_FALSE(trace_sink.str().empty());
  EXPECT_EQ(sched.queue_length(), 0u);
  EXPECT_EQ(sched.running_count(), 0u);
  return golden::fnv1a(launches + completed + "\n" + trace_sink.str() +
                       "skips=" + std::to_string(sched.total_skips()) +
                       " requeues=" + std::to_string(sched.total_requeues()) + " makespan=" +
                       golden::hex(std::bit_cast<std::uint64_t>(sched.makespan())) + "\n");
}

void expect_golden(const Scenario& sc, std::uint64_t expected) {
  SCOPED_TRACE("seed=" + std::to_string(sc.seed) + " backfill=" + std::to_string(sc.backfill) +
               " rush=" + std::to_string(sc.rush) +
               " afterfront=" + std::to_string(sc.placement == SkipPlacement::AfterFront) +
               " faults=" + std::to_string(sc.faults));
  EXPECT_EQ(golden::hex(run_scenario(sc)), golden::hex(expected));
}

// One row per scenario in the matrix's loop order: seed, then backfill
// on/off, then faults off/on, then FCFS / RUSH Front / RUSH AfterFront.
// Seed 7 with backfill makes the same decisions under Front and
// AfterFront, so those rows repeat a digest.
constexpr std::uint64_t kMatrix[36] = {
    // seed 1
    0x684ba0085dc95b3cULL, 0xbf4ff8d2b116cecbULL, 0x8b910ebacfc154f1ULL,  // backfill, no faults
    0x4ddbfb88529c62cfULL, 0x92e94abc737c4ed2ULL, 0xd3ac591dcf9b04caULL,  // backfill, faults
    0x03ce6e2c36b4ab7eULL, 0x23a0e6554ee540feULL, 0xd8af0494d0e97b64ULL,  // no backfill, no faults
    0x90f6636653916d39ULL, 0x98cbf92425b6d43fULL, 0x8b0425bf41fc743bULL,  // no backfill, faults
    // seed 7
    0x9a75cf11e98e9d91ULL, 0xd8b54b244102f8e4ULL, 0xd8b54b244102f8e4ULL,  // backfill, no faults
    0x038ea251251d099bULL, 0x33400ae94b1b424dULL, 0x33400ae94b1b424dULL,  // backfill, faults
    0x166bd8315ee420baULL, 0x5e30bb13eb1c2c81ULL, 0xbff60b38a5c5956aULL,  // no backfill, no faults
    0x5a8e39fd00e9420dULL, 0x44ae9c0351cba35eULL, 0x09340e3c556b67b3ULL,  // no backfill, faults
    // seed 1234567
    0x86d34364e368c030ULL, 0x9914993ee8790dd5ULL, 0x9ba1f798b0d49fbdULL,  // backfill, no faults
    0x16f273bfd3f3f697ULL, 0x29dc88d8da8bc7f2ULL, 0x56a9907e8ac84715ULL,  // backfill, faults
    0xf356ede963530c9dULL, 0x827f0e55ee91c0bfULL, 0x8195e7846a06505cULL,  // no backfill, no faults
    0xe350743027b69028ULL, 0x4c27f577972d81ccULL, 0x14fbeb97cfba87dbULL,  // no backfill, faults
};

TEST(SchedulerGolden, MatrixOfSeedsFaultsBackfillAndSkipPlacement) {
  std::size_t row = 0;
  for (const std::uint64_t seed : {1ULL, 7ULL, 1234567ULL}) {
    for (const bool backfill : {true, false}) {
      for (const bool faults : {false, true}) {
        Scenario off;
        off.seed = seed;
        off.backfill = backfill;
        off.faults = faults;
        expect_golden(off, kMatrix[row++]);

        Scenario front = off;
        front.rush = true;
        front.placement = SkipPlacement::Front;
        expect_golden(front, kMatrix[row++]);

        Scenario after = off;
        after.rush = true;
        after.placement = SkipPlacement::AfterFront;
        expect_golden(after, kMatrix[row++]);
      }
    }
  }
}

TEST(SchedulerGolden, RequeuedJobsKeepIdentityUnderRepeatedCrashes) {
  // Hammer the fault path: crash the same nodes twice so requeued jobs
  // relaunch (exercising timeline erase/insert of re-placed jobs).
  Scenario sc;
  sc.seed = 99;
  sc.faults = true;
  sc.rush = true;
  sc.placement = SkipPlacement::AfterFront;
  expect_golden(sc, 0xd6997128913dc8d3ULL);
}

}  // namespace
}  // namespace rush::sched
