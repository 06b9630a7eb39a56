// EventTrace behaviour: zero-overhead no-op mode, and a round-trip that
// drives a real scheduler run into a trace, then parses every JSONL line
// with obs::parse_json and checks the schema invariants documented in
// docs/trace-format.md.
#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "apps/execution.hpp"
#include "cluster/allocator.hpp"
#include "obs/json.hpp"
#include "obs/manifest.hpp"
#include "sim/engine.hpp"
#include "sched/scheduler.hpp"

namespace rush::obs {
namespace {

/// Parses one JSON object and indexes its members by key.
std::map<std::string, JsonValue> object_of(const std::string& json) {
  JsonValue doc = parse_json(json);
  EXPECT_EQ(doc.kind, JsonValue::Kind::Object) << json;
  std::map<std::string, JsonValue> out;
  for (auto& [key, value] : doc.members) out.emplace(key, std::move(value));
  return out;
}

// ---------------------------------------------------------------------------
// A tiny deterministic scheduler world (no traffic, no noise).
// ---------------------------------------------------------------------------
sched::JobSpec quiet_spec(int nodes, double runtime_s) {
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
  sched::JobSpec spec;
  spec.app = app;
  spec.num_nodes = nodes;
  spec.walltime_estimate_s = runtime_s * 1.2;
  return spec;
}

class AlwaysVariation final : public sched::VariabilityOracle {
 public:
  sched::VariabilityPrediction predict(const sched::Job& job, const cluster::NodeSet&) override {
    // First attempt of every job is "variation"; retries pass.
    return job.skip_count == 0 ? sched::VariabilityPrediction::Variation
                               : sched::VariabilityPrediction::NoVariation;
  }
};

struct World {
  World() : tree(config()), net(tree), fs(1000.0),
            exec(engine, net, fs, exec_config(), Rng(1)),
            allocator(tree.nodes_in_pod(0)) {}

  static cluster::FatTreeConfig config() {
    cluster::FatTreeConfig cfg;
    cfg.pods = 1;
    cfg.edges_per_pod = 2;
    cfg.nodes_per_edge = 32;
    return cfg;
  }
  static apps::ExecutionConfig exec_config() {
    apps::ExecutionConfig cfg;
    cfg.os_noise = 0.0;
    return cfg;
  }

  sim::Engine engine;
  cluster::FatTree tree;
  cluster::NetworkModel net;
  cluster::LustreModel fs;
  apps::ExecutionModel exec;
  cluster::NodeAllocator allocator;
};

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line))
    if (!line.empty()) out.push_back(line);
  return out;
}

// ---------------------------------------------------------------------------

TEST(EventTrace, RoundTripThroughSchedulerRun) {
  std::ostringstream sink;
  {
    EventTrace trace(sink);

    World w;
    AlwaysVariation oracle;
    sched::SchedulerConfig sc;
    sc.rush_enabled = true;
    sc.min_reconsider_interval_s = 10.0;
    sc.retry_period_s = 15.0;
    sc.trace = &trace;
    sched::Scheduler scheduler(w.engine, w.allocator, w.exec,
                               std::make_unique<sched::FcfsPolicy>(),
                               std::make_unique<sched::FcfsPolicy>(), sc, &oracle);

    trace.emit_trial_start(w.engine.now(), "test", 7);
    for (int i = 0; i < 6; ++i) scheduler.submit(quiet_spec(16, 100.0));
    scheduler.submit_at(50.0, quiet_spec(16, 40.0));
    w.engine.run();
    ASSERT_EQ(scheduler.completed_count(), 7u);
    trace.emit_trial_end(w.engine.now(), "test", 7, scheduler.makespan(),
                         scheduler.total_skips());
    EXPECT_GT(scheduler.total_skips(), 0u);
    trace.flush();
    EXPECT_EQ(trace.bytes_written(), sink.str().size());
  }

  const auto lines = lines_of(sink.str());
  ASSERT_GE(lines.size(), 16u);  // 7 x (submit+start+end) + trial pair minus none

  double prev_t = -1.0;
  std::uint64_t prev_seq = 0;
  std::map<std::string, int> event_counts;
  for (const std::string& line : lines) {
    const auto f = object_of(line);
    // Schema envelope: every record carries v/seq/t/ev.
    ASSERT_TRUE(f.contains("v") && f.contains("seq") && f.contains("t") && f.contains("ev"))
        << line;
    EXPECT_EQ(f.at("v").number, EventTrace::kSchemaVersion);
    const double t = f.at("t").number;
    const auto seq = static_cast<std::uint64_t>(f.at("seq").number);
    EXPECT_GE(t, prev_t) << "sim time went backwards: " << line;
    if (prev_seq != 0) {
      EXPECT_EQ(seq, prev_seq + 1) << "seq gap: " << line;
    }
    prev_t = t;
    prev_seq = seq;

    const std::string& ev = f.at("ev").text;
    ++event_counts[ev];
    if (ev == "job_submit") {
      EXPECT_TRUE(f.contains("job") && f.contains("app") && f.contains("nodes") &&
                  f.contains("walltime_est_s"))
          << line;
    } else if (ev == "job_start") {
      EXPECT_TRUE(f.contains("job") && f.contains("wait_s") && f.contains("backfilled")) << line;
    } else if (ev == "job_end") {
      EXPECT_TRUE(f.contains("job") && f.contains("runtime_s") && f.contains("slowdown") &&
                  f.contains("skips"))
          << line;
    } else if (ev == "alg2_skip") {
      EXPECT_TRUE(f.contains("job") && f.contains("prediction") && f.contains("skip_count") &&
                  f.contains("skip_threshold"))
          << line;
      EXPECT_EQ(f.at("prediction").text, "variation");
    } else if (ev == "trial_start" || ev == "trial_end") {
      EXPECT_TRUE(f.contains("policy") && f.contains("seed")) << line;
    }
  }
  EXPECT_EQ(event_counts["trial_start"], 1);
  EXPECT_EQ(event_counts["trial_end"], 1);
  EXPECT_EQ(event_counts["job_submit"], 7);
  EXPECT_EQ(event_counts["job_start"], 7);
  EXPECT_EQ(event_counts["job_end"], 7);
  EXPECT_GE(event_counts["alg2_skip"], 1);
}

TEST(EventTrace, PredictRecordCarriesHexFeatureHash) {
  std::ostringstream sink;
  EventTrace trace(sink);
  trace.emit_predict(1.5, 42, "no-variation", 0x0123456789abcdefULL);
  trace.flush();
  const auto f = object_of(lines_of(sink.str()).at(0));
  EXPECT_EQ(f.at("ev").text, "predict");
  EXPECT_EQ(f.at("label").text, "no-variation");
  EXPECT_EQ(f.at("feature_hash").text, "0123456789abcdef");
}

TEST(EventTrace, EveryRecordKindKeepsItsBytes) {
  std::ostringstream sink;
  {
    EventTrace trace(sink);
    trace.emit_trial_start(0.0, "rush", 7);
    trace.emit_trial_end(86400.5, "rush", 7, 86000.25, 12);
    trace.emit_job_submit(1.5, 3, "AMG \"v2\"", 16, 120.0);
    trace.emit_job_start(2.0, 3, 0.5, true, {4, 5, 6});
    trace.emit_job_end(130.125, 3, 128.125, 1.0625, 2);
    trace.emit_alloc_decision(2.0, 3, 310.0, {{4, 0.1}, {5, -2.5}});
    trace.emit_alg2_skip(3.0, 4, "variation", 1, 10);
    trace.emit_predict(3.0, 4, "variation", 0x00ab00cd00ef0012ULL);
    trace.emit_congestion_episode(90.0, 60.0, 17, 1.75);
    trace.emit_fault_node_down(100.0, 9, false, 0.0);
    trace.emit_fault_node_restore(160.0, 9);
    trace.emit_fault_link_degrade(170.0, 2, 0.25, 30.0);
    trace.emit_fault_link_restore(200.0, 2);
    trace.emit_fault_window(210.0, "sampler_dropout", -1, 300.0);
    trace.emit_fault_job_requeue(100.0, 8, 9, 1);
    trace.emit_fault_oracle_fallback(220.0, 11, "stale-counters", "no-variation");
  }
  EXPECT_EQ(sink.str(),
            R"({"v":1,"seq":0,"t":0,"ev":"trial_start","policy":"rush","seed":7})" "\n"
            R"({"v":1,"seq":1,"t":86400.5,"ev":"trial_end","policy":"rush","seed":7,)"
            R"("makespan_s":86000.25,"total_skips":12})" "\n"
            R"({"v":1,"seq":2,"t":1.5,"ev":"job_submit","job":3,"app":"AMG \"v2\"",)"
            R"("nodes":16,"walltime_est_s":120})" "\n"
            R"({"v":1,"seq":3,"t":2,"ev":"job_start","job":3,"wait_s":0.5,)"
            R"("backfilled":true,"node_ids":[4,5,6]})" "\n"
            R"({"v":1,"seq":4,"t":130.125,"ev":"job_end","job":3,"runtime_s":128.125,)"
            R"("slowdown":1.0625,"skips":2})" "\n"
            R"({"v":1,"seq":5,"t":2,"ev":"alloc_decision","head_job":3,"reservation_s":310,)"
            R"("candidates":[{"job":4,"score":0.1},{"job":5,"score":-2.5}]})" "\n"
            R"({"v":1,"seq":6,"t":3,"ev":"alg2_skip","job":4,"prediction":"variation",)"
            R"("skip_count":1,"skip_threshold":10})" "\n"
            R"({"v":1,"seq":7,"t":3,"ev":"predict","job":4,"label":"variation",)"
            R"("feature_hash":"00ab00cd00ef0012"})" "\n"
            R"({"v":1,"seq":8,"t":90,"ev":"congestion","start_s":60,"link":17,)"
            R"("peak_util":1.75})" "\n"
            R"({"v":1,"seq":9,"t":100,"ev":"fault_node_down","node":9,"drain":false,)"
            R"("duration_s":0})" "\n"
            R"({"v":1,"seq":10,"t":160,"ev":"fault_node_restore","node":9})" "\n"
            R"({"v":1,"seq":11,"t":170,"ev":"fault_link_degrade","link":2,"factor":0.25,)"
            R"("duration_s":30})" "\n"
            R"({"v":1,"seq":12,"t":200,"ev":"fault_link_restore","link":2})" "\n"
            R"({"v":1,"seq":13,"t":210,"ev":"fault_sampler_dropout","node":-1,)"
            R"("until_s":300})" "\n"
            R"({"v":1,"seq":14,"t":100,"ev":"fault_job_requeue","job":8,"node":9,)"
            R"("requeues":1})" "\n"
            R"({"v":1,"seq":15,"t":220,"ev":"fault_oracle_fallback","job":11,)"
            R"("reason":"stale-counters","label":"no-variation"})" "\n");
}

TEST(FeatureHash, DeterministicAndSensitive) {
  const std::vector<double> a = {1.0, 2.0, 3.0};
  const std::vector<double> b = {1.0, 2.0, 3.000001};
  EXPECT_EQ(feature_hash(a), feature_hash(a));
  EXPECT_NE(feature_hash(a), feature_hash(b));
  EXPECT_NE(feature_hash({}), feature_hash({0.0}));
  // -0.0 and 0.0 compare equal; their hashes must too.
  EXPECT_EQ(feature_hash({-0.0}), feature_hash({0.0}));
}

TEST(RunManifest, JsonIsValidAndCarriesProvenance) {
  RunManifest m;
  m.tool = "test_tool";
  m.seed = 99;
  m.trials = 3;
  m.days = 2;
  m.trace_path = "/tmp/t.jsonl";
  const auto f = object_of(manifest_json(m));
  EXPECT_EQ(f.at("tool").text, "test_tool");
  EXPECT_EQ(f.at("seed").number, 99.0);
  EXPECT_TRUE(f.contains("git_sha"));
  EXPECT_TRUE(f.contains("build_type"));
  EXPECT_TRUE(f.contains("compiler"));
  EXPECT_TRUE(f.contains("schema"));
}

TEST(RunManifest, KeepsItsBytes) {
  RunManifest m;
  m.tool = "bench_headline_summary";
  m.seed = 42;
  m.trials = 1;
  m.days = 2;
  m.trace_path = "run/t.jsonl";
  EXPECT_EQ(manifest_json(m),
            R"({"schema":1,"tool":"bench_headline_summary","seed":42,"trials":1,"days":2,)"
            R"("trace_path":"run/t.jsonl","git_sha":")" + git_sha() + R"(","build_type":")" +
                build_type() + R"(","compiler":")" + compiler() + R"(","audit_enabled":)" +
                (audit_enabled() ? "true" : "false") + "}");
}

}  // namespace
}  // namespace rush::obs
