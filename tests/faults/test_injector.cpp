// FaultInjector behaviour over a live engine: arming, node events,
// sampler dropout/corruption hooks, link health, trace + metrics output.
#include "faults/injector.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/lustre.hpp"
#include "cluster/network.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/engine.hpp"
#include "telemetry/sampler.hpp"
#include "telemetry/schema.hpp"
#include "telemetry/store.hpp"

namespace rush::faults {
namespace {

cluster::FatTreeConfig small_tree() {
  cluster::FatTreeConfig cfg;
  cfg.pods = 1;
  cfg.edges_per_pod = 2;
  cfg.nodes_per_edge = 4;
  cfg.node_link_gbps = 10.0;
  cfg.edge_uplink_gbps = 20.0;
  cfg.pod_uplink_gbps = 80.0;
  return cfg;
}

FaultPlan plan_of(std::vector<FaultEvent> events) {
  FaultPlan plan;
  plan.events = std::move(events);
  return plan;
}

FaultEvent make_event(FaultKind kind, sim::Time at_s) {
  FaultEvent ev;
  ev.kind = kind;
  ev.at_s = at_s;
  return ev;
}

class InjectorTest : public ::testing::Test {
 protected:
  InjectorTest()
      : tree_(small_tree()), net_(tree_), lustre_(100.0),
        store_({0, 1, 2, 3}, telemetry::num_counters(), 300.0),
        sampler_(engine_, net_, lustre_, store_, Rng(7)) {}

  /// Plan events (synthesized auto-restores included) an injector
  /// attached to metrics_ has fired: the sum of its per-kind counters.
  std::uint64_t faults_fired() {
    std::uint64_t total = 0;
    for (int k = 0; k < kNumFaultKinds; ++k)
      total += metrics_.counter(std::string("faults.") +
                                fault_kind_name(static_cast<FaultKind>(k)))
                   .value();
    return total;
  }

  obs::MetricsRegistry metrics_;
  sim::Engine engine_;
  cluster::FatTree tree_;
  cluster::NetworkModel net_;
  cluster::LustreModel lustre_;
  telemetry::CounterStore store_;
  telemetry::CounterSampler sampler_;
};

TEST_F(InjectorTest, CrashDrainRestoreDriveNodeEventsAndDownSet) {
  FaultEvent crash = make_event(FaultKind::NodeCrash, 100.0);
  crash.node = 2;
  FaultEvent drain = make_event(FaultKind::NodeDrain, 200.0);
  drain.node = 5;
  FaultEvent restore = make_event(FaultKind::NodeRestore, 300.0);
  restore.node = 2;

  FaultInjector injector(engine_, plan_of({crash, drain, restore}));
  injector.set_obs(nullptr, &metrics_);
  std::vector<std::pair<FaultKind, cluster::NodeId>> seen;
  injector.subscribe_node_events(
      [&](const NodeFaultEvent& ev) { seen.emplace_back(ev.kind, ev.node); });
  injector.arm();

  EXPECT_FALSE(injector.node_down(2));
  engine_.run_until(150.0);
  EXPECT_TRUE(injector.node_down(2));
  EXPECT_FALSE(injector.node_down(5));
  engine_.run_until(250.0);
  EXPECT_TRUE(injector.node_down(5));
  engine_.run_until(350.0);
  EXPECT_FALSE(injector.node_down(2));  // restored
  EXPECT_TRUE(injector.node_down(5));   // drain had no duration: permanent

  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0], (std::pair{FaultKind::NodeCrash, cluster::NodeId{2}}));
  EXPECT_EQ(seen[1], (std::pair{FaultKind::NodeDrain, cluster::NodeId{5}}));
  EXPECT_EQ(seen[2], (std::pair{FaultKind::NodeRestore, cluster::NodeId{2}}));
  EXPECT_EQ(faults_fired(), 3u);
}

TEST_F(InjectorTest, BoundedCrashSynthesizesItsOwnRestore) {
  FaultEvent crash = make_event(FaultKind::NodeCrash, 100.0);
  crash.node = 1;
  crash.duration_s = 50.0;

  FaultInjector injector(engine_, plan_of({crash}));
  injector.set_obs(nullptr, &metrics_);
  injector.arm();
  engine_.run_until(120.0);
  EXPECT_TRUE(injector.node_down(1));
  engine_.run_until(160.0);
  EXPECT_FALSE(injector.node_down(1));
  EXPECT_EQ(faults_fired(), 2u);  // crash + synthesized restore
}

TEST_F(InjectorTest, DuplicateCrashAndOrphanRestoreAreIdempotent) {
  FaultEvent first = make_event(FaultKind::NodeCrash, 100.0);
  first.node = 3;
  FaultEvent again = make_event(FaultKind::NodeCrash, 110.0);
  again.node = 3;
  FaultEvent orphan = make_event(FaultKind::NodeRestore, 120.0);
  orphan.node = 6;  // never went down

  FaultInjector injector(engine_, plan_of({first, again, orphan}));
  injector.set_obs(nullptr, &metrics_);
  int events = 0;
  injector.subscribe_node_events([&](const NodeFaultEvent&) { ++events; });
  injector.arm();
  engine_.run_until(150.0);
  EXPECT_TRUE(injector.node_down(3));
  EXPECT_EQ(events, 1);  // duplicate crash and orphan restore notified nobody
  EXPECT_EQ(faults_fired(), 1u);
}

TEST_F(InjectorTest, LinkDegradeScalesUtilizationAndAutoRestores) {
  const cluster::LinkId uplink = tree_.edge_uplink(0);
  FaultEvent degrade = make_event(FaultKind::LinkDegrade, 100.0);
  degrade.link = uplink;
  degrade.factor = 0.5;
  degrade.duration_s = 100.0;

  FaultInjector injector(engine_, plan_of({degrade}));
  injector.attach_network(&net_);
  injector.arm();

  // Cross-edge traffic rides the degraded uplink.
  net_.add_source(1, {0, 4}, 4.0, cluster::TrafficPattern::AllToAll);
  const double util_before = net_.link_utilization(uplink);
  EXPECT_GT(util_before, 0.0);

  engine_.run_until(150.0);
  // Same load over half the capacity: utilization doubles exactly.
  EXPECT_DOUBLE_EQ(net_.link_utilization(uplink), 2.0 * util_before);

  engine_.run_until(250.0);
  EXPECT_DOUBLE_EQ(net_.link_utilization(uplink), util_before);
}

TEST_F(InjectorTest, SamplerDropoutLeavesAGapAndCountsFrames) {
  FaultEvent dropout = make_event(FaultKind::SamplerDropout, 100.0);
  dropout.duration_s = 65.0;  // swallows the 100s and 130s ticks (30s period)

  FaultInjector injector(engine_, plan_of({dropout}));
  injector.set_obs(nullptr, &metrics_);
  injector.attach_sampler(&sampler_);
  injector.arm();

  sampler_.start();  // frames at 0, 30, 60, ...
  engine_.run_until(200.0);
  sampler_.stop();

  // Ticks at 0,30,60,90,120,150,180 = 7; the 120 and 150 ticks are inside
  // [100, 165) and dropped.
  EXPECT_EQ(metrics_.counter("faults.frames_dropped").value(), 2u);
  EXPECT_EQ(store_.frame_count(), 5u);
  EXPECT_TRUE(injector.sampler_dropped_out(110.0));
  EXPECT_FALSE(injector.sampler_dropped_out(165.0));  // half-open window
  EXPECT_FALSE(injector.sampler_dropped_out(99.9));
}

TEST_F(InjectorTest, CounterCorruptionIsQuarantinedButDetectable) {
  FaultEvent corrupt = make_event(FaultKind::CounterCorrupt, 50.0);
  corrupt.node = 1;
  corrupt.duration_s = 40.0;

  FaultInjector injector(engine_, plan_of({corrupt}));
  injector.set_obs(nullptr, &metrics_);
  injector.attach_sampler(&sampler_);
  injector.arm();

  sampler_.start();
  engine_.run_until(130.0);
  sampler_.stop();

  // Ticks at 60 and 90 fall inside [50, 90): exactly the 60s frame plus
  // nothing else (90 is outside the half-open window).
  EXPECT_EQ(metrics_.counter("faults.frames_corrupted").value(), 1u);
  EXPECT_EQ(store_.corrupt_frames_in(0.0, 130.0), 1u);
  EXPECT_TRUE(injector.counters_corrupted(60.0));
  EXPECT_FALSE(injector.counters_corrupted(90.0));  // half-open window
  EXPECT_FALSE(injector.counters_corrupted(49.9));
  // Quarantine at ingest: nothing non-finite reaches aggregation.
  std::vector<telemetry::Agg> agg(store_.num_counters());
  store_.aggregate_all_into(0.0, 130.0, agg);
  for (const auto& a : agg) {
    EXPECT_TRUE(std::isfinite(a.min) && std::isfinite(a.max) && std::isfinite(a.mean));
  }
}

TEST_F(InjectorTest, CanaryWindowAnswersPointQueries) {
  FaultEvent timeout = make_event(FaultKind::CanaryTimeout, 500.0);
  timeout.duration_s = 100.0;

  FaultInjector injector(engine_, plan_of({timeout}));
  injector.arm();
  EXPECT_FALSE(injector.canary_timed_out(499.0));
  EXPECT_TRUE(injector.canary_timed_out(500.0));
  EXPECT_TRUE(injector.canary_timed_out(599.9));
  EXPECT_FALSE(injector.canary_timed_out(600.0));
}

TEST_F(InjectorTest, TraceAndMetricsRecordEveryFiredFault) {
  FaultEvent crash = make_event(FaultKind::NodeCrash, 10.0);
  crash.node = 0;
  crash.duration_s = 20.0;
  FaultEvent dropout = make_event(FaultKind::SamplerDropout, 40.0);
  dropout.duration_s = 10.0;

  std::ostringstream sink;
  obs::EventTrace trace(sink);
  obs::MetricsRegistry metrics;

  FaultInjector injector(engine_, plan_of({crash, dropout}));
  injector.set_obs(&trace, &metrics);
  injector.arm();
  engine_.run_until(100.0);
  trace.flush();

  const std::string out = sink.str();
  EXPECT_NE(out.find("\"ev\":\"fault_node_down\""), std::string::npos) << out;
  EXPECT_NE(out.find("\"ev\":\"fault_node_restore\""), std::string::npos) << out;
  EXPECT_NE(out.find("\"ev\":\"fault_sampler_dropout\""), std::string::npos) << out;
  EXPECT_NE(out.find("\"drain\":false"), std::string::npos) << out;

  EXPECT_EQ(metrics.counter("faults.node_crash").value(), 1u);
  EXPECT_EQ(metrics.counter("faults.node_restore").value(), 1u);
  EXPECT_EQ(metrics.counter("faults.sampler_dropout").value(), 1u);
  EXPECT_EQ(metrics.counter("faults.node_drain").value(), 0u);
}

TEST_F(InjectorTest, ArmTwiceAndInvalidPlansAreRejected) {
  FaultInjector injector(engine_, plan_of({}));
  injector.arm();
  EXPECT_THROW(injector.arm(), PreconditionError);

  FaultEvent bad = make_event(FaultKind::NodeCrash, 1.0);  // node missing
  EXPECT_THROW(FaultInjector(engine_, plan_of({bad})), ParseError);
}

}  // namespace
}  // namespace rush::faults
