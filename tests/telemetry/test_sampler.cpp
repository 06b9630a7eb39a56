// CounterSampler over a trial's stage: the bits of every synthesized
// counter value, pinned by a golden digest, how many frames the store
// keeps, and what a tick still records when nothing reads its frames.
#include "telemetry/sampler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/environment.hpp"
#include "faults/injector.hpp"
#include "faults/plan.hpp"
#include "golden.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "telemetry/store.hpp"

namespace rush::telemetry {
namespace {

constexpr double kPeriodS = 30.0;
/// Frames the environment's store keeps at steady state: its horizon is
/// the 300 s feature window, which holds 11 ticks, both ends included.
constexpr std::size_t kWindowFrames = 11;
/// 48 ticks: far past the window, so eviction runs.
constexpr int kTicks = 48;

faults::FaultEvent window(faults::FaultKind kind, sim::Time at_s, double duration_s,
                          cluster::NodeId node = -1) {
  faults::FaultEvent ev;
  ev.kind = kind;
  ev.at_s = at_s;
  ev.duration_s = duration_s;
  ev.node = node;
  return ev;
}

cluster::NodeSet slice(const cluster::NodeSet& pod, std::size_t first, std::size_t count) {
  return {pod.begin() + static_cast<std::ptrdiff_t>(first),
          pod.begin() + static_cast<std::ptrdiff_t>(first + count)};
}

/// A paired trial's stage (512-node pod, background load, noise job) plus
/// three Lustre clients with distinct read fractions on overlapping nodes,
/// whose demand changes mid-run, and a network source that pushes two
/// edge uplinks past the congestion-episode threshold and back.
struct Rig {
  static constexpr cluster::NodeId kCorruptNode = 37;

  explicit Rig(std::vector<faults::FaultEvent> events)
      : env(core::single_pod_config(11)), stage(env),
        injector(env.engine(), faults::FaultPlan{std::move(events)}) {
    const cluster::NodeSet pod = env.pod_nodes();
    cluster::LustreModel& fs = env.lustre();
    fs.add_client(901, slice(pod, 0, 64), 1.5, 0.2);
    fs.add_client(902, slice(pod, 32, 64), 2.0, 0.65);
    cluster::NodeSet third = slice(pod, 64, 16);
    const cluster::NodeSet far = slice(pod, 200, 16);
    third.insert(third.end(), far.begin(), far.end());
    fs.add_client(903, third, 3.0, 0.9);

    cluster::NodeSet hot = slice(pod, 0, 8);
    const cluster::NodeSet next_edge = slice(pod, 32, 8);
    hot.insert(hot.end(), next_edge.begin(), next_edge.end());
    cluster::NetworkModel& net = env.network();
    net.add_source(905, hot, 0.5);

    sim::Engine& engine = env.engine();
    engine.schedule_at(200.0, [&net] { net.set_rate(905, 10.0); });
    engine.schedule_at(400.0, [&fs] { fs.set_rate(902, 6.0); });
    engine.schedule_at(500.0, [&net] { net.set_rate(905, 0.5); });
    engine.schedule_at(550.0, [&fs, pod] { fs.add_client(904, slice(pod, 100, 32), 4.0, 0.4); });
    engine.schedule_at(700.0, [&fs] { fs.remove_client(901); });
    engine.schedule_at(800.0, [&net] { net.set_rate(905, 10.0); });
    engine.schedule_at(1000.0, [&fs] { fs.set_ambient_demand(300.0); });
    engine.schedule_at(1100.0, [&net] { net.set_rate(905, 0.5); });

    injector.attach_sampler(&env.sampler());
    injector.arm();
  }

  void start() {
    env.background().start();
    env.sampler().start();
    stage.noise().start();
  }

  core::Environment env;
  core::NoisyPod stage;
  faults::FaultInjector injector;
};

/// Node 37's readings go NaN over the 300..390 s ticks, every node's at
/// the 900 s tick.
std::vector<faults::FaultEvent> corrupt_windows() {
  return {window(faults::FaultKind::CounterCorrupt, 300.0, 100.0, Rig::kCorruptNode),
          window(faults::FaultKind::CounterCorrupt, 900.0, 30.0)};
}

TEST(Sampler, FrameBitsKeepTheirGoldenDigest) {
  Rig rig(corrupt_windows());
  obs::MetricsRegistry metrics;
  rig.injector.set_obs(nullptr, &metrics);
  rig.start();
  const CounterStore& store = rig.env.store();
  const cluster::NodeSet& nodes = store.managed_nodes();
  const std::size_t counters = store.num_counters();

  std::string tick_digests;
  std::vector<double> values;
  std::vector<Agg> aggs(counters);
  for (int k = 0; k < kTicks; ++k) {
    const double t = k * kPeriodS;
    rig.env.engine().run_until(t);
    ASSERT_EQ(store.latest_time(), t);
    values.clear();
    for (const cluster::NodeId node : nodes)
      for (std::size_t c = 0; c < counters; ++c) values.push_back(store.latest(node, c));
    // The per-frame aggregates and prefix sums behind the window queries.
    const double t0 = t - 5 * kPeriodS;
    store.aggregate_all_into(t0, t, aggs);
    for (const Agg& a : aggs) {
      values.push_back(a.min);
      values.push_back(a.max);
      values.push_back(a.mean);
    }
    values.push_back(static_cast<double>(store.corrupt_frames_in(t0, t)));
    const std::uint64_t digest = golden::fnv1a(golden::bytes_of(values));
    tick_digests.append(reinterpret_cast<const char*>(&digest), sizeof digest);
    // Retention is not in the digest: the store holds the window's frames.
    EXPECT_EQ(store.frame_count(), std::min(static_cast<std::size_t>(k) + 1, kWindowFrames));

    if (t == 330.0 || t == 900.0) {
      // Quarantined at ingest: stored as 0 and counted on the frame.
      EXPECT_EQ(store.corrupt_frames_in(t, t), 1u);
      EXPECT_EQ(store.latest(Rig::kCorruptNode, 0), 0.0);
    }
  }
  EXPECT_EQ(metrics.counter("faults.frames_corrupted").value(), 5u);
  EXPECT_EQ(golden::hex(golden::fnv1a(tick_digests)), golden::hex(0x72c461b446c3a397ULL));
}

/// What a traced run of the rig shows besides its frames, under both
/// corrupt windows and a dropout over the 600..660 s ticks.
struct Observed {
  std::string trace;
  std::string metrics;
  std::uint64_t util_count = 0;
  double util_mean = 0.0;
  std::uint64_t frames_dropped = 0;
  std::uint64_t frames_corrupted = 0;
  std::size_t frames_stored = 0;
};

Observed observe(bool synthesize) {
  std::ostringstream sink;
  obs::EventTrace trace(sink);
  obs::MetricsRegistry metrics;
  std::vector<faults::FaultEvent> events = corrupt_windows();
  events.push_back(window(faults::FaultKind::SamplerDropout, 600.0, 90.0));
  Rig rig(std::move(events));
  rig.env.attach_obs(&trace, &metrics);
  rig.injector.set_obs(&trace, &metrics);
  rig.env.sampler().set_synthesize(synthesize);
  rig.start();
  rig.env.engine().run_until((kTicks - 1) * kPeriodS);
  trace.flush();

  Observed out;
  out.trace = sink.str();
  out.metrics = metrics.snapshot_json();
  const obs::Histogram& util = metrics.histogram("telemetry.max_link_util", 0.0, 2.0, 40);
  out.util_count = util.count();
  out.util_mean = util.mean();
  out.frames_dropped = metrics.counter("faults.frames_dropped").value();
  out.frames_corrupted = metrics.counter("faults.frames_corrupted").value();
  out.frames_stored = rig.env.store().frame_count();
  return out;
}

TEST(Sampler, UnsynthesizedTicksKeepEverythingButTheFrames) {
  const Observed on = observe(true);
  const Observed off = observe(false);
  EXPECT_NE(on.trace.find("\"congestion\""), std::string::npos) << on.trace;
  EXPECT_EQ(on.util_count, static_cast<std::uint64_t>(kTicks - 3));
  EXPECT_EQ(on.frames_dropped, 3u);
  EXPECT_EQ(on.frames_corrupted, 5u);
  EXPECT_EQ(on.frames_stored, kWindowFrames);

  EXPECT_EQ(off.trace, on.trace);
  EXPECT_EQ(off.metrics, on.metrics);
  EXPECT_EQ(off.util_count, on.util_count);
  EXPECT_EQ(off.util_mean, on.util_mean);
  EXPECT_EQ(off.frames_dropped, on.frames_dropped);
  EXPECT_EQ(off.frames_corrupted, on.frames_corrupted);
  EXPECT_EQ(off.frames_stored, 0u);
}

}  // namespace
}  // namespace rush::telemetry
