#include "telemetry/sampler.hpp"

#include <utility>

#include "common/error.hpp"
#include "sim/engine.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "telemetry/schema.hpp"

namespace rush::telemetry {

namespace {
constexpr double kPeriodS = 30.0;
/// A max-congestion episode starts when the worst fabric-link
/// utilization seen by a frame crosses this and ends when it falls back
/// below; episode records go to the attached EventTrace.
constexpr double kEpisodeUtilThreshold = 0.9;
}  // namespace

CounterSampler::CounterSampler(sim::Engine& engine, const cluster::NetworkModel& net,
                               const cluster::LustreModel& lustre, CounterStore& store, Rng rng)
    : engine_(engine), net_(net), lustre_(lustre), store_(store), rng_(rng) {
  RUSH_EXPECTS(store_.num_counters() == num_counters());
  scratch_.resize(store_.managed_nodes().size() * store_.num_counters());
}

void CounterSampler::start() {
  if (running_) return;
  running_ = true;
  task_ = engine_.schedule_periodic(engine_.now(), kPeriodS, [this] { sample_now(); });
}

void CounterSampler::stop() {
  if (!running_) return;
  running_ = false;
  engine_.cancel(task_);
}

void CounterSampler::set_obs(obs::EventTrace* trace, obs::MetricsRegistry* metrics) {
  trace_ = trace;
  metric_worst_util_ =
      metrics ? &metrics->histogram("telemetry.max_link_util", 0.0, 2.0, 40) : nullptr;
}

void CounterSampler::set_fault_hooks(FrameDropFilter drop, FrameCorruptFn corrupt) {
  drop_filter_ = std::move(drop);
  corrupt_fn_ = std::move(corrupt);
}

void CounterSampler::sample_now() {
  const sim::Time now_s = engine_.now();
  // A dropped frame never synthesizes: the daemon was down, so its RNG
  // draws never happen and the store keeps a gap for this tick.
  if (drop_filter_ && drop_filter_(now_s)) return;
  const auto schema = counter_schema();
  const auto& tree = net_.tree();
  const auto& nodes = store_.managed_nodes();
  const double io_pressure = synthesize_ ? lustre_.slowdown() - 1.0 : 0.0;

  // Worst fabric utilization this frame and the link responsible — the
  // signal behind max-congestion episode records.
  double worst_util = 0.0;
  cluster::LinkId worst_link = -1;

  float* out = scratch_.data();
  for (cluster::NodeId node : nodes) {
    NodeSignals s;
    const cluster::LinkId edge_link = tree.edge_uplink(tree.edge_of(node));
    const cluster::LinkId pod_link = tree.pod_uplink(tree.pod_of(node));
    s.edge_util = net_.link_utilization(edge_link);
    s.pod_util = net_.link_utilization(pod_link);
    if (s.edge_util > worst_util) {
      worst_util = s.edge_util;
      worst_link = edge_link;
    }
    if (s.pod_util > worst_util) {
      worst_util = s.pod_util;
      worst_link = pod_link;
    }
    if (!synthesize_) continue;
    s.xmit_gbps = net_.node_xmit_gbps(node);
    s.recv_gbps = net_.node_recv_gbps(node);
    s.io_read_gbps = lustre_.node_read_gbps(node);
    s.io_write_gbps = lustre_.node_write_gbps(node);
    s.io_pressure = io_pressure;
    const KindSignals signals = kind_signals(s);
    for (const CounterDef& def : schema)
      *out++ = static_cast<float>(synth_step(def, signals, rng_));
  }
  // An unsynthesized tick hands the corrupt hook no values, so the hook
  // still counts the frame it would have corrupted.
  const std::span<float> values = synthesize_ ? std::span<float>(scratch_) : std::span<float>();
  if (corrupt_fn_) corrupt_fn_(now_s, nodes, values);
  if (synthesize_) store_.add_frame(now_s, values);

  if (metric_worst_util_) metric_worst_util_->record(worst_util);
  if (in_episode_) {
    if (worst_util > episode_peak_) {
      episode_peak_ = worst_util;
      episode_link_ = worst_link;
    }
    if (worst_util < kEpisodeUtilThreshold) {
      if (trace_)
        trace_->emit_congestion_episode(now_s, episode_start_s_, episode_link_, episode_peak_);
      in_episode_ = false;
    }
  } else if (worst_util >= kEpisodeUtilThreshold) {
    in_episode_ = true;
    episode_start_s_ = now_s;
    episode_peak_ = worst_util;
    episode_link_ = worst_link;
  }
}

}  // namespace rush::telemetry
