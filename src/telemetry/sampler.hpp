// Periodic counter sampler (the LDMS daemon stand-in).
//
// Every 30 s of simulated time it snapshots the network/filesystem
// state for each managed node, synthesizes the 90-counter frame, and
// appends it to the CounterStore. Sampling can be paused when no consumer
// needs data (the longitudinal collector fast-forwards between control
// jobs), which keeps multi-month simulations cheap. Synthesis can be
// switched off where nothing reads the store again (a trial arm with no
// oracle, or a RUSH arm past its last possible oracle read): a tick then
// still runs the fault hooks and records the worst link utilization and
// congestion episodes, but draws nothing from its private Rng and writes
// no frame, so every other stream and every trace record stays as it was.
#pragma once

#include <functional>
#include <span>

#include "cluster/lustre.hpp"
#include "cluster/network.hpp"
#include "common/rng.hpp"
#include "sim/types.hpp"
#include "telemetry/store.hpp"

namespace rush::obs {
class EventTrace;
class Histogram;
class MetricsRegistry;
}  // namespace rush::obs

namespace rush::telemetry {

class CounterSampler {
 public:
  CounterSampler(sim::Engine& engine, const cluster::NetworkModel& net,
                 const cluster::LustreModel& lustre, CounterStore& store, Rng rng);

  /// Begin periodic sampling; the first frame is captured immediately.
  void start();
  void stop();

  /// Capture one frame right now regardless of running state.
  void sample_now();

  /// Synthesize counter frames into the store (on by default). Off, a
  /// tick keeps everything but the values: both fault hooks, the
  /// worst-utilization histogram and congestion episodes.
  void set_synthesize(bool on) noexcept { synthesize_ = on; }

  /// Attach observability sinks: the per-tick worst-utilization
  /// histogram `telemetry.max_link_util` into `metrics`, max-congestion
  /// episode records into `trace`. Either may be null (that side
  /// detaches), so all inputs are valid.
  void set_obs(obs::EventTrace* trace, obs::MetricsRegistry* metrics);

  /// Fault-injection hooks (installed by faults::FaultInjector). The
  /// drop filter runs before a frame is synthesized: returning true
  /// discards the whole tick — the daemon was down, so no values are
  /// synthesized (no RNG draws) and the store gets a gap. The corrupt
  /// mutator runs on the synthesized node-major values just before they
  /// reach the store; with synthesis off it gets an empty span. Either
  /// hook may be empty (that hook detaches).
  using FrameDropFilter = std::function<bool(sim::Time)>;
  using FrameCorruptFn = std::function<void(sim::Time, const cluster::NodeSet&, std::span<float>)>;
  void set_fault_hooks(FrameDropFilter drop, FrameCorruptFn corrupt);

 private:
  sim::Engine& engine_;
  const cluster::NetworkModel& net_;
  const cluster::LustreModel& lustre_;
  CounterStore& store_;
  Rng rng_;
  sim::EventId task_ = 0;
  bool running_ = false;
  bool synthesize_ = true;
  std::vector<float> scratch_;
  FrameDropFilter drop_filter_;
  FrameCorruptFn corrupt_fn_;

  obs::EventTrace* trace_ = nullptr;
  obs::Histogram* metric_worst_util_ = nullptr;  // owned by the registry
  // Episode tracking across frames (see kEpisodeUtilThreshold in sampler.cpp).
  bool in_episode_ = false;
  double episode_start_s_ = 0.0;
  double episode_peak_ = 0.0;
  cluster::LinkId episode_link_ = -1;
};

}  // namespace rush::telemetry
