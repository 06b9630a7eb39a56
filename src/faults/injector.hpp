// Deterministic fault injection over a live simulation.
//
// The injector arms a validated FaultPlan on the sim engine: each plan
// event becomes one timed engine event that mutates attached models
// (network link health, sampler frame hooks), notifies subscribers (the
// scheduler, for node crash/drain/restore), emits a `fault_*` trace
// record, and bumps a per-kind metrics counter. Window kinds (sampler
// dropout, counter corruption, canary timeout) additionally answer pure
// point-in-time queries that degraded-mode consumers poll.
//
// Determinism: the injector draws no randomness and, when no plan event
// fires, touches nothing — a run with an empty plan is byte-identical to
// a run with no injector at all.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "cluster/topology.hpp"
#include "faults/plan.hpp"
#include "sim/types.hpp"

namespace rush::cluster {
class NetworkModel;
}  // namespace rush::cluster
namespace rush::obs {
class Counter;
class EventTrace;
class MetricsRegistry;
}  // namespace rush::obs
namespace rush::sim {
class Engine;
}  // namespace rush::sim
namespace rush::telemetry {
class CounterSampler;
}  // namespace rush::telemetry

namespace rush::faults {

/// A node-scoped fault delivered to subscribers (the scheduler reacts by
/// excluding the node and requeueing its victims). `kind` is one of
/// NodeCrash, NodeDrain, NodeRestore.
struct NodeFaultEvent {
  FaultKind kind = FaultKind::NodeCrash;
  cluster::NodeId node = -1;
};

class FaultInjector {
 public:
  using NodeEventFn = std::function<void(const NodeFaultEvent&)>;

  /// Validates `plan`. The engine must outlive the injector.
  FaultInjector(sim::Engine& engine, FaultPlan plan);

  /// Observability sinks for fault records/counters. Either may be null
  /// (that side detaches).
  void set_obs(obs::EventTrace* trace, obs::MetricsRegistry* metrics);
  /// Network whose link health LinkDegrade/LinkRestore events drive.
  void attach_network(cluster::NetworkModel* net);  // rush-analyze: allow(missing-expects) null detaches
  /// Installs the sampler's fault hooks immediately (cleared on null).
  void attach_sampler(telemetry::CounterSampler* sampler);  // rush-analyze: allow(missing-expects) null detaches
  /// Register a node-fault listener; all listeners see every node event.
  void subscribe_node_events(NodeEventFn fn);

  /// Schedule every plan event on the engine. Call exactly once, before
  /// the simulation reaches the earliest event time.
  void arm();

  // --- point-in-time queries polled by degraded-mode consumers ---------
  /// Node currently crashed or drained out of service.
  [[nodiscard]] bool node_down(cluster::NodeId node) const noexcept;
  /// Inside a canary_timeout window: probes are lost, the oracle must
  /// not wait on them.
  [[nodiscard]] bool canary_timed_out(sim::Time now) const noexcept;
  /// Inside a sampler_dropout window: telemetry frames are being dropped.
  [[nodiscard]] bool sampler_dropped_out(sim::Time now) const noexcept;
  /// Inside a counter_corrupt window.
  [[nodiscard]] bool counters_corrupted(sim::Time now) const noexcept;

  [[nodiscard]] const FaultPlan& plan() const noexcept { return plan_; }
  /// Plan events (including synthesized auto-restores) fired so far.
  [[nodiscard]] std::uint64_t faults_fired() const noexcept { return faults_fired_; }
  [[nodiscard]] std::uint64_t frames_dropped() const noexcept { return frames_dropped_; }
  [[nodiscard]] std::uint64_t frames_corrupted() const noexcept { return frames_corrupted_; }

 private:
  /// Half-open [begin, end) outage window, plus the target node for
  /// counter corruption (-1 = every node).
  struct Window {
    sim::Time begin_s = 0.0;
    sim::Time end_s = 0.0;
    cluster::NodeId node = -1;
  };

  void fire(const FaultEvent& ev);
  void notify(FaultKind kind, cluster::NodeId node);
  void count_fault(FaultKind kind);
  [[nodiscard]] static bool in_window(const std::vector<Window>& windows, sim::Time now) noexcept;
  /// Sampler corrupt hook: NaNs out the targeted node's counters. An
  /// empty `values` (synthesis off) still counts the frame as corrupted.
  void corrupt_frame(sim::Time t, const cluster::NodeSet& nodes, std::span<float> values);
  [[nodiscard]] bool drop_frame(sim::Time t);

  sim::Engine& engine_;
  FaultPlan plan_;
  bool armed_ = false;

  std::vector<cluster::NodeId> down_;  // sorted set of out-of-service nodes
  std::vector<Window> dropout_;
  std::vector<Window> corrupt_;
  std::vector<Window> canary_;

  cluster::NetworkModel* net_ = nullptr;
  telemetry::CounterSampler* sampler_ = nullptr;
  std::vector<NodeEventFn> node_listeners_;

  obs::EventTrace* trace_ = nullptr;
  // Owned by the attached registry; one per FaultKind, in enum order.
  std::array<obs::Counter*, kNumFaultKinds> metric_kind_{};
  obs::Counter* metric_frames_dropped_ = nullptr;
  obs::Counter* metric_frames_corrupted_ = nullptr;

  std::uint64_t faults_fired_ = 0;
  std::uint64_t frames_dropped_ = 0;
  std::uint64_t frames_corrupted_ = 0;
};

}  // namespace rush::faults
