#include "faults/injector.hpp"

#include <algorithm>
#include <limits>
#include <string>
#include <utility>

#include "cluster/network.hpp"
#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/engine.hpp"
#include "telemetry/sampler.hpp"

namespace rush::faults {

FaultInjector::FaultInjector(sim::Engine& engine, FaultPlan plan)
    : engine_(engine), plan_(std::move(plan)) {
  plan_.validate();
  // Window kinds answer point-in-time queries; precompute their spans so
  // a query is a scan over a handful of plan entries, never engine state.
  for (const FaultEvent& ev : plan_.events) {
    const Window w{ev.at_s, ev.at_s + ev.duration_s, ev.node};
    switch (ev.kind) {
      case FaultKind::SamplerDropout: dropout_.push_back(w); break;
      case FaultKind::CounterCorrupt: corrupt_.push_back(w); break;
      case FaultKind::CanaryTimeout: canary_.push_back(w); break;
      default: break;
    }
  }
}

void FaultInjector::set_obs(obs::EventTrace* trace, obs::MetricsRegistry* metrics) {
  trace_ = trace;
  for (int k = 0; k < kNumFaultKinds; ++k) {
    metric_kind_[static_cast<std::size_t>(k)] =
        metrics ? &metrics->counter(std::string("faults.") +
                                    fault_kind_name(static_cast<FaultKind>(k)))
                : nullptr;
  }
  metric_frames_dropped_ = metrics ? &metrics->counter("faults.frames_dropped") : nullptr;
  metric_frames_corrupted_ = metrics ? &metrics->counter("faults.frames_corrupted") : nullptr;
}

void FaultInjector::attach_network(cluster::NetworkModel* net) { net_ = net; }

void FaultInjector::attach_sampler(telemetry::CounterSampler* sampler) {
  if (sampler_ != nullptr && sampler_ != sampler) sampler_->set_fault_hooks({}, {});
  sampler_ = sampler;
  if (sampler_ == nullptr) return;
  sampler_->set_fault_hooks(
      [this](sim::Time t) { return drop_frame(t); },
      [this](sim::Time t, const cluster::NodeSet& nodes, std::span<float> values) {
        corrupt_frame(t, nodes, values);
      });
}

void FaultInjector::subscribe_node_events(NodeEventFn fn) {
  RUSH_EXPECTS(fn != nullptr);
  node_listeners_.push_back(std::move(fn));
}

void FaultInjector::arm() {
  RUSH_EXPECTS(!armed_);
  armed_ = true;
  for (const FaultEvent& ev : plan_.events) {
    RUSH_EXPECTS(ev.at_s >= engine_.now());
    engine_.schedule_at(ev.at_s, [this, ev] { fire(ev); });
    // A bounded crash/drain/degrade carries its own recovery: synthesize
    // the matching restore event so plans stay one line per incident.
    const bool restorable = ev.kind == FaultKind::NodeCrash || ev.kind == FaultKind::NodeDrain ||
                            ev.kind == FaultKind::LinkDegrade;
    if (restorable && ev.duration_s > 0.0) {
      FaultEvent restore;
      restore.kind =
          ev.kind == FaultKind::LinkDegrade ? FaultKind::LinkRestore : FaultKind::NodeRestore;
      restore.at_s = ev.at_s + ev.duration_s;
      restore.node = ev.node;
      restore.link = ev.link;
      engine_.schedule_at(restore.at_s, [this, restore] { fire(restore); });
    }
  }
}

void FaultInjector::fire(const FaultEvent& ev) {
  const sim::Time now_s = engine_.now();
  switch (ev.kind) {
    case FaultKind::NodeCrash:
    case FaultKind::NodeDrain: {
      const auto it = std::lower_bound(down_.begin(), down_.end(), ev.node);
      if (it != down_.end() && *it == ev.node) return;  // already out of service
      down_.insert(it, ev.node);
      count_fault(ev.kind);
      if (trace_ != nullptr)
        trace_->emit_fault_node_down(now_s, ev.node, ev.kind == FaultKind::NodeDrain,
                                     ev.duration_s);
      notify(ev.kind, ev.node);
      return;
    }
    case FaultKind::NodeRestore: {
      const auto it = std::lower_bound(down_.begin(), down_.end(), ev.node);
      if (it == down_.end() || *it != ev.node) return;  // never went down
      down_.erase(it);
      count_fault(ev.kind);
      if (trace_ != nullptr) trace_->emit_fault_node_restore(now_s, ev.node);
      notify(ev.kind, ev.node);
      return;
    }
    case FaultKind::LinkDegrade: {
      if (net_ != nullptr) net_->set_link_health(ev.link, ev.factor);
      count_fault(ev.kind);
      if (trace_ != nullptr)
        trace_->emit_fault_link_degrade(now_s, ev.link, ev.factor, ev.duration_s);
      return;
    }
    case FaultKind::LinkRestore: {
      if (net_ != nullptr) net_->set_link_health(ev.link, 1.0);
      count_fault(ev.kind);
      if (trace_ != nullptr) trace_->emit_fault_link_restore(now_s, ev.link);
      return;
    }
    case FaultKind::SamplerDropout:
    case FaultKind::CounterCorrupt:
    case FaultKind::CanaryTimeout: {
      // Window kinds act through the precomputed spans (sampler hooks and
      // oracle queries); the fired event is their observable start marker.
      count_fault(ev.kind);
      if (trace_ != nullptr)
        trace_->emit_fault_window(now_s, fault_kind_name(ev.kind), ev.node,
                                  ev.at_s + ev.duration_s);
      return;
    }
  }
}

void FaultInjector::notify(FaultKind kind, cluster::NodeId node) {
  const NodeFaultEvent ev{kind, node};
  for (const NodeEventFn& fn : node_listeners_) fn(ev);
}

void FaultInjector::count_fault(FaultKind kind) {
  ++faults_fired_;
  obs::Counter* metric = metric_kind_[static_cast<std::size_t>(kind)];
  if (metric != nullptr) metric->inc();
}

bool FaultInjector::in_window(const std::vector<Window>& windows, sim::Time now) noexcept {
  for (const Window& w : windows)
    if (now >= w.begin_s && now < w.end_s) return true;
  return false;
}

bool FaultInjector::node_down(cluster::NodeId node) const noexcept {
  return std::binary_search(down_.begin(), down_.end(), node);
}

bool FaultInjector::canary_timed_out(sim::Time now) const noexcept {
  return in_window(canary_, now);
}

bool FaultInjector::sampler_dropped_out(sim::Time now) const noexcept {
  return in_window(dropout_, now);
}

bool FaultInjector::counters_corrupted(sim::Time now) const noexcept {
  return in_window(corrupt_, now);
}

bool FaultInjector::drop_frame(sim::Time t) {
  if (!in_window(dropout_, t)) return false;
  ++frames_dropped_;
  if (metric_frames_dropped_ != nullptr) metric_frames_dropped_->inc();
  return true;
}

void FaultInjector::corrupt_frame(sim::Time t, const cluster::NodeSet& nodes,
                                  std::span<float> values) {
  // Whether the frame is touched depends on (t, nodes) alone; NaNs are
  // written only into values the sampler synthesized.
  if (nodes.empty() || !in_window(corrupt_, t)) return;
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const std::size_t per_node = values.size() / nodes.size();
  bool touched = false;
  for (const Window& w : corrupt_) {
    if (t < w.begin_s || t >= w.end_s) continue;
    if (w.node < 0) {
      std::fill(values.begin(), values.end(), nan);
      touched = true;
      continue;
    }
    const auto it = std::lower_bound(nodes.begin(), nodes.end(), w.node);
    if (it == nodes.end() || *it != w.node) continue;
    const auto idx = static_cast<std::size_t>(it - nodes.begin());
    std::fill_n(values.begin() + static_cast<std::ptrdiff_t>(idx * per_node), per_node, nan);
    touched = true;
  }
  if (!touched) return;
  ++frames_corrupted_;
  if (metric_frames_corrupted_ != nullptr) metric_frames_corrupted_->inc();
}

}  // namespace rush::faults
