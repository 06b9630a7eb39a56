// Counter schema mirroring Table I of the paper.
//
// Three LDMS-style counter tables are synthesized per node:
//   sysclassib    — 22 InfiniBand endpoint counters
//   opa_info      — 34 Omni-Path switch counters
//   lustre_client — 34 Lustre client metrics
//
// Real LDMS counters are measurements of hidden congestion state; here
// each counter is a deterministic function (plus jitter) of the simulated
// state that *causes* slowdowns (link loads, filesystem pressure), so the
// statistical coupling the paper's ML models learn is preserved.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"

namespace rush::telemetry {

enum class CounterTable : std::uint8_t { SysClassIb, OpaInfo, LustreClient };

/// What simulated signal a counter is derived from.
enum class SignalKind : std::uint8_t {
  NodeXmit,    // node access-link transmit rate (GB/s)
  NodeRecv,    // node access-link receive rate (GB/s)
  EdgeUtil,    // utilization of the node's edge uplink [0, ~2]
  PodUtil,     // utilization of the node's pod uplink
  EdgeWait,    // congestion indicator: max(0, edge_util - knee)
  IoRead,      // achieved Lustre read rate on the node (GB/s)
  IoWrite,     // achieved Lustre write rate on the node (GB/s)
  IoPressure,  // filesystem oversubscription - 1 (>= 0)
  ErrorRate,   // rare errors, rate grows with edge utilization
  Constant,    // mostly-static counter (pure noise floor)
};
inline constexpr std::size_t kNumSignalKinds = static_cast<std::size_t>(SignalKind::Constant) + 1;

struct CounterDef {
  CounterTable table;
  const char* name;
  SignalKind kind;
  double gain;   // scales the signal into counter units
  double base;   // additive offset
  double noise;  // relative jitter (stddev as a fraction of the value)
};

/// The full 90-counter schema (22 + 34 + 34), fixed order.
std::span<const CounterDef> counter_schema() noexcept;

std::size_t num_counters() noexcept;
std::size_t counters_in_table(CounterTable table) noexcept;
std::string qualified_name(const CounterDef& def);

/// Per-node signal snapshot the sampler extracts once per node per tick.
struct NodeSignals {
  double xmit_gbps = 0.0;
  double recv_gbps = 0.0;
  double edge_util = 0.0;
  double pod_util = 0.0;
  double io_read_gbps = 0.0;
  double io_write_gbps = 0.0;
  double io_pressure = 0.0;
};

/// What each SignalKind reads from one node's signals, indexed by kind.
/// ErrorRate holds the event-rate multiplier (0.2 + edge utilization).
using KindSignals = std::array<double, kNumSignalKinds>;
[[nodiscard]] KindSignals kind_signals(const NodeSignals& signals) noexcept;

/// Synthesize one counter value from its kind's signal. The sampler walks
/// the schema with this step once per node per tick, so it is inline.
inline double synth_step(const CounterDef& def, const KindSignals& signals, Rng& rng) noexcept {
  const double signal = signals[static_cast<std::size_t>(def.kind)];
  // Rare integer events; rate rises mildly with congestion.
  if (def.kind == SignalKind::ErrorRate)
    return static_cast<double>(rng.poisson(def.gain * 0.02 * signal));
  const double clean = def.base + def.gain * signal;
  const double jitter = 1.0 + def.noise * rng.normal();
  return std::max(0.0, clean * jitter);
}

/// Synthesize one counter value from the node's signals.
double synth_value(const CounterDef& def, const NodeSignals& signals, Rng& rng) noexcept;

}  // namespace rush::telemetry
