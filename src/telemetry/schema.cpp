#include "telemetry/schema.hpp"

#include <algorithm>
#include <array>
#include <cmath>

namespace rush::telemetry {

namespace {

using T = CounterTable;
using K = SignalKind;

// 22 sysclassib + 34 opa_info + 34 lustre_client = 90 counters.
// Gains put values in plausible native units (bytes, packets, calls).
constexpr std::array<CounterDef, 90> kSchema = {{
    // --- sysclassib: InfiniBand endpoint counters (22) ---
    {T::SysClassIb, "port_xmit_data", K::NodeXmit, 1.0e9, 0.0, 0.02},
    {T::SysClassIb, "port_rcv_data", K::NodeRecv, 1.0e9, 0.0, 0.02},
    {T::SysClassIb, "port_xmit_packets", K::NodeXmit, 2.5e5, 10.0, 0.03},
    {T::SysClassIb, "port_rcv_packets", K::NodeRecv, 2.5e5, 10.0, 0.03},
    {T::SysClassIb, "port_xmit_wait", K::EdgeWait, 5.0e6, 0.0, 0.10},
    {T::SysClassIb, "port_xmit_discards", K::EdgeWait, 1.0e3, 0.0, 0.25},
    {T::SysClassIb, "port_rcv_errors", K::ErrorRate, 20.0, 0.0, 0.5},
    {T::SysClassIb, "unicast_xmit_packets", K::NodeXmit, 2.0e5, 5.0, 0.03},
    {T::SysClassIb, "unicast_rcv_packets", K::NodeRecv, 2.0e5, 5.0, 0.03},
    {T::SysClassIb, "multicast_xmit_packets", K::NodeXmit, 5.0e3, 1.0, 0.10},
    {T::SysClassIb, "multicast_rcv_packets", K::NodeRecv, 5.0e3, 1.0, 0.10},
    {T::SysClassIb, "symbol_error", K::ErrorRate, 2.0, 0.0, 0.8},
    {T::SysClassIb, "link_error_recovery", K::ErrorRate, 0.5, 0.0, 1.0},
    {T::SysClassIb, "link_downed", K::Constant, 0.0, 0.01, 1.0},
    {T::SysClassIb, "port_rcv_remote_physical_errors", K::ErrorRate, 1.0, 0.0, 0.9},
    {T::SysClassIb, "port_rcv_switch_relay_errors", K::EdgeWait, 50.0, 0.0, 0.4},
    {T::SysClassIb, "VL15_dropped", K::EdgeWait, 10.0, 0.0, 0.5},
    {T::SysClassIb, "excessive_buffer_overrun_errors", K::EdgeWait, 5.0, 0.0, 0.6},
    {T::SysClassIb, "local_link_integrity_errors", K::ErrorRate, 0.8, 0.0, 1.0},
    {T::SysClassIb, "port_rcv_constraint_errors", K::Constant, 0.0, 0.02, 1.0},
    {T::SysClassIb, "port_xmit_constraint_errors", K::Constant, 0.0, 0.02, 1.0},
    {T::SysClassIb, "link_integrity_errors", K::ErrorRate, 0.6, 0.0, 1.0},

    // --- opa_info: Omni-Path switch counters (34) ---
    {T::OpaInfo, "portXmitData", K::EdgeUtil, 8.0e9, 0.0, 0.02},
    {T::OpaInfo, "portRcvData", K::EdgeUtil, 8.0e9, 0.0, 0.02},
    {T::OpaInfo, "portXmitPkts", K::EdgeUtil, 2.0e6, 20.0, 0.03},
    {T::OpaInfo, "portRcvPkts", K::EdgeUtil, 2.0e6, 20.0, 0.03},
    {T::OpaInfo, "portMulticastXmitPkts", K::EdgeUtil, 1.0e4, 2.0, 0.15},
    {T::OpaInfo, "portMulticastRcvPkts", K::EdgeUtil, 1.0e4, 2.0, 0.15},
    {T::OpaInfo, "linkErrorRecovery", K::ErrorRate, 0.5, 0.0, 1.0},
    {T::OpaInfo, "linkDowned", K::Constant, 0.0, 0.01, 1.0},
    {T::OpaInfo, "portRcvErrors", K::ErrorRate, 15.0, 0.0, 0.5},
    {T::OpaInfo, "portRcvRemotePhysicalErrors", K::ErrorRate, 1.0, 0.0, 0.9},
    {T::OpaInfo, "portRcvSwitchRelayErrors", K::EdgeWait, 40.0, 0.0, 0.4},
    {T::OpaInfo, "portXmitDiscards", K::EdgeWait, 800.0, 0.0, 0.3},
    {T::OpaInfo, "portXmitConstraintErrors", K::Constant, 0.0, 0.02, 1.0},
    {T::OpaInfo, "portRcvConstraintErrors", K::Constant, 0.0, 0.02, 1.0},
    {T::OpaInfo, "localLinkIntegrityErrors", K::ErrorRate, 0.7, 0.0, 1.0},
    {T::OpaInfo, "excessiveBufferOverrunErrors", K::EdgeWait, 4.0, 0.0, 0.6},
    {T::OpaInfo, "fmConfigErrors", K::Constant, 0.0, 0.01, 1.0},
    {T::OpaInfo, "portXmitWait", K::EdgeWait, 8.0e6, 0.0, 0.08},
    {T::OpaInfo, "swPortCongestion", K::EdgeWait, 2.0e5, 0.0, 0.12},
    {T::OpaInfo, "portRcvFECN", K::EdgeWait, 5.0e3, 0.0, 0.2},
    {T::OpaInfo, "portRcvBECN", K::EdgeWait, 5.0e3, 0.0, 0.2},
    {T::OpaInfo, "portXmitTimeCong", K::EdgeWait, 1.0e6, 0.0, 0.15},
    {T::OpaInfo, "portXmitWastedBW", K::EdgeWait, 3.0e5, 0.0, 0.2},
    {T::OpaInfo, "portXmitWaitData", K::EdgeWait, 6.0e6, 0.0, 0.1},
    {T::OpaInfo, "portRcvBubble", K::EdgeUtil, 1.0e5, 0.0, 0.2},
    {T::OpaInfo, "portMarkFECN", K::EdgeWait, 2.0e3, 0.0, 0.3},
    {T::OpaInfo, "uncorrectableErrors", K::ErrorRate, 0.3, 0.0, 1.2},
    {T::OpaInfo, "linkQualityIndicator", K::Constant, 0.0, 5.0, 0.01},
    {T::OpaInfo, "rcvRateGbps", K::PodUtil, 400.0, 0.0, 0.05},
    {T::OpaInfo, "xmitRateGbps", K::PodUtil, 400.0, 0.0, 0.05},
    {T::OpaInfo, "bufferOccupancy", K::EdgeUtil, 100.0, 2.0, 0.1},
    {T::OpaInfo, "creditReturnDelay", K::EdgeWait, 5.0e4, 10.0, 0.15},
    {T::OpaInfo, "vlArbHeadBlocked", K::EdgeWait, 1.0e3, 0.0, 0.25},
    {T::OpaInfo, "adaptiveRoutingEvents", K::PodUtil, 500.0, 0.0, 0.3},

    // --- lustre_client: Lustre client metrics (34) ---
    {T::LustreClient, "open", K::IoRead, 2.0e3, 5.0, 0.2},
    {T::LustreClient, "close", K::IoRead, 2.0e3, 5.0, 0.2},
    {T::LustreClient, "mknod", K::Constant, 0.0, 0.5, 0.8},
    {T::LustreClient, "link", K::Constant, 0.0, 0.2, 1.0},
    {T::LustreClient, "unlink", K::IoWrite, 100.0, 0.5, 0.5},
    {T::LustreClient, "mkdir", K::Constant, 0.0, 0.3, 1.0},
    {T::LustreClient, "rmdir", K::Constant, 0.0, 0.2, 1.0},
    {T::LustreClient, "rename", K::Constant, 0.0, 0.3, 1.0},
    {T::LustreClient, "getattr", K::IoRead, 5.0e3, 20.0, 0.2},
    {T::LustreClient, "setattr", K::IoWrite, 500.0, 2.0, 0.3},
    {T::LustreClient, "getxattr", K::IoRead, 1.0e3, 5.0, 0.3},
    {T::LustreClient, "setxattr", K::Constant, 0.0, 0.5, 1.0},
    {T::LustreClient, "statfs", K::Constant, 0.0, 1.0, 0.5},
    {T::LustreClient, "sync", K::IoWrite, 50.0, 0.2, 0.5},
    {T::LustreClient, "read_calls", K::IoRead, 1.0e5, 10.0, 0.05},
    {T::LustreClient, "write_calls", K::IoWrite, 1.0e5, 10.0, 0.05},
    {T::LustreClient, "read_bytes", K::IoRead, 1.0e9, 0.0, 0.03},
    {T::LustreClient, "write_bytes", K::IoWrite, 1.0e9, 0.0, 0.03},
    {T::LustreClient, "osc_read_calls", K::IoRead, 8.0e4, 5.0, 0.05},
    {T::LustreClient, "osc_read_bytes", K::IoRead, 9.5e8, 0.0, 0.03},
    {T::LustreClient, "osc_write_calls", K::IoWrite, 8.0e4, 5.0, 0.05},
    {T::LustreClient, "osc_write_bytes", K::IoWrite, 9.5e8, 0.0, 0.03},
    {T::LustreClient, "dirty_pages_hits", K::IoWrite, 5.0e4, 100.0, 0.1},
    {T::LustreClient, "dirty_pages_misses", K::IoPressure, 2.0e4, 10.0, 0.2},
    {T::LustreClient, "ioctl", K::Constant, 0.0, 2.0, 0.5},
    {T::LustreClient, "fsync", K::IoWrite, 30.0, 0.1, 0.6},
    {T::LustreClient, "seek", K::IoRead, 2.0e3, 5.0, 0.3},
    {T::LustreClient, "readdir", K::Constant, 0.0, 3.0, 0.5},
    {T::LustreClient, "truncate", K::IoWrite, 20.0, 0.1, 0.8},
    {T::LustreClient, "flock", K::Constant, 0.0, 0.5, 1.0},
    {T::LustreClient, "brw_read", K::IoRead, 7.0e8, 0.0, 0.04},
    {T::LustreClient, "brw_write", K::IoWrite, 7.0e8, 0.0, 0.04},
    {T::LustreClient, "cache_hit_ratio", K::IoPressure, -40.0, 95.0, 0.03},
    {T::LustreClient, "rpc_in_flight", K::IoPressure, 64.0, 4.0, 0.1},
}};

const char* table_prefix(CounterTable table) noexcept {
  switch (table) {
    case CounterTable::SysClassIb:
      return "sysclassib";
    case CounterTable::OpaInfo:
      return "opa_info";
    case CounterTable::LustreClient:
      return "lustre_client";
  }
  return "?";
}

}  // namespace

std::span<const CounterDef> counter_schema() noexcept { return kSchema; }

std::size_t num_counters() noexcept { return kSchema.size(); }

std::size_t counters_in_table(CounterTable table) noexcept {
  std::size_t n = 0;
  for (const auto& def : kSchema)
    if (def.table == table) ++n;
  return n;
}

std::string qualified_name(const CounterDef& def) {
  return std::string(table_prefix(def.table)) + "." + def.name;
}

KindSignals kind_signals(const NodeSignals& s) noexcept {
  // Congestion "knee": wait/discard style counters only light up once the
  // shared link is meaningfully loaded, like their hardware counterparts.
  constexpr double kCongestionKnee = 0.55;

  // In SignalKind order.
  return {s.xmit_gbps,
          s.recv_gbps,
          s.edge_util,
          s.pod_util,
          std::max(0.0, s.edge_util - kCongestionKnee),
          s.io_read_gbps,
          s.io_write_gbps,
          s.io_pressure,
          0.2 + s.edge_util,
          0.0};
}

}  // namespace rush::telemetry
