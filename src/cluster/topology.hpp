// Three-level fat-tree topology model (Quartz-like).
//
// Nodes attach to edge switches; edge switches aggregate into pods; pods
// connect through the core. Contention is modeled at three link classes:
//
//   node link   — one per compute node (node <-> edge switch)
//   edge uplink — one per edge switch (edge <-> pod aggregation)
//   pod uplink  — one per pod (aggregation <-> core)
//
// This is the minimal structure that reproduces the contention behaviour
// the paper exploits: a noisy all-to-all job sharing edge switches with an
// application job congests the shared edge uplinks and slows the
// application's communication phases.
#pragma once

#include <cstdint>
#include <vector>

namespace rush::cluster {

using NodeId = std::int32_t;
using LinkId = std::int32_t;

/// Identifier shared by traffic sources and filesystem clients; in
/// practice this is the scheduler's job id.
using SourceId = std::uint64_t;

/// Sorted set of node ids (jobs never share nodes, so sets are disjoint).
using NodeSet = std::vector<NodeId>;

// All bandwidth fields are in gigaBYTES per second.
struct FatTreeConfig {
  int pods = 6;
  int edges_per_pod = 16;
  int nodes_per_edge = 32;
  double node_link_gbps = 12.5;    // ~100 Gb/s Omni-Path endpoint
  double edge_uplink_gbps = 25.0;  // heavily tapered edge (contention point)
  double pod_uplink_gbps = 100.0;

  [[nodiscard]] int total_nodes() const noexcept { return pods * edges_per_pod * nodes_per_edge; }
  [[nodiscard]] int total_edges() const noexcept { return pods * edges_per_pod; }
};

enum class LinkKind : std::uint8_t { NodeLink, EdgeUplink, PodUplink };

class FatTree {
 public:
  explicit FatTree(FatTreeConfig config);

  [[nodiscard]] const FatTreeConfig& config() const noexcept { return config_; }
  [[nodiscard]] int num_nodes() const noexcept { return config_.total_nodes(); }
  [[nodiscard]] int num_edges() const noexcept { return config_.total_edges(); }
  [[nodiscard]] int num_pods() const noexcept { return config_.pods; }
  [[nodiscard]] int num_links() const noexcept {
    return num_nodes() + num_edges() + num_pods();
  }

  [[nodiscard]] int edge_of(NodeId node) const;
  [[nodiscard]] int pod_of(NodeId node) const;
  [[nodiscard]] NodeSet nodes_in_pod(int pod) const;

  [[nodiscard]] LinkId node_link(NodeId node) const;
  [[nodiscard]] LinkId edge_uplink(int edge) const;
  [[nodiscard]] LinkId pod_uplink(int pod) const;

  [[nodiscard]] LinkKind link_kind(LinkId link) const;
  [[nodiscard]] double link_capacity_gbps(LinkId link) const;

 private:
  FatTreeConfig config_;
};

/// True if `nodes` is sorted, unique, and within [0, num_nodes).
bool valid_node_set(const FatTree& tree, const NodeSet& nodes) noexcept;

}  // namespace rush::cluster
