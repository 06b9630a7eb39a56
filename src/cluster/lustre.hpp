// Shared parallel-filesystem (Lustre-like) contention model.
//
// The filesystem is a single shared bandwidth pool (the aggregate OST
// bandwidth). Clients (jobs, the background workload) register demand;
// when total demand exceeds capacity every client slows by the
// oversubscription factor. Per-node demand is tracked so the
// lustre_client-style counters can be synthesized per host.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "cluster/topology.hpp"

namespace rush::cluster {

class LustreModel {
 public:
  /// `aggregate_gbps` is the total filesystem bandwidth shared by all
  /// clients. Requires > 0.
  explicit LustreModel(double aggregate_gbps);

  /// Register an I/O client: a job doing `per_node_gbps` of combined
  /// read+write traffic on each node in `nodes`. `read_fraction` splits
  /// the demand for counter synthesis.
  void add_client(SourceId id, NodeSet nodes, double per_node_gbps, double read_fraction = 0.5);
  void set_rate(SourceId id, double per_node_gbps);
  void remove_client(SourceId id);
  [[nodiscard]] bool has_client(SourceId id) const noexcept;

  /// Demand from unmodeled users, added directly to the pool.
  void set_ambient_demand(double gbps);

  [[nodiscard]] double total_demand_gbps() const noexcept;
  [[nodiscard]] double capacity_gbps() const noexcept { return capacity_; }

  /// Oversubscription factor every client currently experiences (>= 1),
  /// computed once per generation().
  [[nodiscard]] double slowdown() const noexcept { return slowdown_; }

  /// Achieved (post-contention) per-node rates on a host, for counters.
  /// A node in no client reads 0.
  [[nodiscard]] double node_read_gbps(NodeId node) const;
  [[nodiscard]] double node_write_gbps(NodeId node) const;

  [[nodiscard]] std::uint64_t generation() const noexcept { return generation_; }

 private:
  struct Client {
    NodeSet nodes;
    double per_node_gbps;
    double read_fraction;
  };

  /// Ends every mutation: starts the next generation and recomputes the
  /// slowdown. A client change also marks the per-node demand stale.
  void bump_generation(bool clients_changed);
  void rebuild_node_demand() const;
  [[nodiscard]] double achieved(const std::vector<double>& demand, NodeId node) const noexcept;

  double capacity_;
  double ambient_ = 0.0;
  std::map<SourceId, Client> clients_;  // ordered: demand sums are reproducible
  std::uint64_t generation_ = 0;
  double slowdown_ = 1.0;

  // Per-node demand indexed by node id, summed in client-id order. Only a
  // sampler that synthesizes counters reads it, so it is rebuilt on the
  // first read after a client change, at most once per frame.
  mutable bool node_demand_stale_ = false;
  mutable std::vector<double> node_read_;
  mutable std::vector<double> node_write_;
};

}  // namespace rush::cluster
