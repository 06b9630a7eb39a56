// Flow-level network contention model over the fat-tree.
//
// Each traffic source (a job's communication phase, the noise job, or
// ambient background traffic) injects a per-node rate with an all-to-all
// pattern across its node set. Flows are mapped onto the three link
// classes and per-link loads accumulated; a source's slowdown is the
// worst oversubscription (load / capacity, clamped at 1) over any link
// it traverses — the standard max-congestion approximation.
//
// Loads are maintained incrementally: every source caches its aggregated
// per-link shares at unit rate (shares are linear in `per_node_gbps`), so
// add_source / remove_source / set_rate apply an O(|own links|) delta to
// the per-link totals and set_ambient_load applies a single-link delta.
// No mutation ever triggers a full recomputation; `rebuild()` remains as
// the float-drift renormalization fallback and runs automatically every
// `kRebuildPeriod` deltas.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "cluster/topology.hpp"

namespace rush::obs {
class Counter;
class MetricsRegistry;
}  // namespace rush::obs

namespace rush::cluster {

/// Communication pattern of a traffic source. The pattern decides how much
/// of a node's injected traffic stays below its edge switch versus crossing
/// uplinks.
enum class TrafficPattern : std::uint8_t {
  AllToAll,         // uniform all-to-all (SWFFT, noise job)
  NearestNeighbor,  // halo exchange: traffic goes to adjacent allocated nodes
  Ring,             // each node talks to two neighbours in allocation order
  Gateway,          // node -> I/O gateway beyond the pod (Lustre traffic);
                    // every node's traffic crosses its edge and pod uplinks
};

struct TrafficSource {
  NodeSet nodes;
  double per_node_gbps = 0.0;
  TrafficPattern pattern = TrafficPattern::AllToAll;
};

struct NetworkAuditTestPeer;  // test-only state corruption (tests/audit)

class NetworkModel {
 public:
  explicit NetworkModel(const FatTree& tree);

  /// Register a traffic source. `nodes` must be a valid node set; ids must
  /// be unique among live sources. O(|nodes| log |nodes|).
  void add_source(SourceId id, NodeSet nodes, double per_node_gbps,
                  TrafficPattern pattern = TrafficPattern::AllToAll);
  /// Change the injection rate of an existing source. O(|own links|).
  void set_rate(SourceId id, double per_node_gbps);
  /// O(|own links|).
  void remove_source(SourceId id);
  [[nodiscard]] bool has_source(SourceId id) const noexcept;

  /// Ambient load injected directly onto a link by traffic outside the
  /// modeled jobs (system daemons, other users). Overwrites prior value.
  /// O(1).
  void set_ambient_load(LinkId link, double gbps);

  /// Degrade (or restore) a link: its effective capacity becomes
  /// `factor * nominal`, factor in (0, 1], 1 = healthy. Driven by
  /// faults::FaultInjector; flows are not re-routed, they simply see the
  /// smaller capacity in every congestion query, which reroutes work in
  /// effect (placement probes and the execution model steer around the
  /// hot link). O(1).
  void set_link_health(LinkId link, double factor);

  /// Worst oversubscription factor (>= 1) over links used by the source.
  /// O(|own links|) over the source's cached shares.
  [[nodiscard]] double slowdown(SourceId id) const;

  /// Slowdown a *hypothetical* source with this shape would see right now.
  /// Used by the MPI canary benchmarks and by the scheduler when probing a
  /// candidate allocation. Does not mutate the model and performs no heap
  /// allocation once the internal scratch buffer is warm.
  [[nodiscard]] double probe_slowdown(const NodeSet& nodes, double per_node_gbps,
                                      TrafficPattern pattern = TrafficPattern::AllToAll) const;

  [[nodiscard]] double link_load_gbps(LinkId link) const;
  [[nodiscard]] double link_utilization(LinkId link) const;

  /// Traffic through a node's access link (its own injection + ambient),
  /// feeding the sysclassib-style counters.
  [[nodiscard]] double node_xmit_gbps(NodeId node) const;
  [[nodiscard]] double node_recv_gbps(NodeId node) const;

  /// Publish model counters (probe calls, drift rebuilds) into an
  /// observability registry. Null detaches; the probe path pays one null
  /// check + add when attached and nothing else.
  void set_metrics(obs::MetricsRegistry* metrics);

  [[nodiscard]] const FatTree& tree() const noexcept { return tree_; }

  /// Recompute every per-link load from scratch (ambient + every live
  /// source's shares). Never needed for correctness — the mutation paths
  /// keep `loads_` current — but bounds floating-point drift from long
  /// delta chains (it runs automatically every kRebuildPeriod deltas) and
  /// lets benchmarks compare the incremental path against the full
  /// recomputation it replaced.
  void rebuild();

  /// Deltas applied between automatic renormalizing rebuilds.
  static constexpr std::uint64_t kRebuildPeriod = 4096;

  /// Differential load conservation: independently re-maps every live
  /// source's flows onto the link classes and checks that both the cached
  /// per-source share vectors and the incrementally maintained per-link
  /// loads equal that from-scratch rebuild (and that no load or rate is
  /// negative). Throws AuditError on any mismatch. Called automatically
  /// after every mutation in RUSH_AUDIT builds.
  void audit_invariants() const;

 private:
  friend struct NetworkAuditTestPeer;
  struct LinkShare {
    LinkId link;
    double gbps;
  };
  struct SourceState {
    TrafficSource src;
    /// Aggregated per-link shares at per_node_gbps == 1, sorted by link,
    /// one entry per distinct link. The live contribution of the source is
    /// `src.per_node_gbps * unit_shares`.
    std::vector<LinkShare> unit_shares;
  };

  /// Maps one source shape's flows to per-link loads. Appends to `out`.
  void map_flows(const NodeSet& nodes, double per_node_gbps, TrafficPattern pattern,
                 std::vector<LinkShare>& out) const;
  /// Sorts `shares` by link and merges duplicate links in place.
  static void aggregate_shares(std::vector<LinkShare>& shares);
  /// loads_[link] += scale * share for every share; clamps the tiny
  /// negative residue float cancellation can leave behind.
  void apply_shares(const std::vector<LinkShare>& unit_shares, double scale);
  /// Counts one applied delta; renormalizes via rebuild() every
  /// kRebuildPeriod deltas.
  void note_delta();
  [[nodiscard]] double worst_over_links(const std::vector<LinkShare>& shares,
                                        const std::vector<double>& loads) const;

  [[nodiscard]] double effective_capacity(LinkId link) const {
    return tree_.link_capacity_gbps(link) * health_[static_cast<std::size_t>(link)];
  }

  const FatTree& tree_;
  std::unordered_map<SourceId, SourceState> sources_;
  std::vector<double> ambient_;  // per-link ambient gbps
  std::vector<double> loads_;    // per-link total gbps, always current
  std::vector<double> health_;   // per-link capacity factor, 1 = healthy
  std::uint64_t deltas_since_rebuild_ = 0;
  obs::Counter* metric_probes_ = nullptr;    // owned by the attached registry
  obs::Counter* metric_rebuilds_ = nullptr;

  // Flow-mapping scratch, preallocated to the topology's edge/pod counts
  // so steady-state probes never allocate; mutable because probes are
  // logically const. `*_acc_` entries are zero outside map_flows; the
  // touched lists record which entries a call dirtied.
  mutable std::vector<LinkShare> scratch_shares_;
  mutable std::vector<double> edge_acc_;
  mutable std::vector<double> pod_acc_;
  mutable std::vector<int> touched_edges_;
  mutable std::vector<int> touched_pods_;
};

}  // namespace rush::cluster
