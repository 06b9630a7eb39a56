// Time-indexed counter storage (the "Sonar/Cassandra" stand-in).
//
// Frames are appended by the sampler: one frame per sampling tick holding
// every managed node's counter values (node-major, float to halve memory).
// Frame timestamps are non-decreasing (enforced in add_frame), so window
// queries binary-search the frame index instead of scanning it. Per-frame
// all-node aggregates and running prefix sums are precomputed: whole-
// machine window means cost O(counters) and min/max merge only the frames
// inside the window. The store keeps every frame within `horizon_s` of
// its newest one and evicts the rest: the feature pipeline looks back one
// aggregation window from a time no earlier than the newest frame, so
// with the window as the horizon no frame a query can reach is dropped.
// The prefix base carries across eviction.
#pragma once

#include <cstdint>
#include <deque>
#include <span>
#include <utility>
#include <vector>

#include "cluster/topology.hpp"
#include "sim/types.hpp"

namespace rush::telemetry {

struct AuditTestPeer;  // test-only state corruption (tests/audit)

/// min/max/mean of one counter over a (nodes x time) window.
struct Agg {
  double min = 0.0;
  double max = 0.0;
  double mean = 0.0;
};

class CounterStore {
 public:
  /// `managed` lists the nodes frames will cover (sorted, unique);
  /// `num_counters` values are stored per node per frame; frames older
  /// than `horizon_s` (> 0) behind the newest one are evicted.
  CounterStore(cluster::NodeSet managed, std::size_t num_counters, double horizon_s);

  /// Append one frame at time `t` (must be >= the previous frame's time).
  /// `values` is node-major: values[node_index * num_counters + counter].
  /// First evicts every frame with time < t - horizon_s: a window
  /// [now - horizon_s, now] read at now >= t cannot reach it, because
  /// the subtraction is the same and rounds monotonically.
  ///
  /// Non-finite readings (a corrupted sampler, see faults/) are
  /// quarantined at ingest: each NaN/inf is stored as 0 and counted on
  /// the frame, so aggregates and prefix sums stay finite while
  /// corrupt_frames_in() keeps the corruption detectable downstream.
  void add_frame(sim::Time t, std::span<const float> values);

  [[nodiscard]] std::size_t num_counters() const noexcept { return num_counters_; }
  [[nodiscard]] const cluster::NodeSet& managed_nodes() const noexcept { return managed_; }
  [[nodiscard]] std::size_t frame_count() const noexcept { return frames_.size(); }
  [[nodiscard]] std::size_t frames_in(sim::Time t0, sim::Time t1) const noexcept;
  /// Timestamp of the newest retained frame; frame_count() must be > 0.
  [[nodiscard]] sim::Time latest_time() const;
  /// Frames with t in [t0, t1] that had at least one reading quarantined
  /// at ingest (see add_frame).
  [[nodiscard]] std::size_t corrupt_frames_in(sim::Time t0, sim::Time t1) const noexcept;

  /// Per-counter aggregates over frames with t in [t0, t1] and the given
  /// nodes (must all be managed), written into `out` (size
  /// num_counters()); zeros if the window holds no frames.
  void aggregate_nodes_into(sim::Time t0, sim::Time t1, const cluster::NodeSet& nodes,
                            std::span<Agg> out) const;
  /// Same, over every managed node, using the precomputed per-frame
  /// aggregates (cheap regardless of node count).
  ///
  /// Both are steady-state allocation-free (the nodes variant reuses a
  /// member scratch for node indices); the '// rush: noalloc' contract on
  /// the definitions is enforced by rush_analyze.
  void aggregate_all_into(sim::Time t0, sim::Time t1, std::span<Agg> out) const;

  /// Most recent value of one counter on one node; 0 if no frames.
  [[nodiscard]] double latest(cluster::NodeId node, std::size_t counter) const;

  void clear();

  /// Time-index ordering and frame-shape audit: frame timestamps must be
  /// non-decreasing front to back, no frame may be older than the
  /// horizon behind the newest one, every frame must hold exactly
  /// managed x counters values, each frame's precomputed per-counter
  /// aggregates must match a fresh recomputation from the raw values, and
  /// the running prefix sums must chain (each frame's prefix equals its
  /// predecessor's — or the eviction base — plus its own sum). Throws
  /// AuditError on corruption. Called automatically after every add_frame
  /// in RUSH_AUDIT builds.
  void audit_invariants() const;

 private:
  friend struct AuditTestPeer;
  struct Frame {
    sim::Time t;
    std::uint32_t corrupt_values = 0;    // readings quarantined at ingest
    std::vector<float> values;           // managed x counters, node-major
    std::vector<float> all_min, all_max;  // per counter
    std::vector<double> all_sum;          // per counter (for exact means)
    std::vector<double> prefix_sum;       // per counter, cumulative all_sum
                                          // over every frame ever added up
                                          // to and including this one
  };

  [[nodiscard]] std::size_t node_index(cluster::NodeId node) const;
  /// [first, last) deque indices of frames with t in [t0, t1].
  [[nodiscard]] std::pair<std::size_t, std::size_t> window_bounds(sim::Time t0,
                                                                  sim::Time t1) const noexcept;

  cluster::NodeSet managed_;
  std::size_t num_counters_;
  double horizon_s_;
  std::deque<Frame> frames_;
  /// prefix_sum of the most recently evicted frame (zeros before any
  /// eviction): the base the front frame's prefix chains from.
  std::vector<double> evicted_prefix_;
  /// Node-index scratch for aggregate_nodes_into: grows to the largest
  /// query's node count once, then steady-state allocation-free.
  mutable std::vector<std::size_t> node_idx_scratch_;
};

}  // namespace rush::telemetry
