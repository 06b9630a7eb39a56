// Node allocation over an arbitrary managed subset of the cluster.
//
// The scheduler asks for `k` nodes; the allocator prefers a contiguous run
// (which tends to stay under few edge switches, like a locality-aware
// resource matcher) and falls back to the lowest-indexed free nodes when
// fragmentation prevents a contiguous placement.
//
// Storage is two word-level (uint64_t) bitsets parallel to the managed
// set — allocated / out-of-service — and a slot is free when it is
// neither, so the contiguous-run search advances a whole word per
// iteration (countr_zero over bit transitions of the derived free word)
// instead of the bit-at-a-time std::vector<bool> walk this replaced.
// Placement order is exactly the slot-index order of the old scan: the
// first window of `k` consecutive free slots, else the lowest-indexed
// free slots (tests/cluster/test_allocator.cpp pins this differentially
// against a reference bitmap implementation).
//
// Nodes can be taken out of service (crash or drain, see faults/): an
// out-of-service node is never handed to a new allocation. If it is
// allocated when it goes out, it stays bound to its job until release —
// the scheduler decides whether that job dies (crash) or finishes
// (drain) — and then parks instead of returning to the free pool.
#pragma once

#include <cstdint>
#include <optional>

#include "cluster/topology.hpp"

namespace rush::cluster {

struct AuditTestPeer;  // test-only state corruption (tests/audit)

class NodeAllocator {
 public:
  /// Manages exactly the nodes in `managed` (sorted, unique). This is how
  /// the paper's 512-node single-pod reservation is expressed: construct
  /// the allocator over `tree.nodes_in_pod(p)`.
  explicit NodeAllocator(NodeSet managed);

  /// All nodes of the given count, or nullopt if not enough are free.
  [[nodiscard]] std::optional<NodeSet> allocate(int count);

  /// Releases previously allocated nodes. It is an error to free a node
  /// that is not currently allocated by this allocator. Out-of-service
  /// nodes park instead of rejoining the free pool.
  void release(const NodeSet& nodes);

  /// Take a node out of service (`available == false`) or return it
  /// (`true`). Returns false — and does nothing — when `node` is not
  /// managed here, so callers can broadcast cluster-wide fault events.
  /// Idempotent in both directions.
  bool set_available(NodeId node, bool available);
  [[nodiscard]] bool is_available(NodeId node) const;

  [[nodiscard]] bool can_allocate(int count) const noexcept;
  [[nodiscard]] int free_count() const noexcept { return free_count_; }
  [[nodiscard]] int managed_count() const noexcept { return static_cast<int>(managed_.size()); }
  /// Managed nodes currently out of service.
  [[nodiscard]] int unavailable_count() const noexcept;
  [[nodiscard]] bool is_free(NodeId node) const;
  [[nodiscard]] const NodeSet& managed_nodes() const noexcept { return managed_; }

  /// Re-derives the allocation bitset bookkeeping and throws AuditError on
  /// corruption: managed_ stays sorted/unique, the word bitsets stay
  /// parallel to it with no stray bits past the managed count, and
  /// free_count_ equals the number of slots neither allocated nor out.
  /// Called automatically after every mutation in RUSH_AUDIT builds.
  void audit_invariants() const;

 private:
  friend struct AuditTestPeer;
  [[nodiscard]] std::optional<std::size_t> find_index(NodeId node) const noexcept;

  [[nodiscard]] bool test(const std::vector<std::uint64_t>& words,
                          std::size_t slot) const noexcept {
    return (words[slot >> 6] >> (slot & 63)) & 1u;
  }
  static void set_bit(std::vector<std::uint64_t>& words, std::size_t slot) noexcept {
    words[slot >> 6] |= std::uint64_t{1} << (slot & 63);
  }
  static void clear_bit(std::vector<std::uint64_t>& words, std::size_t slot) noexcept {
    words[slot >> 6] &= ~(std::uint64_t{1} << (slot & 63));
  }

  /// Word `w` of the free set: the managed slots neither allocated nor
  /// out of service.
  [[nodiscard]] std::uint64_t free_word(std::size_t w) const noexcept;
  /// First free slot >= `from`, or the managed count.
  [[nodiscard]] std::size_t next_free(std::size_t from) const noexcept;
  /// First slot >= `from` that is not free, or the managed count.
  [[nodiscard]] std::size_t next_used(std::size_t from) const noexcept;
  /// Marks [begin, end) allocated and appends the managed node ids.
  void take_run(std::size_t begin, std::size_t end, NodeSet& out);

  NodeSet managed_;  // sorted
  // Parallel word bitsets over managed_ slots; bits past managed_.size()
  // in the last word stay zero.
  std::vector<std::uint64_t> allocated_;  // bound to a live allocation
  std::vector<std::uint64_t> out_;        // out of service (crash/drain)
  int free_count_ = 0;
};

}  // namespace rush::cluster
