#include "cluster/allocator.hpp"

#include <algorithm>
#include <bit>
#include <string>

#include "common/audit.hpp"
#include "common/error.hpp"

namespace rush::cluster {

namespace {
constexpr std::uint64_t kAllOnes = ~std::uint64_t{0};

std::size_t word_count(std::size_t slots) { return (slots + 63) / 64; }
}  // namespace

NodeAllocator::NodeAllocator(NodeSet managed) : managed_(std::move(managed)) {
  RUSH_EXPECTS(!managed_.empty());
  RUSH_EXPECTS(std::is_sorted(managed_.begin(), managed_.end()));
  RUSH_EXPECTS(std::adjacent_find(managed_.begin(), managed_.end()) == managed_.end());
  const std::size_t words = word_count(managed_.size());
  free_.assign(words, kAllOnes);
  allocated_.assign(words, 0);
  out_.assign(words, 0);
  // Clear the tail past the managed count so popcounts and run scans
  // never see phantom slots.
  if (const std::size_t tail = managed_.size() & 63; tail != 0) {
    free_.back() = kAllOnes >> (64 - tail);
  }
  free_count_ = static_cast<int>(managed_.size());
}

std::optional<std::size_t> NodeAllocator::find_index(NodeId node) const noexcept {
  const auto it = std::lower_bound(managed_.begin(), managed_.end(), node);
  if (it == managed_.end() || *it != node) return std::nullopt;
  return static_cast<std::size_t>(it - managed_.begin());
}

bool NodeAllocator::can_allocate(int count) const noexcept {
  return count > 0 && count <= free_count_;
}

std::size_t NodeAllocator::next_free(std::size_t from) const noexcept {
  const std::size_t n = managed_.size();
  if (from >= n) return n;
  std::size_t w = from >> 6;
  std::uint64_t word = free_[w] >> (from & 63);
  if (word != 0) return from + static_cast<std::size_t>(std::countr_zero(word));
  for (++w; w < free_.size(); ++w) {
    if (free_[w] != 0) {
      return (w << 6) + static_cast<std::size_t>(std::countr_zero(free_[w]));
    }
  }
  return n;
}

std::size_t NodeAllocator::next_used(std::size_t from) const noexcept {
  const std::size_t n = managed_.size();
  if (from >= n) return n;
  // Scan the complement: a clear free bit is a used (or tail) slot. Tail
  // bits are zero in free_, so the complement finds them; callers only
  // care about positions up to n, which std::min restores.
  std::size_t w = from >> 6;
  std::uint64_t word = ~free_[w] >> (from & 63);
  if (word != 0) {
    return std::min(n, from + static_cast<std::size_t>(std::countr_zero(word)));
  }
  for (++w; w < free_.size(); ++w) {
    if (~free_[w] != 0) {
      return std::min(n, (w << 6) + static_cast<std::size_t>(std::countr_zero(~free_[w])));
    }
  }
  return n;
}

void NodeAllocator::take_run(std::size_t begin, std::size_t end, NodeSet& out) {
  for (std::size_t i = begin; i < end; ++i) {
    clear_bit(free_, i);
    set_bit(allocated_, i);
    out.push_back(managed_[i]);
  }
}

std::optional<NodeSet> NodeAllocator::allocate(int count) {
  RUSH_EXPECTS(count > 0);
  if (count > free_count_) return std::nullopt;
  const auto need = static_cast<std::size_t>(count);

  // First fit contiguous: the earliest window of `count` consecutive free
  // slots, i.e. the first maximal free run at least that long. Each run
  // boundary is found with a word-level transition scan.
  const std::size_t n = managed_.size();
  std::size_t cursor = 0;
  while (cursor < n) {
    const std::size_t start = next_free(cursor);
    if (start >= n) break;
    const std::size_t end = next_used(start);
    if (end - start >= need) {
      NodeSet out;
      out.reserve(need);
      take_run(start, start + need, out);
      free_count_ -= count;
      RUSH_AUDIT_HOOK(audit_invariants());
      return out;
    }
    cursor = end;
  }

  // Fragmented fallback: lowest-indexed free slots.
  NodeSet out;
  out.reserve(need);
  std::size_t cursor2 = 0;
  while (out.size() < need) {
    const std::size_t start = next_free(cursor2);
    const std::size_t end = std::min(next_used(start), start + (need - out.size()));
    RUSH_ASSERT(start < n);
    take_run(start, end, out);
    cursor2 = end;
  }
  free_count_ -= count;
  RUSH_AUDIT_HOOK(audit_invariants());
  return out;
}

void NodeAllocator::audit_invariants() const {
  RUSH_AUDIT_CHECK(std::is_sorted(managed_.begin(), managed_.end()), "");
  RUSH_AUDIT_CHECK(std::adjacent_find(managed_.begin(), managed_.end()) == managed_.end(),
                   "duplicate managed node");
  const std::size_t words = word_count(managed_.size());
  RUSH_AUDIT_CHECK(free_.size() == words && allocated_.size() == words && out_.size() == words,
                   "bitset not parallel to managed set");
  int actually_free = 0;
  for (std::size_t w = 0; w < words; ++w) {
    actually_free += std::popcount(free_[w]);
    // Exactly one state per slot: free == !allocated && !out, and no
    // bits past the managed count.
    std::uint64_t valid = kAllOnes;
    if (w == words - 1) {
      if (const std::size_t tail = managed_.size() & 63; tail != 0) {
        valid = kAllOnes >> (64 - tail);
      }
    }
    RUSH_AUDIT_CHECK(((free_[w] | allocated_[w] | out_[w]) & ~valid) == 0,
                     "stray bits past the managed count in word " + std::to_string(w));
    RUSH_AUDIT_CHECK((free_[w] & (allocated_[w] | out_[w])) == 0,
                     "word " + std::to_string(w) + " state bits inconsistent");
    RUSH_AUDIT_CHECK((free_[w] | allocated_[w] | out_[w]) == valid,
                     "word " + std::to_string(w) + " has a slot in no state");
  }
  RUSH_AUDIT_CHECK(free_count_ == actually_free,
                   "free_count_=" + std::to_string(free_count_) + " but bitset has " +
                       std::to_string(actually_free) + " free bits");
}

void NodeAllocator::release(const NodeSet& nodes) {
  for (NodeId n : nodes) {
    const auto idx = find_index(n);
    RUSH_EXPECTS(idx.has_value());
    RUSH_EXPECTS(test(allocated_, *idx));
    clear_bit(allocated_, *idx);
    // An out-of-service node parks instead of rejoining the free pool;
    // set_available(node, true) brings it back.
    if (!test(out_, *idx)) {
      set_bit(free_, *idx);
      ++free_count_;
    }
  }
  RUSH_AUDIT_HOOK(audit_invariants());
}

bool NodeAllocator::set_available(NodeId node, bool available) {
  const auto idx = find_index(node);
  if (!idx.has_value()) return false;
  if (test(out_, *idx) != available) return true;  // already in the requested state
  if (available) {
    clear_bit(out_, *idx);
    if (!test(allocated_, *idx)) {
      set_bit(free_, *idx);
      ++free_count_;
    }
  } else {
    set_bit(out_, *idx);
    if (test(free_, *idx)) {
      clear_bit(free_, *idx);
      --free_count_;
    }
  }
  RUSH_AUDIT_HOOK(audit_invariants());
  return true;
}

// rush-analyze: allow(dead-symbol) seam: Allocator.SetAvailableTakesNodesOutOfNewPlacements
bool NodeAllocator::is_available(NodeId node) const {
  const auto idx = find_index(node);
  RUSH_EXPECTS(idx.has_value());
  return !test(out_, *idx);
}

// rush-analyze: allow(dead-symbol) seam: Allocator.ReleaseParksNodesThatWentOutWhileAllocated
int NodeAllocator::unavailable_count() const noexcept {
  int total = 0;
  for (const std::uint64_t w : out_) total += std::popcount(w);
  return total;
}

// rush-analyze: allow(dead-symbol) seam: Allocator.IsFreeTracksState
bool NodeAllocator::is_free(NodeId node) const {
  const auto idx = find_index(node);
  RUSH_EXPECTS(idx.has_value());
  return test(free_, idx.value());
}

}  // namespace rush::cluster
