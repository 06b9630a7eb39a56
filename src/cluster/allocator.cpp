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

/// Bits of word `w` that hold slots of a `slots`-slot bitset: all but the
/// tail of a partial last word.
std::uint64_t slot_mask(std::size_t slots, std::size_t w) {
  const std::size_t tail = slots & 63;
  return tail != 0 && w == slots >> 6 ? kAllOnes >> (64 - tail) : kAllOnes;
}
}  // namespace

NodeAllocator::NodeAllocator(NodeSet managed) : managed_(std::move(managed)) {
  RUSH_EXPECTS(!managed_.empty());
  RUSH_EXPECTS(std::is_sorted(managed_.begin(), managed_.end()));
  RUSH_EXPECTS(std::adjacent_find(managed_.begin(), managed_.end()) == managed_.end());
  const std::size_t words = word_count(managed_.size());
  allocated_.assign(words, 0);
  out_.assign(words, 0);
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

std::uint64_t NodeAllocator::free_word(std::size_t w) const noexcept {
  return ~(allocated_[w] | out_[w]) & slot_mask(managed_.size(), w);
}

std::size_t NodeAllocator::next_free(std::size_t from) const noexcept {
  const std::size_t n = managed_.size();
  if (from >= n) return n;
  std::size_t w = from >> 6;
  std::uint64_t word = free_word(w) >> (from & 63);
  if (word != 0) return from + static_cast<std::size_t>(std::countr_zero(word));
  for (++w; w < allocated_.size(); ++w) {
    if (const std::uint64_t next = free_word(w); next != 0) {
      return (w << 6) + static_cast<std::size_t>(std::countr_zero(next));
    }
  }
  return n;
}

std::size_t NodeAllocator::next_used(std::size_t from) const noexcept {
  const std::size_t n = managed_.size();
  if (from >= n) return n;
  // Scan the complement: a clear free bit is a used (or tail) slot. Tail
  // bits are zero in the free word, so the complement finds them; callers
  // only care about positions up to n, which std::min restores.
  std::size_t w = from >> 6;
  std::uint64_t word = ~free_word(w) >> (from & 63);
  if (word != 0) {
    return std::min(n, from + static_cast<std::size_t>(std::countr_zero(word)));
  }
  for (++w; w < allocated_.size(); ++w) {
    if (const std::uint64_t used = ~free_word(w); used != 0) {
      return std::min(n, (w << 6) + static_cast<std::size_t>(std::countr_zero(used)));
    }
  }
  return n;
}

void NodeAllocator::take_run(std::size_t begin, std::size_t end, NodeSet& out) {
  for (std::size_t i = begin; i < end; ++i) {
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
  RUSH_AUDIT_CHECK(allocated_.size() == words && out_.size() == words,
                   "bitset not parallel to managed set");
  int actually_free = 0;
  for (std::size_t w = 0; w < words; ++w) {
    actually_free += std::popcount(free_word(w));
    RUSH_AUDIT_CHECK(((allocated_[w] | out_[w]) & ~slot_mask(managed_.size(), w)) == 0,
                     "stray bits past the managed count in word " + std::to_string(w));
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
    if (!test(out_, *idx)) ++free_count_;
  }
  RUSH_AUDIT_HOOK(audit_invariants());
}

bool NodeAllocator::set_available(NodeId node, bool available) {
  const auto idx = find_index(node);
  if (!idx.has_value()) return false;
  if (test(out_, *idx) != available) return true;  // already in the requested state
  if (available) {
    clear_bit(out_, *idx);
    if (!test(allocated_, *idx)) ++free_count_;
  } else {
    set_bit(out_, *idx);
    if (!test(allocated_, *idx)) --free_count_;
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
  return !test(allocated_, *idx) && !test(out_, *idx);
}

}  // namespace rush::cluster
