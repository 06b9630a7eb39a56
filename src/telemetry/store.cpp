#include "telemetry/store.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "common/audit.hpp"
#include "common/error.hpp"

namespace rush::telemetry {

namespace {
constexpr std::uint32_t kExponentBits = 0x7f800000;  // of an IEEE-754 float
}  // namespace

CounterStore::CounterStore(cluster::NodeSet managed, std::size_t num_counters, double horizon_s)
    : managed_(std::move(managed)), num_counters_(num_counters), horizon_s_(horizon_s) {
  RUSH_EXPECTS(!managed_.empty());
  RUSH_EXPECTS(std::is_sorted(managed_.begin(), managed_.end()));
  RUSH_EXPECTS(num_counters_ > 0);
  RUSH_EXPECTS(horizon_s_ > 0.0);
  evicted_prefix_.assign(num_counters_, 0.0);
}

std::size_t CounterStore::node_index(cluster::NodeId node) const {
  const auto it = std::lower_bound(managed_.begin(), managed_.end(), node);
  RUSH_EXPECTS(it != managed_.end() && *it == node);
  return static_cast<std::size_t>(it - managed_.begin());
}

std::pair<std::size_t, std::size_t> CounterStore::window_bounds(sim::Time t0,
                                                                sim::Time t1) const noexcept {
  // Timestamps are non-decreasing (add_frame precondition), so the window
  // is a contiguous run found by binary search.
  const auto lo = std::lower_bound(frames_.begin(), frames_.end(), t0,
                                   [](const Frame& f, sim::Time v) { return f.t < v; });
  const auto hi = std::upper_bound(lo, frames_.end(), t1,
                                   [](sim::Time v, const Frame& f) { return v < f.t; });
  return {static_cast<std::size_t>(lo - frames_.begin()),
          static_cast<std::size_t>(hi - frames_.begin())};
}

void CounterStore::add_frame(sim::Time t, std::span<const float> values) {
  RUSH_EXPECTS(values.size() == managed_.size() * num_counters_);
  RUSH_EXPECTS(frames_.empty() || t >= frames_.back().t);

  // Evict what no window can reach any more (see the header). After a
  // gap several frames go at once: the base chains through each, and the
  // last one's buffers take the new frame, so a steady-state ingest
  // neither allocates nor zero-fills them.
  Frame frame;
  const sim::Time cut = t - horizon_s_;
  while (!frames_.empty() && frames_.front().t < cut) {
    frame = std::move(frames_.front());
    frames_.pop_front();
    std::swap(evicted_prefix_, frame.prefix_sum);
  }
  frame.t = t;
  frame.values.resize(values.size());
  frame.all_min.assign(num_counters_, std::numeric_limits<float>::max());
  frame.all_max.assign(num_counters_, std::numeric_limits<float>::lowest());
  frame.all_sum.assign(num_counters_, 0.0);
  const float* in = values.data();
  float* row = frame.values.data();
  float* mn = frame.all_min.data();
  float* mx = frame.all_max.data();
  double* sum = frame.all_sum.data();
  // Quarantine non-finite readings at ingest: store 0 and count them, so
  // every aggregate (and the prefix-sum chain the audit checks) stays
  // finite while the corruption remains visible to corrupt_frames_in()
  // consumers. Branch-free, so the pass vectorizes: a NaN or an inf has
  // every exponent bit set, and masking off all its bits leaves +0.
  std::uint32_t corrupt = 0;
  for (std::size_t n = 0; n < managed_.size(); ++n, in += num_counters_, row += num_counters_) {
    for (std::size_t c = 0; c < num_counters_; ++c) {
      const auto bits = std::bit_cast<std::uint32_t>(in[c]);
      const std::uint32_t bad = (bits & kExponentBits) == kExponentBits ? 1 : 0;
      const float v = std::bit_cast<float>(bits & (bad - 1));
      corrupt += bad;
      row[c] = v;
      mn[c] = std::min(mn[c], v);
      mx[c] = std::max(mx[c], v);
      sum[c] += static_cast<double>(v);
    }
  }
  frame.corrupt_values = corrupt;
  const std::vector<double>& base =
      frames_.empty() ? evicted_prefix_ : frames_.back().prefix_sum;
  frame.prefix_sum.resize(num_counters_);
  for (std::size_t c = 0; c < num_counters_; ++c)
    frame.prefix_sum[c] = base[c] + frame.all_sum[c];
  frames_.push_back(std::move(frame));
  RUSH_AUDIT_HOOK(audit_invariants());
}

void CounterStore::audit_invariants() const {
  RUSH_AUDIT_CHECK(frames_.empty() || !(frames_.front().t < frames_.back().t - horizon_s_),
                   "eviction fell behind");
  RUSH_AUDIT_CHECK(evicted_prefix_.size() == num_counters_, "eviction base shape");
  const Frame* prev = nullptr;
  for (const Frame& f : frames_) {
    if (prev != nullptr) {
      RUSH_AUDIT_CHECK(prev->t <= f.t, "frame at t=" + std::to_string(f.t) +
                                           " behind predecessor t=" + std::to_string(prev->t));
    }
    RUSH_AUDIT_CHECK(f.values.size() == managed_.size() * num_counters_, "frame shape");
    RUSH_AUDIT_CHECK(f.all_min.size() == num_counters_ && f.all_max.size() == num_counters_ &&
                         f.all_sum.size() == num_counters_ && f.prefix_sum.size() == num_counters_,
                     "aggregate shape");
    // Prefix chain: each frame extends its predecessor (or the eviction
    // base) by exactly its own per-counter sums.
    const std::vector<double>& base = prev != nullptr ? prev->prefix_sum : evicted_prefix_;
    for (std::size_t c = 0; c < num_counters_; ++c) {
      const double expect = base[c] + f.all_sum[c];
      const double tol = 1e-9 * std::max(1.0, std::abs(expect));
      RUSH_AUDIT_CHECK(std::abs(f.prefix_sum[c] - expect) <= tol,
                       "broken prefix chain for counter " + std::to_string(c) + " at t=" +
                           std::to_string(f.t));
    }
    prev = &f;
  }
  if (frames_.empty()) return;
  // Recomputing aggregates for every frame on every hook would be
  // quadratic; older frames were audited when they were newest.
  const Frame& f = frames_.back();
  for (std::size_t c = 0; c < num_counters_; ++c) {
    float mn = std::numeric_limits<float>::max();
    float mx = std::numeric_limits<float>::lowest();
    double sum = 0.0;
    for (std::size_t n = 0; n < managed_.size(); ++n) {
      const float v = f.values[n * num_counters_ + c];
      // Ingest quarantine replaces non-finite readings, so stored values
      // are finite by construction.
      RUSH_AUDIT_CHECK(std::isfinite(v), "non-finite stored value escaped ingest quarantine");
      mn = std::min(mn, v);
      mx = std::max(mx, v);
      sum += static_cast<double>(v);
    }
    RUSH_AUDIT_CHECK(f.all_min[c] == mn && f.all_max[c] == mx,
                     "stale min/max aggregate for counter " + std::to_string(c));
    const double tol = 1e-9 * std::max(1.0, std::abs(sum));
    RUSH_AUDIT_CHECK(std::abs(f.all_sum[c] - sum) <= tol,
                     "stale sum aggregate for counter " + std::to_string(c));
  }
}

std::size_t CounterStore::frames_in(sim::Time t0, sim::Time t1) const noexcept {
  const auto [lo, hi] = window_bounds(t0, t1);
  return hi - lo;
}

sim::Time CounterStore::latest_time() const {
  RUSH_EXPECTS(!frames_.empty());
  return frames_.back().t;
}

std::size_t CounterStore::corrupt_frames_in(sim::Time t0, sim::Time t1) const noexcept {
  const auto [lo, hi] = window_bounds(t0, t1);
  std::size_t count = 0;
  for (std::size_t fi = lo; fi < hi; ++fi)
    if (frames_[fi].corrupt_values > 0) ++count;
  return count;
}

// rush: noalloc
void CounterStore::aggregate_nodes_into(sim::Time t0, sim::Time t1,
                                        const cluster::NodeSet& nodes,
                                        std::span<Agg> out) const {
  RUSH_EXPECTS(out.size() == num_counters_);
  node_idx_scratch_.clear();
  node_idx_scratch_.reserve(nodes.size());
  for (cluster::NodeId n : nodes) node_idx_scratch_.push_back(node_index(n));
  const std::vector<std::size_t>& idx = node_idx_scratch_;

  const auto [lo, hi] = window_bounds(t0, t1);
  const std::size_t samples = hi - lo;
  if (samples == 0 || idx.empty()) {
    std::fill(out.begin(), out.end(), Agg{});
    return;
  }

  // Accumulate straight into the output fields: min/max in place, the
  // running sum parked in `.mean` until the final division.
  for (Agg& a : out)
    a = Agg{std::numeric_limits<double>::max(), std::numeric_limits<double>::lowest(), 0.0};
  for (std::size_t fi = lo; fi < hi; ++fi) {
    const Frame& f = frames_[fi];
    for (const std::size_t ni : idx) {
      const float* row = f.values.data() + ni * num_counters_;
      for (std::size_t c = 0; c < num_counters_; ++c) {
        const double v = static_cast<double>(row[c]);
        out[c].min = std::min(out[c].min, v);
        out[c].max = std::max(out[c].max, v);
        out[c].mean += v;
      }
    }
  }
  const double denom = static_cast<double>(samples) * static_cast<double>(idx.size());
  for (Agg& a : out) a.mean /= denom;
}

// rush: noalloc
void CounterStore::aggregate_all_into(sim::Time t0, sim::Time t1, std::span<Agg> out) const {
  RUSH_EXPECTS(out.size() == num_counters_);
  const auto [lo, hi] = window_bounds(t0, t1);
  const std::size_t samples = hi - lo;
  if (samples == 0) {
    std::fill(out.begin(), out.end(), Agg{});
    return;
  }

  // Sums come from the running prefixes in O(counters); min/max are not
  // prefix-decomposable, so they merge the per-frame aggregates of just
  // the frames inside the window.
  for (Agg& a : out)
    a = Agg{std::numeric_limits<double>::max(), std::numeric_limits<double>::lowest(), 0.0};
  for (std::size_t fi = lo; fi < hi; ++fi) {
    const Frame& f = frames_[fi];
    for (std::size_t c = 0; c < num_counters_; ++c) {
      out[c].min = std::min(out[c].min, static_cast<double>(f.all_min[c]));
      out[c].max = std::max(out[c].max, static_cast<double>(f.all_max[c]));
    }
  }
  const std::vector<double>& base =
      lo == 0 ? evicted_prefix_ : frames_[lo - 1].prefix_sum;
  const double denom = static_cast<double>(samples) * static_cast<double>(managed_.size());
  for (std::size_t c = 0; c < num_counters_; ++c)
    out[c].mean = (frames_[hi - 1].prefix_sum[c] - base[c]) / denom;
}

// rush-analyze: allow(dead-symbol) seam: Sampler.FrameBitsKeepTheirGoldenDigest digests it
double CounterStore::latest(cluster::NodeId node, std::size_t counter) const {
  RUSH_EXPECTS(counter < num_counters_);
  if (frames_.empty()) return 0.0;
  const Frame& f = frames_.back();
  return static_cast<double>(f.values[node_index(node) * num_counters_ + counter]);
}

void CounterStore::clear() {
  frames_.clear();
  evicted_prefix_.assign(num_counters_, 0.0);
}

}  // namespace rush::telemetry
