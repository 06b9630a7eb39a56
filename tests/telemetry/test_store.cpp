#include "telemetry/store.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <initializer_list>
#include <limits>
#include <vector>

#include "common/error.hpp"

namespace rush::telemetry {
namespace {

constexpr std::size_t kCounters = 3;
/// Wider than any test's time span: nothing is evicted.
constexpr double kWideHorizonS = 100.0;
/// At one frame per second this keeps four frames, both ends included.
constexpr double kShortHorizonS = 3.0;

cluster::NodeSet nodes3() { return {10, 20, 30}; }

std::vector<float> frame(std::initializer_list<float> values) {
  return std::vector<float>(values);
}

/// The store's per-counter aggregates over every managed node, or over
/// `nodes`, as a fresh vector.
std::vector<Agg> aggregate_all(const CounterStore& store, sim::Time t0, sim::Time t1) {
  std::vector<Agg> out(store.num_counters());
  store.aggregate_all_into(t0, t1, out);
  return out;
}
std::vector<Agg> aggregate_nodes(const CounterStore& store, sim::Time t0, sim::Time t1,
                                 const cluster::NodeSet& nodes) {
  std::vector<Agg> out(store.num_counters());
  store.aggregate_nodes_into(t0, t1, nodes, out);
  return out;
}

/// Frame `i` at t = i s holding `i` in every cell, for i in [first, last).
void add_ramp(CounterStore& store, int first, int last) {
  for (int i = first; i < last; ++i) {
    const auto v = static_cast<float>(i);
    store.add_frame(static_cast<double>(i), frame({v, v, v, v, v, v, v, v, v}));
  }
}

class StoreTest : public ::testing::Test {
 protected:
  StoreTest()
      : store_(nodes3(), kCounters, kWideHorizonS), short_(nodes3(), kCounters, kShortHorizonS) {}
  CounterStore store_;
  CounterStore short_;
};

TEST_F(StoreTest, EmptyStoreReturnsZeros) {
  const auto aggs = aggregate_all(store_, 0.0, 100.0);
  ASSERT_EQ(aggs.size(), kCounters);
  for (const Agg& a : aggs) {
    EXPECT_EQ(a.min, 0.0);
    EXPECT_EQ(a.max, 0.0);
    EXPECT_EQ(a.mean, 0.0);
  }
  EXPECT_EQ(store_.frames_in(0.0, 100.0), 0u);
  EXPECT_EQ(store_.latest(10, 0), 0.0);
}

TEST_F(StoreTest, SingleFrameAggregates) {
  // node-major: node10=(1,2,3), node20=(4,5,6), node30=(7,8,9)
  store_.add_frame(5.0, frame({1, 2, 3, 4, 5, 6, 7, 8, 9}));
  const auto aggs = aggregate_all(store_, 0.0, 10.0);
  EXPECT_DOUBLE_EQ(aggs[0].min, 1.0);
  EXPECT_DOUBLE_EQ(aggs[0].max, 7.0);
  EXPECT_DOUBLE_EQ(aggs[0].mean, 4.0);
  EXPECT_DOUBLE_EQ(aggs[2].min, 3.0);
  EXPECT_DOUBLE_EQ(aggs[2].max, 9.0);
  EXPECT_DOUBLE_EQ(aggs[2].mean, 6.0);
}

TEST_F(StoreTest, SubsetAggregationMatchesManualComputation) {
  store_.add_frame(1.0, frame({1, 2, 3, 4, 5, 6, 7, 8, 9}));
  store_.add_frame(2.0, frame({2, 2, 2, 10, 10, 10, 0, 0, 0}));
  const auto aggs = aggregate_nodes(store_, 0.0, 3.0, {10, 30});
  // Counter 0 over nodes {10,30} and both frames: values {1,7,2,0}.
  EXPECT_DOUBLE_EQ(aggs[0].min, 0.0);
  EXPECT_DOUBLE_EQ(aggs[0].max, 7.0);
  EXPECT_DOUBLE_EQ(aggs[0].mean, 2.5);
}

TEST_F(StoreTest, AllNodesEqualsSubsetOfEverything) {
  store_.add_frame(1.0, frame({1, 2, 3, 4, 5, 6, 7, 8, 9}));
  store_.add_frame(2.0, frame({9, 8, 7, 6, 5, 4, 3, 2, 1}));
  const auto all = aggregate_all(store_, 0.0, 3.0);
  const auto subset = aggregate_nodes(store_, 0.0, 3.0, nodes3());
  for (std::size_t c = 0; c < kCounters; ++c) {
    EXPECT_DOUBLE_EQ(all[c].min, subset[c].min);
    EXPECT_DOUBLE_EQ(all[c].max, subset[c].max);
    EXPECT_NEAR(all[c].mean, subset[c].mean, 1e-12);
  }
}

TEST_F(StoreTest, WindowFiltersByTime) {
  store_.add_frame(1.0, frame({1, 1, 1, 1, 1, 1, 1, 1, 1}));
  store_.add_frame(5.0, frame({5, 5, 5, 5, 5, 5, 5, 5, 5}));
  store_.add_frame(9.0, frame({9, 9, 9, 9, 9, 9, 9, 9, 9}));
  EXPECT_EQ(store_.frames_in(4.0, 6.0), 1u);
  const auto aggs = aggregate_all(store_, 4.0, 6.0);
  EXPECT_DOUBLE_EQ(aggs[0].min, 5.0);
  EXPECT_DOUBLE_EQ(aggs[0].max, 5.0);
  // Window boundaries are inclusive.
  EXPECT_EQ(store_.frames_in(1.0, 9.0), 3u);
}

TEST_F(StoreTest, CapacityEvictsOldestFrames) {
  add_ramp(short_, 0, 6);
  EXPECT_EQ(short_.frame_count(), 4u);        // t = 2..5: within 3 s of the newest
  EXPECT_EQ(short_.frames_in(0.0, 1.0), 0u);  // evicted
  EXPECT_EQ(short_.frames_in(2.0, 5.0), 4u);
}

TEST_F(StoreTest, LatestReadsNewestFrame) {
  store_.add_frame(1.0, frame({1, 2, 3, 4, 5, 6, 7, 8, 9}));
  store_.add_frame(2.0, frame({10, 20, 30, 40, 50, 60, 70, 80, 90}));
  EXPECT_DOUBLE_EQ(store_.latest(20, 1), 50.0);
}

TEST_F(StoreTest, ClearDropsEverything) {
  store_.add_frame(1.0, frame({1, 2, 3, 4, 5, 6, 7, 8, 9}));
  store_.clear();
  EXPECT_EQ(store_.frame_count(), 0u);
}

// --- binary-searched windows and prefix aggregates ----------------------

TEST_F(StoreTest, WindowBoundaryEdgeCases) {
  store_.add_frame(1.0, frame({1, 1, 1, 1, 1, 1, 1, 1, 1}));
  store_.add_frame(5.0, frame({5, 5, 5, 5, 5, 5, 5, 5, 5}));
  store_.add_frame(9.0, frame({9, 9, 9, 9, 9, 9, 9, 9, 9}));
  EXPECT_EQ(store_.frames_in(-10.0, 0.5), 0u);   // entirely before
  EXPECT_EQ(store_.frames_in(9.5, 100.0), 0u);   // entirely after
  EXPECT_EQ(store_.frames_in(2.0, 4.0), 0u);     // gap between frames
  EXPECT_EQ(store_.frames_in(5.0, 5.0), 1u);     // exact single timestamp
  EXPECT_EQ(store_.frames_in(1.0, 9.0), 3u);     // both endpoints inclusive
  EXPECT_EQ(store_.frames_in(6.0, 2.0), 0u);     // inverted window
  const auto empty = aggregate_all(store_, 2.0, 4.0);
  EXPECT_DOUBLE_EQ(empty[0].mean, 0.0);
  const auto one = aggregate_all(store_, 5.0, 5.0);
  EXPECT_DOUBLE_EQ(one[0].min, 5.0);
  EXPECT_DOUBLE_EQ(one[0].max, 5.0);
  EXPECT_DOUBLE_EQ(one[0].mean, 5.0);
}

TEST_F(StoreTest, DuplicateTimestampsAllLandInTheWindow) {
  store_.add_frame(3.0, frame({1, 1, 1, 1, 1, 1, 1, 1, 1}));
  store_.add_frame(3.0, frame({2, 2, 2, 2, 2, 2, 2, 2, 2}));
  store_.add_frame(3.0, frame({3, 3, 3, 3, 3, 3, 3, 3, 3}));
  EXPECT_EQ(store_.frames_in(3.0, 3.0), 3u);
  const auto aggs = aggregate_all(store_, 3.0, 3.0);
  EXPECT_DOUBLE_EQ(aggs[0].min, 1.0);
  EXPECT_DOUBLE_EQ(aggs[0].max, 3.0);
  EXPECT_DOUBLE_EQ(aggs[0].mean, 2.0);
}

TEST_F(StoreTest, PrefixAggregatesSurviveEviction) {
  // A 3 s horizon: frames 0 and 1 get evicted, the prefix base carries.
  add_ramp(short_, 0, 6);
  const auto aggs = aggregate_all(short_, 2.0, 5.0);
  EXPECT_DOUBLE_EQ(aggs[0].min, 2.0);
  EXPECT_DOUBLE_EQ(aggs[0].max, 5.0);
  EXPECT_DOUBLE_EQ(aggs[0].mean, 3.5);  // (2+3+4+5)/4
  // A window starting at the (evicted-into) front of the deque.
  const auto front = aggregate_all(short_, 0.0, 3.0);
  EXPECT_DOUBLE_EQ(front[0].mean, 2.5);  // frames 2 and 3 remain
  // Subset aggregation over the same window agrees.
  const auto subset = aggregate_nodes(short_, 2.0, 5.0, nodes3());
  EXPECT_NEAR(subset[0].mean, aggs[0].mean, 1e-12);
}

// --- retention by horizon -----------------------------------------------

TEST_F(StoreTest, GapEvictsSeveralFramesAndKeepsTheMeanExact) {
  add_ramp(short_, 0, 4);
  add_ramp(short_, 10, 13);  // the frame at 10 evicts all four at once
  EXPECT_EQ(short_.frame_count(), 3u);
  EXPECT_NO_THROW(short_.audit_invariants());
  // Every cell holds a small integer, so the sums are exact: the prefix
  // means must equal a from-scratch sum over the window's frames.
  for (int first = 10; first <= 12; ++first) {
    double sum = 0.0;
    for (int i = first; i <= 12; ++i) sum += 3.0 * i;
    const auto aggs = aggregate_all(short_, static_cast<double>(first), 12.0);
    EXPECT_EQ(aggs[0].mean, sum / (3.0 * (13 - first))) << "window from " << first;
    EXPECT_EQ(aggs[0].min, static_cast<double>(first));
  }
  // A gap wider than the horizon with a single frame behind it.
  add_ramp(short_, 30, 31);
  EXPECT_EQ(short_.frame_count(), 1u);
  EXPECT_EQ(aggregate_all(short_, 0.0, 30.0)[0].mean, 30.0);
}

TEST_F(StoreTest, RestartTickKeepsEveryFrameAWindowCanRead) {
  // A sampler stopped after its 150 s tick and started again at once
  // ticks at 150 s a second time: twelve frames in [0, 300], one more
  // than the window holds at the 30 s period. Retention must keep them
  // all, so it cannot be a frame count.
  CounterStore store(nodes3(), kCounters, 300.0);
  std::vector<double> times;
  for (int k = 0; k <= 5; ++k) times.push_back(30.0 * k);
  for (int k = 5; k <= 10; ++k) times.push_back(30.0 * k);
  double sum = 0.0;
  for (std::size_t i = 0; i < times.size(); ++i) {
    const auto v = static_cast<float>(i + 1);
    store.add_frame(times[i], frame({v, v, v, v, v, v, v, v, v}));
    sum += 3.0 * static_cast<double>(i + 1);
  }
  ASSERT_EQ(times.size(), 12u);
  EXPECT_EQ(store.frames_in(0.0, 300.0), 12u);
  const auto aggs = aggregate_all(store, 0.0, 300.0);
  EXPECT_EQ(aggs[0].min, 1.0);
  EXPECT_EQ(aggs[0].mean, sum / 36.0);
}

TEST_F(StoreTest, FrameExactlyOneHorizonBehindIsKept) {
  CounterStore store(nodes3(), kCounters, 300.0);
  const std::vector<float> values(9, 1.0F);
  store.add_frame(0.0, values);
  store.add_frame(300.0, values);
  EXPECT_EQ(store.frame_count(), 2u);  // 300 - 300 is not past the cut
  EXPECT_EQ(store.frames_in(0.0, 300.0), 2u);
  store.add_frame(300.5, values);
  EXPECT_EQ(store.frame_count(), 2u);  // 0 < 300.5 - 300: evicted
  EXPECT_EQ(store.frames_in(0.0, 0.0), 0u);
}

TEST_F(StoreTest, ClearResetsPrefixBase) {
  store_.add_frame(1.0, frame({7, 7, 7, 7, 7, 7, 7, 7, 7}));
  store_.clear();
  store_.add_frame(2.0, frame({1, 1, 1, 1, 1, 1, 1, 1, 1}));
  const auto aggs = aggregate_all(store_, 0.0, 10.0);
  EXPECT_DOUBLE_EQ(aggs[0].mean, 1.0);
  EXPECT_NO_THROW(store_.audit_invariants());
}

TEST_F(StoreTest, AggregateAllMatchesAggregateNodesUnderChurn) {
  // Rolling appends with eviction: the prefix-sum fast path must keep
  // agreeing with the raw-value scan.
  for (int i = 0; i < 12; ++i) {
    const auto a = static_cast<float>(i % 5);
    const auto b = static_cast<float>((i * 3) % 7);
    const auto c = static_cast<float>(11 - i);
    short_.add_frame(static_cast<double>(i), frame({a, b, c, b, c, a, c, a, b}));
    const double t0 = std::max(0.0, static_cast<double>(i) - 2.0);
    const auto all = aggregate_all(short_, t0, static_cast<double>(i));
    const auto subset = aggregate_nodes(short_, t0, static_cast<double>(i), nodes3());
    for (std::size_t k = 0; k < kCounters; ++k) {
      EXPECT_DOUBLE_EQ(all[k].min, subset[k].min);
      EXPECT_DOUBLE_EQ(all[k].max, subset[k].max);
      EXPECT_NEAR(all[k].mean, subset[k].mean, 1e-9);
    }
  }
}

TEST_F(StoreTest, PreconditionViolations) {
  EXPECT_THROW(store_.add_frame(1.0, std::vector<float>(5)), PreconditionError);  // wrong size
  store_.add_frame(5.0, frame({1, 2, 3, 4, 5, 6, 7, 8, 9}));
  EXPECT_THROW(store_.add_frame(4.0, frame({1, 2, 3, 4, 5, 6, 7, 8, 9})),
               PreconditionError);  // time went backwards
  EXPECT_THROW((void)aggregate_nodes(store_, 0.0, 10.0, {99}), PreconditionError);  // unmanaged
  EXPECT_THROW((void)store_.latest(10, 99), PreconditionError);
  EXPECT_THROW(CounterStore(nodes3(), 0, 3.0), PreconditionError);
  EXPECT_THROW(CounterStore(nodes3(), 3, 0.0), PreconditionError);
  EXPECT_THROW(CounterStore(nodes3(), 3, std::nan("")), PreconditionError);
  EXPECT_THROW(CounterStore({}, 3, 3.0), PreconditionError);
}

TEST_F(StoreTest, NonFiniteReadingsAreQuarantinedAtIngest) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  store_.add_frame(10.0, frame({1, 2, 3, 4, 5, 6, 7, 8, 9}));
  store_.add_frame(20.0, frame({1, nan, 3, 4, 5, inf, 7, 8, 9}));

  // Aggregates stay finite: corrupt cells ingest as 0.
  const auto aggs = aggregate_all(store_, 0.0, 30.0);
  for (const Agg& a : aggs) {
    EXPECT_TRUE(std::isfinite(a.min));
    EXPECT_TRUE(std::isfinite(a.max));
    EXPECT_TRUE(std::isfinite(a.mean));
  }
  EXPECT_DOUBLE_EQ(aggs[1].min, 0.0);  // the NaN cell became the minimum

  // ...but the corruption stays visible to staleness consumers.
  EXPECT_EQ(store_.corrupt_frames_in(0.0, 30.0), 1u);
  EXPECT_EQ(store_.corrupt_frames_in(0.0, 15.0), 0u);
  EXPECT_EQ(store_.corrupt_frames_in(15.0, 30.0), 1u);
}

TEST_F(StoreTest, CorruptFrameCountSurvivesUntilEviction) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  short_.add_frame(10.0, frame({1, nan, 3, 4, 5, 6, 7, 8, 9}));
  short_.add_frame(13.0, frame({1, 2, 3, 4, 5, 6, 7, 8, 9}));
  EXPECT_EQ(short_.corrupt_frames_in(0.0, 100.0), 1u);  // exactly one horizon back
  for (int i = 0; i < 4; ++i)  // 3 s horizon: pushes the corrupt frame out
    short_.add_frame(20.0 + i, frame({1, 2, 3, 4, 5, 6, 7, 8, 9}));
  EXPECT_EQ(short_.frame_count(), 4u);
  EXPECT_EQ(short_.corrupt_frames_in(0.0, 100.0), 0u);
}

}  // namespace
}  // namespace rush::telemetry
