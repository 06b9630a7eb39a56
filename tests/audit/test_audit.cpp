// Layer-3 correctness harness: prove every runtime invariant auditor
// actually fires when its subsystem's state is corrupted, and stays quiet
// on healthy state. Corruption goes through the AuditTestPeer friends so
// no production API needs to expose mutable internals.

#include <gtest/gtest.h>

#include "cluster/allocator.hpp"
#include "cluster/network.hpp"
#include "common/audit.hpp"
#include "sim/engine.hpp"
#include "telemetry/store.hpp"

namespace rush::sim {
struct AuditTestPeer {
  static void rewind_clock_past_events(Engine& e) {
    // Clock ahead of a queued event: the monotonicity invariant breaks.
    e.now_ = e.heap_.front().t + 1000.0;
  }
  static void scramble_heap(Engine& e) {
    std::swap(e.heap_.front(), e.heap_.back());
  }
};
}  // namespace rush::sim

namespace rush::cluster {
struct AuditTestPeer {
  static void fake_free_count(NodeAllocator& a) { a.free_count_ += 3; }
  static void truncate_bitmap(NodeAllocator& a) { a.free_.pop_back(); }
  static void poison_tail_bit(NodeAllocator& a) { a.free_.back() |= 1ULL << 63; }
};
struct NetworkAuditTestPeer {
  static void leak_load(NetworkModel& m) { m.loads_.at(0) += 7.5; }
  static void negate_load(NetworkModel& m) { m.loads_.at(0) = -1.0; }
  static void corrupt_cached_shares(NetworkModel& m) {
    m.sources_.begin()->second.unit_shares.at(0).gbps += 0.25;
  }
};
}  // namespace rush::cluster

namespace rush::telemetry {
struct AuditTestPeer {
  static void swap_frame_times(CounterStore& s) {
    std::swap(s.frames_.front().t, s.frames_.back().t);
  }
  static void stale_aggregate(CounterStore& s) { s.frames_.back().all_sum[0] += 1.0; }
  static void break_prefix_chain(CounterStore& s) {
    s.frames_.back().prefix_sum[0] += 1.0;
  }
};
}  // namespace rush::telemetry

namespace {

using rush::AuditError;

// --- sim/engine: event-queue time monotonicity --------------------------

TEST(AuditEngine, CleanEngineAuditsQuiet) {
  rush::sim::Engine engine;
  engine.schedule_at(5.0, [] {});
  engine.schedule_at(2.0, [] {});
  EXPECT_NO_THROW(engine.audit_invariants());
  engine.run();
  EXPECT_NO_THROW(engine.audit_invariants());
}

TEST(AuditEngine, FiresWhenClockPassesQueuedEvent) {
  rush::sim::Engine engine;
  engine.schedule_at(1.0, [] {});
  rush::sim::AuditTestPeer::rewind_clock_past_events(engine);
  EXPECT_THROW(engine.audit_invariants(), AuditError);
}

TEST(AuditEngine, FiresOnBrokenHeapProperty) {
  rush::sim::Engine engine;
  engine.schedule_at(1.0, [] {});
  engine.schedule_at(2.0, [] {});
  engine.schedule_at(3.0, [] {});
  rush::sim::AuditTestPeer::scramble_heap(engine);
  EXPECT_THROW(engine.audit_invariants(), AuditError);
}

// --- cluster/allocator: bitmap consistency ------------------------------

TEST(AuditAllocator, CleanAllocatorAuditsQuiet) {
  rush::cluster::NodeAllocator alloc({0, 1, 2, 3, 4, 5, 6, 7});
  const auto nodes = alloc.allocate(3);
  ASSERT_TRUE(nodes.has_value());
  EXPECT_NO_THROW(alloc.audit_invariants());
  alloc.release(*nodes);
  EXPECT_NO_THROW(alloc.audit_invariants());
}

TEST(AuditAllocator, FiresOnFreeCountDrift) {
  rush::cluster::NodeAllocator alloc({0, 1, 2, 3});
  rush::cluster::AuditTestPeer::fake_free_count(alloc);
  EXPECT_THROW(alloc.audit_invariants(), AuditError);
}

TEST(AuditAllocator, FiresOnBitmapShapeMismatch) {
  rush::cluster::NodeAllocator alloc({0, 1, 2, 3});
  rush::cluster::AuditTestPeer::truncate_bitmap(alloc);
  EXPECT_THROW(alloc.audit_invariants(), AuditError);
}

TEST(AuditAllocator, FiresOnStrayBitPastManagedCount) {
  // Word-level scans rely on every bit past the managed count staying
  // zero; a stray tail bit would corrupt popcount free accounting and
  // contiguous-run searches.
  rush::cluster::NodeAllocator alloc({0, 1, 2, 3});
  rush::cluster::AuditTestPeer::poison_tail_bit(alloc);
  EXPECT_THROW(alloc.audit_invariants(), AuditError);
}

// --- cluster/network: per-link load conservation ------------------------

class AuditNetwork : public ::testing::Test {
 protected:
  AuditNetwork() : tree_(small_config()), model_(tree_) {}
  static rush::cluster::FatTreeConfig small_config() {
    rush::cluster::FatTreeConfig cfg;
    cfg.pods = 2;
    cfg.edges_per_pod = 2;
    cfg.nodes_per_edge = 4;
    return cfg;
  }
  rush::cluster::FatTree tree_;
  rush::cluster::NetworkModel model_;
};

TEST_F(AuditNetwork, CleanModelConservesLoad) {
  model_.add_source(1, {0, 1, 4, 5}, 2.0);
  model_.set_ambient_load(tree_.edge_uplink(0), 3.0);
  EXPECT_NO_THROW(model_.audit_invariants());
}

TEST_F(AuditNetwork, FiresWhenLinkLoadLeaksFromDemand) {
  model_.add_source(1, {0, 1, 4, 5}, 2.0);
  rush::cluster::NetworkAuditTestPeer::leak_load(model_);
  EXPECT_THROW(model_.audit_invariants(), AuditError);
}

TEST_F(AuditNetwork, FiresOnNegativeLoad) {
  model_.add_source(1, {0, 1}, 1.0);
  rush::cluster::NetworkAuditTestPeer::negate_load(model_);
  EXPECT_THROW(model_.audit_invariants(), AuditError);
}

TEST_F(AuditNetwork, ModelIsConsistentImmediatelyAfterEveryMutation) {
  // Incremental maintenance: no lazy recompute, so every mutation leaves
  // loads_ matching the cached flow maps without any query in between.
  model_.add_source(1, {0, 1}, 1.0);
  EXPECT_NO_THROW(model_.audit_invariants());
  model_.set_rate(1, 3.0);
  EXPECT_NO_THROW(model_.audit_invariants());
  model_.set_ambient_load(tree_.edge_uplink(0), 2.0);
  EXPECT_NO_THROW(model_.audit_invariants());
  model_.remove_source(1);
  EXPECT_NO_THROW(model_.audit_invariants());
}

TEST_F(AuditNetwork, FiresWhenCachedFlowMapDrifts) {
  // The differential audit re-derives every source's flow map from the
  // topology; a corrupted cached unit share must be caught.
  model_.add_source(1, {0, 1, 4, 5}, 2.0);
  rush::cluster::NetworkAuditTestPeer::corrupt_cached_shares(model_);
  EXPECT_THROW(model_.audit_invariants(), AuditError);
}

TEST_F(AuditNetwork, RebuildRestoresCorruptedLoads) {
  model_.add_source(1, {0, 1, 4, 5}, 2.0);
  rush::cluster::NetworkAuditTestPeer::leak_load(model_);
  model_.rebuild();
  EXPECT_NO_THROW(model_.audit_invariants());
}

// --- telemetry/store: time-index ordering -------------------------------

TEST(AuditStore, CleanStoreAuditsQuiet) {
  rush::telemetry::CounterStore store({0, 1}, 2, 8);
  const std::vector<float> frame{1.0f, 2.0f, 3.0f, 4.0f};
  store.add_frame(0.0, frame);
  store.add_frame(1.0, frame);
  EXPECT_NO_THROW(store.audit_invariants());
}

TEST(AuditStore, FiresOnTimeIndexDisorder) {
  rush::telemetry::CounterStore store({0, 1}, 2, 8);
  const std::vector<float> frame{1.0f, 2.0f, 3.0f, 4.0f};
  store.add_frame(0.0, frame);
  store.add_frame(5.0, frame);
  rush::telemetry::AuditTestPeer::swap_frame_times(store);
  EXPECT_THROW(store.audit_invariants(), AuditError);
}

TEST(AuditStore, FiresOnStaleAggregate) {
  rush::telemetry::CounterStore store({0, 1}, 2, 8);
  const std::vector<float> frame{1.0f, 2.0f, 3.0f, 4.0f};
  store.add_frame(0.0, frame);
  rush::telemetry::AuditTestPeer::stale_aggregate(store);
  EXPECT_THROW(store.audit_invariants(), AuditError);
}

TEST(AuditStore, FiresOnBrokenPrefixChain) {
  rush::telemetry::CounterStore store({0, 1}, 2, 8);
  const std::vector<float> frame{1.0f, 2.0f, 3.0f, 4.0f};
  store.add_frame(0.0, frame);
  store.add_frame(1.0, frame);
  rush::telemetry::AuditTestPeer::break_prefix_chain(store);
  EXPECT_THROW(store.audit_invariants(), AuditError);
}

// --- the RUSH_AUDIT build toggle ----------------------------------------

TEST(AuditConfig, HooksMatchBuildConfiguration) {
#if defined(RUSH_AUDIT_ENABLED) && RUSH_AUDIT_ENABLED
  EXPECT_TRUE(rush::audit::enabled());
#else
  EXPECT_FALSE(rush::audit::enabled());
#endif
}

}  // namespace
