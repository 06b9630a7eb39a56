#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <string>

#include "common/error.hpp"

namespace rush::obs {
namespace {

TEST(Counter, StartsAtZeroAndAccumulates) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(Gauge, HoldsLastValue) {
  Gauge g;
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  g.set(3.5);
  g.set(-1.25);
  EXPECT_DOUBLE_EQ(g.value(), -1.25);
}

TEST(Histogram, CountSumMinMaxMean) {
  Histogram h(0.0, 10.0, 10);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 0.0);  // empty
  h.record(1.0);
  h.record(3.0);
  h.record(5.0);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.sum(), 9.0);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 5.0);
  EXPECT_DOUBLE_EQ(h.mean(), 3.0);
}

TEST(Histogram, PercentilesOnUniformData) {
  // 1000 evenly spaced samples over [0, 100): percentiles should land
  // within one bucket width (1.0) of the exact quantile.
  Histogram h(0.0, 100.0, 100);
  for (int i = 0; i < 1000; ++i) h.record(static_cast<double>(i) * 0.1);
  EXPECT_NEAR(h.percentile(0.50), 50.0, 1.0);
  EXPECT_NEAR(h.percentile(0.90), 90.0, 1.0);
  EXPECT_NEAR(h.percentile(0.99), 99.0, 1.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(h.percentile(1.0), 99.9);
}

TEST(Histogram, PercentileIsMonotoneInQ) {
  Histogram h(0.0, 1.0, 20);
  for (int i = 0; i < 500; ++i) h.record(static_cast<double>(i % 97) / 96.0);
  double prev = h.percentile(0.0);
  for (double q = 0.05; q <= 1.0; q += 0.05) {
    const double v = h.percentile(q);
    EXPECT_GE(v, prev) << "q=" << q;
    prev = v;
  }
}

TEST(Histogram, UnderflowOverflowClampToObservedExtremes) {
  Histogram h(0.0, 10.0, 10);
  h.record(-5.0);   // underflow bucket
  h.record(100.0);  // overflow bucket
  EXPECT_EQ(h.count(), 2u);
  EXPECT_DOUBLE_EQ(h.min(), -5.0);
  EXPECT_DOUBLE_EQ(h.max(), 100.0);
  // Quantiles never extrapolate beyond what was actually observed.
  EXPECT_GE(h.percentile(0.01), -5.0);
  EXPECT_LE(h.percentile(0.99), 100.0);
}

TEST(Histogram, BinningAndClamping) {
  // [0,10) over 5 buckets of width 2, plus underflow (index 0) and
  // overflow (index 6).
  Histogram h(0.0, 10.0, 5);
  h.record(0.5);   // [0,2)
  h.record(9.9);   // [8,10)
  h.record(-3.0);  // underflow
  h.record(42.0);  // overflow
  h.record(5.0);   // [4,6)
  h.record(10.0);  // hi is exclusive: overflow
  EXPECT_EQ(h.count(), 6u);
  EXPECT_EQ(h.buckets(), (std::vector<std::uint64_t>{1, 1, 0, 1, 0, 1, 2}));
}

TEST(Histogram, RejectsBadConstruction) {
  EXPECT_THROW(Histogram(1.0, 1.0, 4), PreconditionError);
  EXPECT_THROW(Histogram(2.0, 1.0, 4), PreconditionError);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), PreconditionError);
}

TEST(Histogram, SingleSampleAllPercentilesEqualIt) {
  Histogram h(0.0, 10.0, 10);
  h.record(7.25);
  EXPECT_DOUBLE_EQ(h.percentile(0.0), 7.25);
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 7.25);
  EXPECT_DOUBLE_EQ(h.percentile(1.0), 7.25);
}

TEST(Histogram, Log2BucketBoundariesArePowersOfTwo) {
  // [1,16) over 4 buckets: [1,2) [2,4) [4,8) [8,16), plus under/overflow.
  Histogram h(1.0, 16.0, 4, HistogramScale::Log2);
  h.record(1.0);
  h.record(2.0);
  h.record(3.999);
  h.record(4.0);
  h.record(8.0);
  h.record(15.999);
  h.record(0.5);   // underflow
  h.record(16.0);  // overflow (hi is exclusive)
  const auto b = h.buckets();
  ASSERT_EQ(b.size(), 6u);
  EXPECT_EQ(b[0], 1u);
  EXPECT_EQ(b[1], 1u);
  EXPECT_EQ(b[2], 2u);
  EXPECT_EQ(b[3], 1u);
  EXPECT_EQ(b[4], 2u);
  EXPECT_EQ(b[5], 1u);
}

TEST(Histogram, Log2QueueDepthShapeDoesNotClipDeepQueues) {
  // The sched.queue_depth regression: the old uniform 0..256 shape
  // dumped every deep-queue sample into the overflow bucket, so p50/p99
  // saturated at 256. The Log2 shape the schedulers register (lo=1,
  // hi=16384, 28 buckets => 2 buckets per octave, bucket edges a factor
  // of sqrt(2) apart) resolves depth 4096 to within one geometric
  // bucket.
  Histogram h(1.0, 16384.0, 28, HistogramScale::Log2);
  for (int i = 0; i < 1000; ++i) h.record(4096.0);
  const double p50 = h.percentile(0.5);
  EXPECT_GE(p50, 4096.0 / 1.4143);
  EXPECT_LE(p50, 4096.0 * 1.4143);
  EXPECT_GT(p50, 256.0);  // the clipped value the uniform shape reported
  // Shallow depths still resolve: octave buckets are fine-grained at
  // the low end of the range.
  Histogram shallow(1.0, 16384.0, 28, HistogramScale::Log2);
  for (int i = 0; i < 1000; ++i) shallow.record(3.0);
  EXPECT_NEAR(shallow.percentile(0.5), 3.0, 1.25);
}

TEST(Histogram, Log2PercentileInterpolatesGeometrically) {
  Histogram h(1.0, 1024.0, 10, HistogramScale::Log2);  // one bucket per octave
  for (int i = 0; i < 1000; ++i) h.record(static_cast<double>(1 + (i % 1000)));
  // Monotone in q, and each quantile within one octave of the truth.
  double prev = h.percentile(0.0);
  for (double q = 0.1; q <= 0.9; q += 0.1) {
    const double v = h.percentile(q);
    EXPECT_GE(v, prev) << "q=" << q;
    const double exact = q * 1000.0;
    EXPECT_GE(v, exact / 2.0) << "q=" << q;
    EXPECT_LE(v, exact * 2.0) << "q=" << q;
    prev = v;
  }
}

TEST(Histogram, Log2ZeroAndNegativeGoToUnderflowWithoutNan) {
  Histogram h(1.0, 256.0, 8, HistogramScale::Log2);
  h.record(0.0);
  h.record(-3.0);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_DOUBLE_EQ(h.min(), -3.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.5), -3.0);  // underflow reports observed min
  EXPECT_EQ(h.buckets()[0], 2u);
}

TEST(Histogram, Log2RequiresPositiveLowerBound) {
  EXPECT_THROW(Histogram(0.0, 256.0, 8, HistogramScale::Log2), PreconditionError);
  EXPECT_THROW(Histogram(-1.0, 256.0, 8, HistogramScale::Log2), PreconditionError);
}

TEST(MetricsRegistry, HistogramForwardsScale) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("depth", 1.0, 16.0, 4, HistogramScale::Log2);
  EXPECT_EQ(h.scale(), HistogramScale::Log2);
  h.record(3.0);  // lands in the [2,4) octave bucket, not uniform slot 1
  EXPECT_EQ(h.buckets()[2], 1u);
  // Scale defaults to Uniform for everyone else.
  EXPECT_EQ(reg.histogram("wait", 0.0, 10.0, 4).scale(), HistogramScale::Uniform);
}

TEST(MetricsRegistry, InstrumentsAreStableAcrossLookups) {
  MetricsRegistry reg;
  Counter& a = reg.counter("x");
  a.inc(5);
  EXPECT_EQ(&reg.counter("x"), &a);
  EXPECT_EQ(reg.counter("x").value(), 5u);
  Histogram& h = reg.histogram("h", 0.0, 1.0, 4);
  // Later shape arguments are ignored for an existing name.
  EXPECT_EQ(&reg.histogram("h", 5.0, 9.0, 99), &h);
}

TEST(MetricsRegistry, SnapshotJsonContainsEveryInstrument) {
  MetricsRegistry reg;
  reg.counter("jobs").inc(3);
  reg.gauge("depth").set(2.5);
  Histogram& h = reg.histogram("wait", 0.0, 100.0, 10);
  h.record(10.0);
  h.record(20.0);
  const std::string json = reg.snapshot_json();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"jobs\":3"), std::string::npos);
  EXPECT_NE(json.find("\"depth\":2.5"), std::string::npos);
  EXPECT_NE(json.find("\"wait\""), std::string::npos);
  EXPECT_NE(json.find("\"count\":2"), std::string::npos);
  EXPECT_NE(json.find("\"p50\""), std::string::npos);
  EXPECT_NE(json.find("\"p90\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
}

TEST(MetricsRegistry, SnapshotKeepsItsBytes) {
  MetricsRegistry reg;
  reg.counter("sched.passes").inc(3);
  reg.gauge("queue \"depth\"").set(2.5);
  Histogram& h = reg.histogram("wait_s", 0.0, 100.0, 10);
  h.record(10.0);
  h.record(25.0);
  h.record(0.1);
  EXPECT_EQ(reg.snapshot_json(),
            R"({"counters":{"sched.passes":3},"gauges":{"queue \"depth\"":2.5},)"
            R"("histograms":{"wait_s":{"count":3,"mean":11.700000000000001,"min":0.1,"max":25,)"
            R"("p50":15,"p90":25,"p99":25}}})");
}

TEST(MetricsRegistry, SnapshotIsDeterministic) {
  auto build = [] {
    MetricsRegistry reg;
    reg.counter("b").inc(2);
    reg.counter("a").inc(1);
    reg.gauge("g").set(1.5);
    return reg.snapshot_json();
  };
  EXPECT_EQ(build(), build());
  // Keys come out sorted regardless of creation order.
  const std::string json = build();
  EXPECT_LT(json.find("\"a\":1"), json.find("\"b\":2"));
}

}  // namespace
}  // namespace rush::obs
