#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <cmath>
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

TEST(Histogram, CountSumMinMaxMean) {
  Histogram h(0.0, 10.0, 10);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 0.0);  // empty
  h.record(1.0);
  h.record(3.0);
  h.record(5.0);
  EXPECT_EQ(h.count(), 3u);
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
  // [0,10) over 5 buckets of width 2, plus underflow and overflow. A
  // quantile whose rank falls inside a bucket interpolates across that
  // bucket's width, so it shows which bucket holds which sample.
  Histogram h(0.0, 10.0, 5);
  h.record(0.5);   // [0,2)
  h.record(9.9);   // [8,10)
  h.record(-3.0);  // underflow
  h.record(42.0);  // overflow
  h.record(5.0);   // [4,6)
  h.record(10.0);  // hi is exclusive: overflow
  EXPECT_EQ(h.count(), 6u);
  // Ranks 1..6 are the six samples in bucket order.
  EXPECT_DOUBLE_EQ(h.percentile(1.0 / 12.0), -3.0);  // rank 0.5: underflow
  EXPECT_DOUBLE_EQ(h.percentile(0.25), 1.0);         // rank 1.5: mid [0,2)
  EXPECT_DOUBLE_EQ(h.percentile(0.4), 4.8);          // rank 2.4: [2,4) is empty
  EXPECT_DOUBLE_EQ(h.percentile(0.6), 9.2);          // rank 3.6: [6,8) is empty
  EXPECT_DOUBLE_EQ(h.percentile(0.75), 42.0);        // rank 4.5: 10 went to overflow
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
  // Bucket counts 1 | 1, 2, 1, 2 | 1: each rank at a bucket's midpoint
  // lands on its geometric centre, 2^(k + 1/2).
  EXPECT_DOUBLE_EQ(h.percentile(0.0625), 0.5);                // rank 0.5: underflow
  EXPECT_DOUBLE_EQ(h.percentile(0.1875), std::exp2(0.5));     // rank 1.5: [1,2)
  EXPECT_DOUBLE_EQ(h.percentile(0.375), std::exp2(1.5));      // rank 3: [2,4)
  EXPECT_DOUBLE_EQ(h.percentile(0.5625), std::exp2(2.5));     // rank 4.5: [4,8)
  EXPECT_DOUBLE_EQ(h.percentile(0.75), std::exp2(3.5));       // rank 6: [8,16)
  EXPECT_DOUBLE_EQ(h.percentile(0.9375), 16.0);               // rank 7.5: overflow
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
  // Both samples are in the underflow bucket: 0 is not in [1, 2).
  EXPECT_DOUBLE_EQ(h.percentile(0.99), -3.0);
  EXPECT_DOUBLE_EQ(h.mean(), -1.5);
}

TEST(Histogram, Log2RequiresPositiveLowerBound) {
  EXPECT_THROW(Histogram(0.0, 256.0, 8, HistogramScale::Log2), PreconditionError);
  EXPECT_THROW(Histogram(-1.0, 256.0, 8, HistogramScale::Log2), PreconditionError);
}

TEST(MetricsRegistry, HistogramForwardsScale) {
  // Over [1,16) in 4 buckets, the quantile at the middle of the lowest
  // bucket is sqrt(2) for octave buckets ([1,2)) and 2.875 for uniform
  // ones ([1,4.75)).
  MetricsRegistry reg;
  Histogram& depth = reg.histogram("depth", 1.0, 16.0, 4, HistogramScale::Log2);
  // Scale defaults to Uniform for everyone else.
  Histogram& wait = reg.histogram("wait", 1.0, 16.0, 4);
  for (Histogram* h : {&depth, &wait}) {
    h->record(1.0);
    h->record(15.0);
  }
  EXPECT_DOUBLE_EQ(depth.percentile(0.25), std::sqrt(2.0));
  EXPECT_DOUBLE_EQ(wait.percentile(0.25), 2.875);
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
  Histogram& h = reg.histogram("wait", 0.0, 100.0, 10);
  h.record(10.0);
  h.record(20.0);
  const std::string json = reg.snapshot_json();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"jobs\":3"), std::string::npos);
  EXPECT_NE(json.find("\"wait\""), std::string::npos);
  EXPECT_NE(json.find("\"count\":2"), std::string::npos);
  EXPECT_NE(json.find("\"p50\""), std::string::npos);
  EXPECT_NE(json.find("\"p90\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
}

TEST(MetricsRegistry, SnapshotKeepsItsBytes) {
  MetricsRegistry reg;
  reg.counter("sched.passes").inc(3);
  reg.counter("queue \"depth\"").inc(2);
  Histogram& h = reg.histogram("wait_s", 0.0, 100.0, 10);
  h.record(10.0);
  h.record(25.0);
  h.record(0.1);
  EXPECT_EQ(reg.snapshot_json(),
            R"({"counters":{"queue \"depth\"":2,"sched.passes":3},)"
            R"("histograms":{"wait_s":{"count":3,"mean":11.700000000000001,"min":0.1,"max":25,)"
            R"("p50":15,"p90":25,"p99":25}}})");
}

TEST(MetricsRegistry, SnapshotIsDeterministic) {
  auto build = [] {
    MetricsRegistry reg;
    reg.counter("b").inc(2);
    reg.counter("a").inc(1);
    return reg.snapshot_json();
  };
  EXPECT_EQ(build(), build());
  // Keys come out sorted regardless of creation order.
  const std::string json = build();
  EXPECT_LT(json.find("\"a\":1"), json.find("\"b\":2"));
}

}  // namespace
}  // namespace rush::obs
