#include "telemetry/schema.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>

namespace rush::telemetry {
namespace {

TEST(Schema, TableCountsMatchPaperTableOne) {
  EXPECT_EQ(num_counters(), 90u);
  EXPECT_EQ(counters_in_table(CounterTable::SysClassIb), 22u);
  EXPECT_EQ(counters_in_table(CounterTable::OpaInfo), 34u);
  EXPECT_EQ(counters_in_table(CounterTable::LustreClient), 34u);
}

TEST(Schema, QualifiedNamesAreUnique) {
  std::set<std::string> names;
  for (const CounterDef& def : counter_schema()) names.insert(qualified_name(def));
  EXPECT_EQ(names.size(), num_counters());
}

TEST(Schema, QualifiedNamesUseTablePrefixes) {
  bool saw_ib = false, saw_opa = false, saw_lustre = false;
  for (const CounterDef& def : counter_schema()) {
    const std::string q = qualified_name(def);
    if (q.rfind("sysclassib.", 0) == 0) saw_ib = true;
    if (q.rfind("opa_info.", 0) == 0) saw_opa = true;
    if (q.rfind("lustre_client.", 0) == 0) saw_lustre = true;
  }
  EXPECT_TRUE(saw_ib);
  EXPECT_TRUE(saw_opa);
  EXPECT_TRUE(saw_lustre);
}

TEST(Schema, ValuesAreNonNegative) {
  Rng rng(1);
  NodeSignals s;
  s.xmit_gbps = 3.0;
  s.recv_gbps = 3.0;
  s.edge_util = 0.8;
  s.pod_util = 0.4;
  s.io_read_gbps = 1.0;
  s.io_write_gbps = 0.5;
  s.io_pressure = 0.3;
  const KindSignals signals = kind_signals(s);
  for (const CounterDef& def : counter_schema()) {
    for (int i = 0; i < 20; ++i) EXPECT_GE(synth_step(def, signals, rng), 0.0);
  }
}

CounterDef find_counter(const char* name) {
  for (const CounterDef& def : counter_schema())
    if (std::string(def.name) == name) return def;
  ADD_FAILURE() << "counter not found: " << name;
  return counter_schema()[0];
}

double mean_value(const CounterDef& def, const NodeSignals& s, std::uint64_t seed) {
  Rng rng(seed);
  double sum = 0.0;
  const int n = 400;
  const KindSignals signals = kind_signals(s);
  for (int i = 0; i < n; ++i) sum += synth_step(def, signals, rng);
  return sum / n;
}

TEST(Schema, XmitCounterTracksNodeTraffic) {
  const CounterDef def = find_counter("port_xmit_data");
  NodeSignals lo, hi;
  lo.xmit_gbps = 0.5;
  hi.xmit_gbps = 5.0;
  EXPECT_GT(mean_value(def, hi, 2), 5.0 * mean_value(def, lo, 2));
}

TEST(Schema, CongestionWaitCountersHaveAKnee) {
  const CounterDef def = find_counter("portXmitWait");
  NodeSignals calm, congested;
  calm.edge_util = 0.3;  // below the knee: silent
  congested.edge_util = 1.0;
  EXPECT_NEAR(mean_value(def, calm, 3), 0.0, 1e-9);
  EXPECT_GT(mean_value(def, congested, 3), 1.0);
}

TEST(Schema, LustreBytesTrackIoRates) {
  const CounterDef def = find_counter("read_bytes");
  NodeSignals lo, hi;
  lo.io_read_gbps = 0.1;
  hi.io_read_gbps = 1.0;
  EXPECT_GT(mean_value(def, hi, 4), 5.0 * mean_value(def, lo, 4));
}

TEST(Schema, IoPressureCountersRespond) {
  const CounterDef def = find_counter("rpc_in_flight");
  NodeSignals healthy, pressured;
  pressured.io_pressure = 1.0;
  EXPECT_GT(mean_value(def, pressured, 5), mean_value(def, healthy, 5) * 2.0);
}

TEST(Schema, CacheHitRatioFallsUnderPressure) {
  const CounterDef def = find_counter("cache_hit_ratio");
  NodeSignals healthy, pressured;
  pressured.io_pressure = 1.0;
  EXPECT_LT(mean_value(def, pressured, 6), mean_value(def, healthy, 6));
}

TEST(Schema, ErrorCountersAreRareIntegers) {
  const CounterDef def = find_counter("symbol_error");
  Rng rng(7);
  NodeSignals s;
  s.edge_util = 0.5;
  const KindSignals signals = kind_signals(s);
  for (int i = 0; i < 100; ++i) {
    const double v = synth_step(def, signals, rng);
    EXPECT_EQ(v, std::floor(v));
    EXPECT_LT(v, 50.0);
  }
}

}  // namespace
}  // namespace rush::telemetry
