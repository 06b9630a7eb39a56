// FaultPlan JSON parsing and validation (docs/fault-injection.md schema).
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "common/error.hpp"
#include "faults/plan.hpp"

using rush::ParseError;
using namespace rush::faults;

TEST(FaultPlan, ParsesEveryKindWithDefaults) {
  const FaultPlan plan = FaultPlan::from_json(R"({
    "v": 1,
    "events": [
      {"kind": "node_crash",      "at_s": 100, "node": 3},
      {"kind": "node_drain",      "at_s": 200, "node": 4, "duration_s": 60},
      {"kind": "node_restore",    "at_s": 300, "node": 3},
      {"kind": "link_degrade",    "at_s": 400, "link": 2, "factor": 0.5, "duration_s": 120},
      {"kind": "link_restore",    "at_s": 600, "link": 2},
      {"kind": "sampler_dropout", "at_s": 700, "duration_s": 90},
      {"kind": "counter_corrupt", "at_s": 800, "node": 7, "duration_s": 30},
      {"kind": "canary_timeout",  "at_s": 900, "duration_s": 45.5}
    ]
  })");
  ASSERT_EQ(plan.events.size(), 8u);
  EXPECT_FALSE(plan.empty());

  EXPECT_EQ(plan.events[0].kind, FaultKind::NodeCrash);
  EXPECT_DOUBLE_EQ(plan.events[0].at_s, 100.0);
  EXPECT_EQ(plan.events[0].node, 3);
  EXPECT_EQ(plan.events[0].link, -1);         // default
  EXPECT_DOUBLE_EQ(plan.events[0].factor, 1.0);       // default
  EXPECT_DOUBLE_EQ(plan.events[0].duration_s, 0.0);   // default: permanent

  EXPECT_EQ(plan.events[3].kind, FaultKind::LinkDegrade);
  EXPECT_DOUBLE_EQ(plan.events[3].factor, 0.5);
  EXPECT_EQ(plan.events[6].node, 7);
  EXPECT_DOUBLE_EQ(plan.events[7].duration_s, 45.5);
}

TEST(FaultPlan, KindNamesRoundTrip) {
  for (int k = 0; k < kNumFaultKinds; ++k) {
    const auto kind = static_cast<FaultKind>(k);
    FaultKind back = FaultKind::NodeCrash;
    ASSERT_TRUE(fault_kind_from_name(fault_kind_name(kind), back)) << fault_kind_name(kind);
    EXPECT_EQ(back, kind);
  }
  FaultKind out;
  EXPECT_FALSE(fault_kind_from_name("meteor_strike", out));
}

TEST(FaultPlan, EmptyEventsIsAValidEmptyPlan) {
  const FaultPlan plan = FaultPlan::from_json(R"({"events": []})");
  EXPECT_TRUE(plan.empty());
}

TEST(FaultPlan, MalformedDocumentsAreRejected) {
  // Not an object / trailing garbage / bad version.
  EXPECT_THROW((void)FaultPlan::from_json("[]"), ParseError);
  EXPECT_THROW((void)FaultPlan::from_json(R"({"events": []} extra)"), ParseError);
  EXPECT_THROW((void)FaultPlan::from_json(R"({"v": 2, "events": []})"), ParseError);
  EXPECT_THROW((void)FaultPlan::from_json(R"({"v": 1})"), ParseError);  // missing events
  // Unknown keys anywhere are errors, not silently ignored.
  EXPECT_THROW((void)FaultPlan::from_json(R"({"events": [], "comment": "x"})"), ParseError);
  EXPECT_THROW(
      (void)FaultPlan::from_json(
          R"({"events": [{"kind": "node_crash", "at_s": 1, "node": 0, "severity": 3}]})"),
      ParseError);
  // Missing required keys.
  EXPECT_THROW((void)FaultPlan::from_json(R"({"events": [{"at_s": 1, "node": 0}]})"), ParseError);
  EXPECT_THROW((void)FaultPlan::from_json(R"({"events": [{"kind": "node_crash", "node": 0}]})"),
               ParseError);
  EXPECT_THROW((void)FaultPlan::from_json(R"({"events": [{"kind": "warp_core", "at_s": 1}]})"),
               ParseError);
  // Nesting past obs::kMaxJsonDepth stops the reader before the stack does.
  EXPECT_THROW((void)FaultPlan::from_json(std::string(100000, '[')), ParseError);
}

TEST(FaultPlan, ValidationRejectsBadTargetsAndRanges) {
  auto reject = [](const char* json) {
    EXPECT_THROW((void)FaultPlan::from_json(json), ParseError) << json;
  };
  // Node kinds need a node.
  reject(R"({"events": [{"kind": "node_crash", "at_s": 1}]})");
  reject(R"({"events": [{"kind": "node_restore", "at_s": 1}]})");
  // Link kinds need a link; degrade factor must be in (0, 1].
  reject(R"({"events": [{"kind": "link_degrade", "at_s": 1, "factor": 0.5}]})");
  reject(R"({"events": [{"kind": "link_degrade", "at_s": 1, "link": 0, "factor": 0}]})");
  reject(R"({"events": [{"kind": "link_degrade", "at_s": 1, "link": 0, "factor": 1.5}]})");
  // Window kinds need a positive duration.
  reject(R"({"events": [{"kind": "sampler_dropout", "at_s": 1}]})");
  reject(R"({"events": [{"kind": "canary_timeout", "at_s": 1, "duration_s": 0}]})");
  // Times must be finite and non-negative.
  reject(R"({"events": [{"kind": "node_crash", "at_s": -5, "node": 0}]})");
  reject(R"({"events": [{"kind": "node_crash", "at_s": 1, "node": 0, "duration_s": -1}]})");
  // Targets are integers that fit int32: no truncation, no overflow.
  reject(R"({"events": [{"kind": "node_crash", "at_s": 1, "node": 2.5}]})");
  reject(R"({"events": [{"kind": "node_crash", "at_s": 1, "node": 1e30}]})");
  reject(R"({"events": [{"kind": "link_restore", "at_s": 1, "link": -3000000000}]})");
  // factor = 1.0 is legal (degenerate but harmless).
  const FaultPlan ok = FaultPlan::from_json(
      R"({"events": [{"kind": "link_degrade", "at_s": 1, "link": 0, "factor": 1.0}]})");
  EXPECT_EQ(ok.events.size(), 1u);
  // CounterCorrupt without a node targets every node.
  const FaultPlan all = FaultPlan::from_json(
      R"({"events": [{"kind": "counter_corrupt", "at_s": 1, "duration_s": 10}]})");
  EXPECT_EQ(all.events[0].node, -1);
  const FaultPlan widest = FaultPlan::from_json(
      R"({"events": [{"kind": "node_crash", "at_s": 1, "node": 2147483647}]})");
  EXPECT_EQ(widest.events[0].node, 2147483647);
}

TEST(FaultPlan, StreamOverloadMatchesStringOverload) {
  const char* json =
      R"({"events": [{"kind": "node_drain", "at_s": 10, "node": 1, "duration_s": 5}]})";
  std::istringstream in(json);
  const FaultPlan from_stream = FaultPlan::from_json(in);
  const FaultPlan from_string = FaultPlan::from_json(json);
  ASSERT_EQ(from_stream.events.size(), from_string.events.size());
  EXPECT_EQ(from_stream.events[0].kind, from_string.events[0].kind);
  EXPECT_DOUBLE_EQ(from_stream.events[0].at_s, from_string.events[0].at_s);
  EXPECT_EQ(from_stream.events[0].node, from_string.events[0].node);
  EXPECT_DOUBLE_EQ(from_stream.events[0].duration_s, from_string.events[0].duration_s);
}
