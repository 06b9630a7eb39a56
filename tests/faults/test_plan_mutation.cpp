// Seeded mutation test for the fault-plan reader (FaultPlan::from_json,
// over obs::parse_json). Byte flips, truncations, splices and hostile
// tokens (tests/mutation.hpp), nesting far past the parser's depth limit
// among them, are applied to a plan that uses all eight fault kinds. Every
// mutant must load (from_json validates what it returns) or throw
// ParseError.
#include <gtest/gtest.h>

#include <array>
#include <string>
#include <string_view>

#include "faults/plan.hpp"
#include "mutation.hpp"

namespace rush::faults {
namespace {

constexpr int kMutants = 2000;

const std::string kPlan = R"({
  "v": 1,
  "events": [
    {"kind": "node_crash",      "at_s": 100, "node": 3, "duration_s": 600},
    {"kind": "node_drain",      "at_s": 200, "node": 4, "duration_s": 60},
    {"kind": "node_restore",    "at_s": 300, "node": 3},
    {"kind": "link_degrade",    "at_s": 400, "link": 2, "factor": 0.5, "duration_s": 120},
    {"kind": "link_restore",    "at_s": 600, "link": 2},
    {"kind": "sampler_dropout", "at_s": 700, "duration_s": 90},
    {"kind": "counter_corrupt", "at_s": 800, "node": -1, "duration_s": 30},
    {"kind": "canary_timeout",  "at_s": 900, "duration_s": 45.5}
  ]
})";
const std::string kOther = R"({"events": [{"kind": "node_crash", "at_s": 0.25, "node": 511}]})";
const std::string kDeep = std::string(10000, '[') + "1" + std::string(10000, ']');
const std::array<std::string_view, 6> kHostileTokens{
    "nan", "inf", "1e400", "-1", "18446744073709551616", kDeep};

TEST(PlanMutation, EveryMutantLoadsOrThrowsParseError) {
  ASSERT_EQ(FaultPlan::from_json(kPlan).events.size(), 8u);
  Rng rng(20223);
  int loaded = 0;
  for (int i = 0; i < kMutants; ++i) {
    const bool from_plan = i % 4 != 0;
    const std::string mutant = from_plan ? mutation::mutate(rng, kPlan, kOther, kHostileTokens,
                                                            ",:[]{} \n")
                                         : mutation::mutate(rng, kOther, kPlan, kHostileTokens,
                                                            ",:[]{} \n");
    SCOPED_TRACE("mutant " + std::to_string(i));
    try {
      (void)FaultPlan::from_json(mutant);
      ++loaded;
    } catch (const ParseError&) {
      // rejected: the other allowed outcome
    } catch (const std::exception& e) {
      ADD_FAILURE() << "threw " << e.what() << " instead of ParseError";
    }
  }
  // About one in a hundred loads: a flipped digit can still parse, while
  // nearly any other damage breaks the JSON or the schema. Neither bound
  // is close.
  EXPECT_GT(loaded, 5);
  EXPECT_LT(loaded, kMutants / 4);
}

}  // namespace
}  // namespace rush::faults
