#include "obs/json.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "common/error.hpp"

namespace rush::obs {
namespace {

TEST(JsonWriter, FieldsAndNumericElements) {
  std::string out;
  JsonWriter w(out);
  w.begin_object();
  w.field("name", "trial");
  w.field("ok", true);
  w.field("runs", std::uint64_t{3});
  w.begin_array("samples");
  w.element(0.25);
  w.element(1.5);
  w.element(7);
  w.end_array();
  w.end_object();
  EXPECT_EQ(out, R"({"name":"trial","ok":true,"runs":3,"samples":[0.25,1.5,7]})");
}

TEST(JsonWriter, RawElementAndRawFieldSpliceRenderedValues) {
  std::string inner;
  JsonWriter iw(inner);
  iw.begin_object();
  iw.field("line", 42);
  iw.end_object();

  std::string out;
  JsonWriter w(out);
  w.begin_object();
  w.raw_field("region", inner);
  w.begin_array("locations");
  w.raw_element(inner);
  w.raw_element(inner);
  w.end_array();
  w.end_object();
  EXPECT_EQ(out, R"({"region":{"line":42},"locations":[{"line":42},{"line":42}]})");
}

TEST(JsonWriter, EscapesControlCharactersAndQuotes) {
  std::string out;
  JsonWriter w(out);
  w.begin_object();
  w.field("msg", "a\"b\\c\n\td\x01");
  w.end_object();
  EXPECT_EQ(out, "{\"msg\":\"a\\\"b\\\\c\\n\\td\\u0001\"}");
}

TEST(JsonWriter, NonFiniteDoublesRenderAsNull) {
  std::string out;
  JsonWriter w(out);
  w.begin_object();
  w.begin_array("v");
  w.element(std::numeric_limits<double>::infinity());
  w.element(std::numeric_limits<double>::quiet_NaN());
  w.end_array();
  w.end_object();
  EXPECT_EQ(out, R"({"v":[null,null]})");
}

TEST(ParseJson, ReadsWhatTheWriterWrites) {
  std::string out;
  JsonWriter w(out);
  w.begin_object();
  w.field("name", "a \"b\"\n");
  w.field("n", -2.5);
  w.field("ok", false);
  w.begin_object("inner");
  w.begin_array("xs");
  w.element(1.0);
  w.element(std::numeric_limits<double>::quiet_NaN());
  w.end_array();
  w.end_object();
  w.end_object();
  EXPECT_EQ(out, R"({"name":"a \"b\"\n","n":-2.5,"ok":false,"inner":{"xs":[1,null]}})");

  const JsonValue doc = parse_json(out);
  ASSERT_EQ(doc.kind, JsonValue::Kind::Object);
  ASSERT_EQ(doc.members.size(), 4u);
  EXPECT_EQ(doc.members[0].second.text, "a \"b\"\n");
  EXPECT_EQ(doc.members[1].second.number, -2.5);
  EXPECT_EQ(doc.members[2].second.kind, JsonValue::Kind::Bool);
  const JsonValue& xs = doc.members[3].second.members.at(0).second;
  ASSERT_EQ(xs.items.size(), 2u);
  EXPECT_EQ(xs.items[0].number, 1.0);
  EXPECT_EQ(xs.items[1].kind, JsonValue::Kind::Null);
}

TEST(ParseJson, NestingStopsAtTheCap) {
  const auto nested = [](int depth) {
    return std::string(static_cast<std::size_t>(depth), '[') +
           std::string(static_cast<std::size_t>(depth), ']');
  };
  EXPECT_EQ(parse_json(nested(kMaxJsonDepth)).kind, JsonValue::Kind::Array);
  EXPECT_THROW((void)parse_json(nested(kMaxJsonDepth + 1)), ParseError);
}

TEST(ParseJson, ErrorsNameTheByteOffset) {
  try {
    (void)parse_json(R"({"a": 1,})");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("at byte 8"), std::string::npos) << e.what();
  }
  EXPECT_THROW((void)parse_json(R"(["unterminated)"), ParseError);
}

}  // namespace
}  // namespace rush::obs
