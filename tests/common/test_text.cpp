// Tests for Table, CSV, and string utilities.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <sstream>

#include "common/csv.hpp"
#include "common/error.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"

namespace rush {
namespace {

TEST(Table, RendersAlignedColumns) {
  Table t({"app", "runs"});
  t.add_row({"Laghos", "27"});
  t.add_row({"AMG", "3"});
  const std::string out = t.render();
  EXPECT_NE(out.find("app    | runs"), std::string::npos);
  EXPECT_NE(out.find("-------+-----"), std::string::npos);
  EXPECT_NE(out.find("Laghos | 27"), std::string::npos);
  EXPECT_NE(out.find("AMG    | 3"), std::string::npos);
}

TEST(Table, RejectsWrongArity) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), PreconditionError);
}

TEST(Table, CellAccess) {
  Table t({"a"});
  t.add_row({"x"});
  EXPECT_EQ(t.cell(0, 0), "x");
  EXPECT_THROW((void)t.cell(1, 0), PreconditionError);
  EXPECT_THROW((void)t.cell(0, 1), PreconditionError);
}

TEST(Table, NumberFormatting) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(2.0, 0), "2");
}

/// Every row of `text`, each as its cells.
std::vector<std::vector<std::string>> read_rows(const std::string& text) {
  std::istringstream is(text);
  CsvReader reader(is, "test CSV");
  std::vector<std::vector<std::string>> rows;
  while (reader.next()) {
    rows.emplace_back();
    for (std::size_t c = 0; c < reader.size(); ++c) rows.back().emplace_back(reader.text(c));
  }
  return rows;
}

TEST(Csv, WriteSimpleRow) {
  std::ostringstream os;
  CsvWriter w(os);
  for (const char* cell : {"a", "b", "c"}) w.text(cell);
  w.end_row();
  EXPECT_EQ(os.str(), "a,b,c\n");
}

TEST(Csv, QuotesSpecialCharacters) {
  std::ostringstream os;
  CsvWriter w(os);
  for (const char* cell : {"has,comma", "has\"quote", "has\nnewline", "has\rcr", "plain"})
    w.text(cell);
  w.end_row();
  EXPECT_EQ(os.str(),
            "\"has,comma\",\"has\"\"quote\",\"has\nnewline\",\"has\rcr\",plain\n");
}

TEST(Csv, NumericRowPrecision) {
  std::ostringstream os;
  CsvWriter w(os);
  for (const double v : {1.5, 2.0, -0.25}) w.general(v, 6);
  w.end_row();
  // The longest cell: every integer digit of the lowest double, then 17
  // decimals, as printf writes it.
  const double lowest = std::numeric_limits<double>::lowest();
  char longest[400];
  std::snprintf(longest, sizeof longest, "%.17f", lowest);
  w.fixed(lowest, 17);
  w.fixed(-0.0, 6);
  w.general(1e21, 9);
  w.integer(-7);
  w.integer(std::uint64_t{18446744073709551615ULL});
  w.end_row();
  EXPECT_EQ(os.str(), "1.5,2,-0.25\n" + std::string(longest) +
                          ",-0.000000,1e+21,-7,18446744073709551615\n");
  EXPECT_THROW(w.general(std::nan(""), 9), PreconditionError);
  EXPECT_THROW(w.fixed(HUGE_VAL, 6), PreconditionError);
}

TEST(Csv, RoundTripWithQuoting) {
  std::ostringstream os;
  CsvWriter w(os);
  for (const char* cell : {"x,y", "line1\nline2", "q\"q", "", "cr\rcell"}) w.text(cell);
  w.end_row();
  for (const char* cell : {"1", "2", "3", "4"}) w.text(cell);
  w.end_row();
  const auto rows = read_rows(os.str());
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], (std::vector<std::string>{"x,y", "line1\nline2", "q\"q", "", "cr\rcell"}));
  EXPECT_EQ(rows[1], (std::vector<std::string>{"1", "2", "3", "4"}));
}

TEST(Csv, ParsesCrlfAndMissingTrailingNewline) {
  const auto rows = read_rows("a,b\r\nc,d");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[1], (std::vector<std::string>{"c", "d"}));
}

TEST(Csv, EmptyTextYieldsNoRows) { EXPECT_TRUE(read_rows("").empty()); }

TEST(Csv, ThrowsOnUnterminatedQuote) {
  EXPECT_THROW(read_rows("\"open"), ParseError);
}

TEST(Csv, TypedCellsNameTheirRowAndColumn) {
  std::istringstream is(
      "n,seed,on\n2.5,18446744073709551615,1\nnan,-1,2\n+1.5,0x1p3,1e-400,1e400,1e-310,-0\n");
  CsvReader reader(is, "test CSV");
  ASSERT_TRUE(reader.next());
  ASSERT_TRUE(reader.next());
  EXPECT_DOUBLE_EQ(reader.number(0), 2.5);
  EXPECT_EQ(reader.integer<std::uint64_t>(1), 18446744073709551615ULL);
  EXPECT_THROW((void)reader.integer<int>(1), ParseError);
  EXPECT_TRUE(reader.flag(2));
  ASSERT_TRUE(reader.next());
  const auto message = [](const auto& parse) -> std::string {
    try {
      parse();
    } catch (const ParseError& e) {
      return e.what();
    }
    return "parsed";
  };
  EXPECT_EQ(message([&] { (void)reader.number(0); }),
            "test CSV row 3, column 1: not a finite number: 'nan'");
  EXPECT_EQ(message([&] { (void)reader.integer<std::uint64_t>(1); }),
            "test CSV row 3, column 2: malformed unsigned integer: '-1'");
  EXPECT_EQ(message([&] { (void)reader.flag(2); }),
            "test CSV row 3, column 3: flag must be 0 or 1, not '2'");
  // Cells the writer never emits. strtod read the first three as 1.5, 8
  // and 0; std::from_chars rejects them. A denormal still loads.
  ASSERT_TRUE(reader.next());
  EXPECT_EQ(message([&] { (void)reader.number(0); }),
            "test CSV row 4, column 1: malformed double: '+1.5'");
  EXPECT_EQ(message([&] { (void)reader.number(1); }),
            "test CSV row 4, column 2: malformed double: '0x1p3'");
  EXPECT_EQ(message([&] { (void)reader.number(2); }),
            "test CSV row 4, column 3: number out of range: '1e-400'");
  EXPECT_EQ(message([&] { (void)reader.number(3); }),
            "test CSV row 4, column 4: number out of range: '1e400'");
  EXPECT_EQ(reader.number(4), 1e-310);
  EXPECT_TRUE(std::signbit(reader.number(5)));
  EXPECT_FALSE(reader.next());
}

TEST(Strings, Split) {
  EXPECT_EQ(str::split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(str::split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(str::split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(str::split("trailing,", ','), (std::vector<std::string>{"trailing", ""}));
}

TEST(Strings, Join) {
  EXPECT_EQ(str::join({"a", "b"}, ", "), "a, b");
  EXPECT_EQ(str::join({}, ","), "");
  EXPECT_EQ(str::join({"solo"}, ","), "solo");
}

TEST(Strings, Trim) {
  EXPECT_EQ(str::trim("  x  "), "x");
  EXPECT_EQ(str::trim("\t\r\nx\n"), "x");
  EXPECT_EQ(str::trim("   "), "");
  EXPECT_EQ(str::trim("no-ws"), "no-ws");
}

TEST(Strings, StartsWith) {
  EXPECT_TRUE(str::starts_with("prefix-rest", "prefix"));
  EXPECT_FALSE(str::starts_with("pre", "prefix"));
  EXPECT_TRUE(str::starts_with("anything", ""));
}

TEST(Strings, ToDoubleStrict) {
  EXPECT_DOUBLE_EQ(str::to_double("3.5"), 3.5);
  EXPECT_DOUBLE_EQ(str::to_double("  -2e3 "), -2000.0);
  EXPECT_THROW((void)str::to_double("abc"), ParseError);
  EXPECT_THROW((void)str::to_double("1.5x"), ParseError);
  EXPECT_THROW((void)str::to_double(""), ParseError);
}

TEST(Strings, ToIntStrict) {
  EXPECT_EQ(str::to_int("42"), 42);
  EXPECT_EQ(str::to_int(" -7 "), -7);
  EXPECT_THROW((void)str::to_int("4.2"), ParseError);
  EXPECT_THROW((void)str::to_int(""), ParseError);
  EXPECT_THROW((void)str::to_int("9223372036854775808"), ParseError);
  EXPECT_EQ(str::to_uint("18446744073709551615"), 18446744073709551615ULL);
  EXPECT_THROW((void)str::to_uint("18446744073709551616"), ParseError);
  EXPECT_THROW((void)str::to_uint("-1"), ParseError);
}

TEST(Strings, FormatDuration) {
  EXPECT_EQ(str::format_duration(12.345), "12.35s");
  EXPECT_EQ(str::format_duration(125.0), "2m5.0s");
  EXPECT_EQ(str::format_duration(3725.0), "1h2m5s");
  EXPECT_EQ(str::format_duration(-30.0), "-30.00s");
}

}  // namespace
}  // namespace rush
