// The repo's one CSV module. CsvWriter writes and CsvReader reads every
// CSV cell in src/ (the corpus and trial caches); callers keep only their
// schema. A cell holding a comma, a quote, a newline or a CR is quoted,
// with quotes doubled.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.hpp"

namespace rush {

/// Builds one row of typed cells and writes it to the stream in one call
/// at end_row(). Numbers go through std::to_chars and must be finite.
class CsvWriter {
 public:
  explicit CsvWriter(std::ostream& os) : os_(os) {}

  void text(std::string_view cell);
  void integer(int value);
  void integer(std::uint64_t value);
  /// `digits` decimals, as printf's "%.*f".
  void fixed(double value, int digits);
  /// `digits` significant digits, as printf's "%.*g".
  void general(double value, int digits);
  void end_row();

 private:
  /// The row buffer, after the separator the next cell needs.
  std::string& next_cell();

  std::ostream& os_;
  std::string row_;
  bool row_started_ = false;
};

/// Hands out a CSV document one row at a time. Quoted cells may hold
/// commas, doubled quotes and newlines; a CR outside quotes is dropped; a
/// last row without '\n' counts; empty input has no rows.
class CsvReader {
 public:
  /// Reads all of `is`; `document` names it in error messages.
  CsvReader(std::istream& is, std::string document);

  // Cells are views into the reader's own copy of the input.
  CsvReader(const CsvReader&) = delete;
  CsvReader& operator=(const CsvReader&) = delete;

  /// Advances to the next row; false at the end of the input. Throws
  /// ParseError on an unterminated quoted cell.
  bool next();
  [[nodiscard]] std::size_t size() const noexcept { return cells_.size(); }

  // Typed cells; a malformed one throws error(..., col). A text() view
  // stays valid while the reader lives.
  [[nodiscard]] std::string_view text(std::size_t col) const;
  /// A finite number in std::from_chars syntax (see str::to_double).
  [[nodiscard]] double number(std::size_t col) const;
  /// A base-10 integer that fits T, which is int or std::uint64_t.
  template <class T>
  [[nodiscard]] T integer(std::size_t col) const;
  /// 0 or 1.
  [[nodiscard]] bool flag(std::size_t col) const;

  /// ParseError naming the document, the current row and, if given, the
  /// column, both counted from 1 as an editor shows them.
  [[nodiscard]] ParseError error(std::string_view what) const;
  [[nodiscard]] ParseError error(std::string_view what, std::size_t col) const;

 private:
  std::string document_;
  std::string text_;  // the whole input; quoted cells are unescaped in place
  std::size_t pos_ = 0;
  std::size_t row_ = 0;
  std::vector<std::string_view> cells_;  // views into text_
};

}  // namespace rush
