#include "common/csv.hpp"

#include <charconv>
#include <cmath>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <type_traits>

#include "common/strings.hpp"

namespace rush {

namespace {

constexpr int kMaxDigits = std::numeric_limits<double>::max_digits10;

template <class... Format>
void append_chars(std::string& out, Format... format) {
  // A sign, the 309 integer digits of fixed(1e308), a point, the decimals.
  char buf[1 + std::numeric_limits<double>::max_exponent10 + 1 + 1 + kMaxDigits];
  const auto res = std::to_chars(buf, buf + sizeof buf, format...);
  RUSH_ASSERT(res.ec == std::errc{});
  out.append(buf, res.ptr);
}

/// parse(cell), with the ParseError it throws renamed to the cell.
template <class Parse>
auto parse_cell(const CsvReader& reader, std::size_t col, const Parse& parse) {
  try {
    return parse(reader.text(col));
  } catch (const ParseError& e) {
    throw reader.error(e.what(), col);
  }
}

}  // namespace

std::string& CsvWriter::next_cell() {
  if (row_started_) row_ += ',';
  row_started_ = true;
  return row_;
}

void CsvWriter::text(std::string_view cell) {
  std::string& out = next_cell();
  if (cell.find_first_of(",\"\n\r") == std::string_view::npos) {
    out += cell;
    return;
  }
  out += '"';
  for (const char ch : cell) {
    if (ch == '"') out += '"';
    out += ch;
  }
  out += '"';
}

void CsvWriter::integer(int value) { append_chars(next_cell(), value); }

void CsvWriter::integer(std::uint64_t value) { append_chars(next_cell(), value); }

void CsvWriter::fixed(double value, int digits) {
  RUSH_EXPECTS(std::isfinite(value) && digits >= 0 && digits <= kMaxDigits);
  append_chars(next_cell(), value, std::chars_format::fixed, digits);
}

void CsvWriter::general(double value, int digits) {
  RUSH_EXPECTS(std::isfinite(value) && digits >= 0 && digits <= kMaxDigits);
  append_chars(next_cell(), value, std::chars_format::general, digits);
}

void CsvWriter::end_row() {
  row_ += '\n';
  os_.write(row_.data(), static_cast<std::streamsize>(row_.size()));
  row_.clear();
  row_started_ = false;
}

CsvReader::CsvReader(std::istream& is, std::string document) : document_(std::move(document)) {
  std::ostringstream buffer;
  buffer << is.rdbuf();
  text_ = std::move(buffer).str();
}

bool CsvReader::next() {
  cells_.clear();
  char* const data = text_.data();
  // Each cell's bytes are compacted to [start, out): unescaping only
  // shortens a cell, so `out` never passes the read position.
  std::size_t start = pos_;
  std::size_t out = pos_;
  bool in_quotes = false;
  bool started = false;
  while (pos_ < text_.size()) {
    const char ch = data[pos_++];
    if (in_quotes) {
      if (ch != '"') {
        data[out++] = ch;
      } else if (pos_ < text_.size() && data[pos_] == '"') {
        data[out++] = data[pos_++];
      } else {
        in_quotes = false;
      }
      continue;
    }
    switch (ch) {
      case '"':
        in_quotes = started = true;
        break;
      case ',':
        cells_.emplace_back(data + start, out - start);
        start = out = pos_;
        started = true;  // the next cell exists even if empty
        break;
      case '\n':
        cells_.emplace_back(data + start, out - start);
        ++row_;
        return true;
      case '\r':
        break;
      default:
        data[out++] = ch;
        started = true;
    }
  }
  if (!in_quotes && !started && cells_.empty()) return false;
  ++row_;
  if (in_quotes) throw error("unterminated quoted cell");
  cells_.emplace_back(data + start, out - start);
  return true;
}

std::string_view CsvReader::text(std::size_t col) const {
  RUSH_EXPECTS(col < cells_.size());
  return cells_[col];
}

double CsvReader::number(std::size_t col) const {
  const double value = parse_cell(*this, col, str::to_double);
  if (!std::isfinite(value))
    throw error("not a finite number: '" + std::string(text(col)) + "'", col);
  return value;
}

template <class T>
T CsvReader::integer(std::size_t col) const {
  if constexpr (std::is_same_v<T, std::uint64_t>) {
    return parse_cell(*this, col, str::to_uint);
  } else {
    static_assert(std::is_same_v<T, int>);
    const long long value = parse_cell(*this, col, str::to_int);
    if (value < std::numeric_limits<int>::min() || value > std::numeric_limits<int>::max())
      throw error("integer out of range: '" + std::string(text(col)) + "'", col);
    return static_cast<int>(value);
  }
}

template int CsvReader::integer<int>(std::size_t col) const;
template std::uint64_t CsvReader::integer<std::uint64_t>(std::size_t col) const;

bool CsvReader::flag(std::size_t col) const {
  const std::string_view cell = text(col);
  if (cell != "0" && cell != "1")
    throw error("flag must be 0 or 1, not '" + std::string(cell) + "'", col);
  return cell == "1";
}

ParseError CsvReader::error(std::string_view what) const {
  return ParseError(document_ + " row " + std::to_string(row_) + ": " + std::string(what));
}

ParseError CsvReader::error(std::string_view what, std::size_t col) const {
  return ParseError(document_ + " row " + std::to_string(row_) + ", column " +
                    std::to_string(col + 1) + ": " + std::string(what));
}

}  // namespace rush
