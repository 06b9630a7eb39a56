#include "common/table.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "common/error.hpp"

namespace rush {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {
  RUSH_EXPECTS(!headers_.empty());
}

void Table::add_row(std::vector<std::string> cells) {
  RUSH_EXPECTS(cells.size() == headers_.size());
  rows_.push_back(std::move(cells));
}

std::string Table::num(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

const std::string& Table::cell(std::size_t r, std::size_t c) const {
  RUSH_EXPECTS(r < rows_.size());
  RUSH_EXPECTS(c < headers_.size());
  return rows_[r][c];
}

std::string Table::render() const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
  for (const auto& row : rows_)
    for (std::size_t c = 0; c < row.size(); ++c) widths[c] = std::max(widths[c], row[c].size());

  std::ostringstream os;
  auto emit_row = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      if (c > 0) os << " | ";
      os << cells[c];
      for (std::size_t pad = cells[c].size(); pad < widths[c]; ++pad) os << ' ';
    }
    os << '\n';
  };
  emit_row(headers_);
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    if (c > 0) os << "-+-";
    os << std::string(widths[c], '-');
  }
  os << '\n';
  for (const auto& row : rows_) emit_row(row);
  return os.str();
}

}  // namespace rush
