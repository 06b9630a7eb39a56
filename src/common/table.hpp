// Fixed-width ASCII table rendering for bench/report output.
//
// The bench binaries print paper-style tables; this keeps their formatting
// consistent and testable.
#pragma once

#include <string>
#include <vector>

namespace rush {

/// Column-aligned text table. Cells are strings; numeric helpers format
/// with a fixed precision so report output is stable across platforms.
class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  /// Appends one row. Must have exactly as many cells as headers.
  void add_row(std::vector<std::string> cells);

  /// Number formatting helpers for cell construction.
  static std::string num(double v, int precision = 2);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_.size(); }
  [[nodiscard]] std::size_t cols() const noexcept { return headers_.size(); }
  [[nodiscard]] const std::string& cell(std::size_t r, std::size_t c) const;

  /// Renders with a header rule, e.g.
  ///   app     | runs | max (s)
  ///   --------+------+--------
  ///   Laghos  |   27 |  412.30
  [[nodiscard]] std::string render() const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace rush
