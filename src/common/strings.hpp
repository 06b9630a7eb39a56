// Small string utilities shared across modules (no external deps).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace rush::str {

std::vector<std::string> split(std::string_view s, char delim);
std::string join(const std::vector<std::string>& parts, std::string_view delim);
std::string_view trim(std::string_view s) noexcept;
bool starts_with(std::string_view s, std::string_view prefix) noexcept;

/// Strict numeric parses; throw ParseError on malformed or out-of-range
/// input. Surrounding whitespace is trimmed.
/// to_double reads std::from_chars syntax, independent of the locale: no
/// leading '+', no hex. A value that overflows, or underflows to 0, is
/// out of range; "inf" and "nan" parse.
double to_double(std::string_view s);
long long to_int(std::string_view s);
/// Rejects a '-', which strtoull would wrap around.
std::uint64_t to_uint(std::string_view s);

/// "1h2m3s"-style duration rendering for report output (input in seconds).
std::string format_duration(double seconds);

}  // namespace rush::str
