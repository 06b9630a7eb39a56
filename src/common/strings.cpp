#include "common/strings.hpp"

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/error.hpp"

namespace rush::str {

std::vector<std::string> split(std::string_view s, char delim) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = s.find(delim, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      return out;
    }
    out.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
}

std::string join(const std::vector<std::string>& parts, std::string_view delim) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += delim;
    out += parts[i];
  }
  return out;
}

std::string_view trim(std::string_view s) noexcept {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && (s[b] == ' ' || s[b] == '\t' || s[b] == '\r' || s[b] == '\n')) ++b;
  while (e > b && (s[e - 1] == ' ' || s[e - 1] == '\t' || s[e - 1] == '\r' || s[e - 1] == '\n'))
    --e;
  return s.substr(b, e - b);
}

bool starts_with(std::string_view s, std::string_view prefix) noexcept {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

double to_double(std::string_view s) {
  const std::string_view cell = trim(s);
  if (cell.empty()) throw ParseError("empty numeric field");
  double v = 0.0;
  const auto [end, ec] = std::from_chars(cell.data(), cell.data() + cell.size(), v);
  if (ec == std::errc::result_out_of_range)
    throw ParseError("number out of range: '" + std::string(cell) + "'");
  if (ec != std::errc{} || end != cell.data() + cell.size())
    throw ParseError("malformed double: '" + std::string(cell) + "'");
  return v;
}

long long to_int(std::string_view s) {
  const std::string tmp(trim(s));
  if (tmp.empty()) throw ParseError("empty integer field");
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(tmp.c_str(), &end, 10);
  if (end != tmp.c_str() + tmp.size()) throw ParseError("malformed integer: '" + tmp + "'");
  if (errno == ERANGE) throw ParseError("integer out of range: '" + tmp + "'");
  return v;
}

std::uint64_t to_uint(std::string_view s) {
  const std::string tmp(trim(s));
  if (tmp.empty()) throw ParseError("empty integer field");
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(tmp.c_str(), &end, 10);
  if (tmp.front() == '-' || end != tmp.c_str() + tmp.size())
    throw ParseError("malformed unsigned integer: '" + tmp + "'");
  if (errno == ERANGE) throw ParseError("integer out of range: '" + tmp + "'");
  return v;
}

std::string format_duration(double seconds) {
  const bool negative = seconds < 0;
  double s = std::abs(seconds);
  const auto hours = static_cast<long long>(s / 3600.0);
  s -= static_cast<double>(hours) * 3600.0;
  const auto minutes = static_cast<long long>(s / 60.0);
  s -= static_cast<double>(minutes) * 60.0;
  char buf[96];
  if (hours > 0) {
    std::snprintf(buf, sizeof(buf), "%s%lldh%lldm%.0fs", negative ? "-" : "", hours, minutes, s);
  } else if (minutes > 0) {
    std::snprintf(buf, sizeof(buf), "%s%lldm%.1fs", negative ? "-" : "", minutes, s);
  } else {
    std::snprintf(buf, sizeof(buf), "%s%.2fs", negative ? "-" : "", s);
  }
  return buf;
}

}  // namespace rush::str
