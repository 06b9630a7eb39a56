// Golden digests: 64-bit FNV-1a fingerprints of a test's output bytes,
// recorded once and checked in next to the test. A mismatch prints the
// observed digest in hex; a change that moves an output on purpose pastes
// the new value into the table and says why in CHANGES.md.
#pragma once

#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <string_view>

namespace rush::golden {

/// FNV-1a over `bytes`.
[[nodiscard]] inline std::uint64_t fnv1a(std::string_view bytes) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// The raw bytes of `values`, so a digest pins every bit pattern.
[[nodiscard]] inline std::string_view bytes_of(std::span<const double> values) noexcept {
  return {reinterpret_cast<const char*>(values.data()), values.size_bytes()};
}

/// The table's spelling of a digest: "0x" and 16 hex digits.
[[nodiscard]] inline std::string hex(std::uint64_t digest) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx", static_cast<unsigned long long>(digest));
  return buf;
}

}  // namespace rush::golden
