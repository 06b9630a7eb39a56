// Seeded mutation of on-disk inputs for the reader tests (the CSV caches,
// model text, fault plans). A mutant is a valid file with one to three
// bytes flipped, cut short, spliced onto a suffix of another file, or with
// one token replaced by a hostile one. Every reader must load a mutant or
// throw ParseError, and whatever loads must save, load and save again to
// the same bytes.
#pragma once

#include <gtest/gtest.h>

#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <string_view>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace rush::mutation {

inline std::size_t pick(Rng& rng, std::size_t n) {
  return static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
}

/// Replaces one randomly chosen token of `text`, a run between two of the
/// `delimiters`, with `token`.
inline std::string substitute_token(Rng& rng, std::string text, std::string_view token,
                                    std::string_view delimiters) {
  const std::size_t at = pick(rng, text.size());
  std::size_t begin = text.find_last_of(delimiters, at);
  begin = begin == std::string::npos ? 0 : begin + 1;
  std::size_t end = text.find_first_of(delimiters, begin);
  if (end == std::string::npos) end = text.size();
  return text.replace(begin, end - begin, token);
}

inline std::string mutate(Rng& rng, const std::string& base, const std::string& other,
                          std::span<const std::string_view> hostile,
                          std::string_view delimiters) {
  std::string text = base;
  switch (rng.uniform_int(0, 3)) {
    case 0:  // flip one to three bytes
      for (std::int64_t n = rng.uniform_int(1, 3); n > 0; --n)
        text[pick(rng, text.size())] ^= static_cast<char>(1 << rng.uniform_int(0, 7));
      return text;
    case 1:  // truncate
      return text.substr(0, pick(rng, text.size() + 1));
    case 2:  // splice a prefix of one file onto a suffix of the other
      return text.substr(0, pick(rng, text.size() + 1)) + other.substr(pick(rng, other.size()));
    default:
      return substitute_token(rng, std::move(text), hostile[pick(rng, hostile.size())],
                              delimiters);
  }
}

/// save(load(text)), after checking that loading and saving those bytes
/// again gives them back; nullopt when the loader threw ParseError.
template <class Load, class Save>
std::optional<std::string> resave(const std::string& text, const Load& load, const Save& save) {
  try {
    std::istringstream is(text);
    std::ostringstream first;
    save(load(is), first);
    std::istringstream again(first.str());
    std::ostringstream second;
    save(load(again), second);
    EXPECT_EQ(second.str(), first.str());
    return first.str();
  } catch (const ParseError&) {
    return std::nullopt;
  }
}

}  // namespace rush::mutation
