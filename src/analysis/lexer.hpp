// C++ source lexer for the rush_analyze static-analysis subsystem.
//
// Produces a token stream with comments, string/char literals (including
// raw strings), and preprocessor directives resolved — the things regex
// lint fundamentally cannot see. Tokens carry byte offsets into the
// file's text plus 1-based line numbers; preprocessor directives
// (continuations folded) and `#include` targets are extracted separately.
//
// Inline suppressions: a comment containing `rush-analyze: allow(rule[,
// rule...])` disables those rules on its own line and the line below.
//
// Contract annotations: a comment of the form `// rush: <annotation>`
// (e.g. `// rush: noalloc`, `// rush: guarded_by(mu_)`) attaches the
// annotation text to the declaration it describes — the next line when
// the comment stands alone, its own line when it trails code. The
// outline parser picks these up per declaration; see outline.hpp.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "analysis/finding.hpp"

namespace rush::analysis {

enum class TokenKind : std::uint8_t {
  kIdentifier,  // identifiers and keywords alike
  kNumber,      // pp-number (digit separators included)
  kString,      // "...", R"(...)", prefix handled by the preceding ident
  kCharLit,     // 'x'
  kPunct,       // single punctuation char, except "::" which is one token
};

struct Token {
  TokenKind kind;
  std::uint32_t begin = 0;  // byte offsets into SourceFile::text
  std::uint32_t end = 0;
  int line = 0;  // 1-based
};

/// One preprocessor directive with backslash continuations folded.
/// Directive bodies are deliberately not tokenized; rules that care
/// (pragma once / pragma omp, include targets) read `rest` textually.
struct Directive {
  std::string keyword;  // "include", "pragma", "define", ...
  std::string rest;     // text after the keyword, comments stripped, trimmed
  int line = 0;
};

struct Include {
  std::string target;  // path between the delimiters, verbatim
  bool angled = false;
  int line = 0;
};

/// A lexed translation unit or header.
struct SourceFile {
  std::string rel;   // analysis-root-relative path, '/'-separated
  std::string text;  // raw file contents; tokens index into this
  std::vector<Token> tokens;
  std::vector<Directive> directives;
  std::vector<Include> includes;
  bool has_pragma_once = false;
  std::map<int, std::set<std::string>> allowed;  // line -> suppressed rules
  /// line -> `rush:` annotation texts attached to that line (a standalone
  /// comment annotates the line below it; a trailing comment its own).
  std::map<int, std::vector<std::string>> annotations;

  [[nodiscard]] std::string_view tok(const Token& t) const {
    return std::string_view(text).substr(t.begin, t.end - t.begin);
  }
  [[nodiscard]] std::string_view tok(std::size_t i) const { return tok(tokens[i]); }
  [[nodiscard]] bool is_header() const;
  /// First path component of `rel` ("common", "sim", ...); "" for files
  /// directly under the analysis root.
  [[nodiscard]] std::string module() const;
  [[nodiscard]] bool is_allowed(int line, std::string_view rule) const;
  /// Annotation texts attached to `line` (empty vector if none).
  [[nodiscard]] const std::vector<std::string>& annotations_on(int line) const;
};

/// Lex `text` as the contents of root-relative path `rel`.
SourceFile lex_string(std::string rel, std::string text);

// Token helpers shared by the rule files.

inline bool is_punct(const SourceFile& f, std::size_t i, std::string_view text) {
  return i < f.tokens.size() && f.tokens[i].kind == TokenKind::kPunct && f.tok(i) == text;
}

inline bool is_ident(const SourceFile& f, std::size_t i, std::string_view text) {
  return i < f.tokens.size() && f.tokens[i].kind == TokenKind::kIdentifier &&
         f.tok(i) == text;
}

inline bool is_ident(const SourceFile& f, std::size_t i) {
  return i < f.tokens.size() && f.tokens[i].kind == TokenKind::kIdentifier;
}

/// Token i is reached through `.` or `->`.
inline bool member_access(const SourceFile& f, std::size_t i) {
  if (i < 1) return false;
  if (is_punct(f, i - 1, ".")) return true;
  return i >= 2 && is_punct(f, i - 2, "-") && is_punct(f, i - 1, ">");
}

/// Statement keywords after which an ident+'(' is still a call, not a
/// declaration (`return rand();` vs `int rand(int);`).
inline bool is_call_head(std::string_view id) {
  static const std::set<std::string_view> kCallHeads = {
      "return", "co_return", "co_yield", "co_await", "case", "else", "do", "throw"};
  return kCallHeads.count(id) > 0;
}

/// Directory part of a '/'-separated path ("" for a bare file name).
inline std::string dir_of(const std::string& rel) {
  const std::size_t slash = rel.rfind('/');
  return slash == std::string::npos ? std::string() : rel.substr(0, slash);
}

/// First component of a '/'-separated path ("" for a bare file name).
inline std::string first_component(const std::string& path) {
  const std::size_t slash = path.find('/');
  return slash == std::string::npos ? std::string() : path.substr(0, slash);
}

/// Append a finding unless an allow marker covers `line`.
inline void emit(const SourceFile& f, int line, const char* rule, std::string key,
                 std::string message, std::vector<Finding>& out) {
  if (f.is_allowed(line, rule)) return;
  out.push_back(Finding{rule, f.rel, line, std::move(key), std::move(message)});
}

}  // namespace rush::analysis
