// Diagnostic record produced by the static-analysis rules.
//
// A Finding is identified by (rule, file, key): the key is a *stable*
// token — an include target, a banned identifier, a function name — never
// a line number, so the SARIF fingerprint survives unrelated edits to the
// same file.
#pragma once

#include <string>
#include <tuple>

namespace rush::analysis {

struct Finding {
  std::string rule;     // catalogue name, e.g. "layer-dag"
  std::string file;     // analysis-root-relative path, '/'-separated
  int line = 0;         // 1-based; 0 when the finding is file-scoped
  std::string key;      // stable, line-independent identity
  std::string message;  // human explanation
};

inline bool operator<(const Finding& a, const Finding& b) {
  return std::tie(a.file, a.line, a.rule, a.key) <
         std::tie(b.file, b.line, b.rule, b.key);
}

inline bool operator==(const Finding& a, const Finding& b) {
  return a.rule == b.rule && a.file == b.file && a.line == b.line &&
         a.key == b.key;
}

}  // namespace rush::analysis
