// Cross-TU symbol index for rush_analyze.
//
// Collects every file's outline (see outline.hpp) and answers the two
// questions the semantic rules need across translation units:
//
//  - find_definitions(class, name, arity): where is this declaration's
//    body? Pairs a header declaration with its out-of-line definition in
//    whichever file defines it.
//  - referenced(name): does the identifier occur anywhere outside a
//    declaration/definition name position? Liveness for dead-symbol —
//    token-level, so references inside macro invocations, `#define`
//    bodies and templates count, and comments/strings (which the lexer
//    drops) do not.
//
// Files added with analyzed=false participate in both queries but are
// not themselves rule targets — the CLI's --ref-root mechanism, which
// keeps API used only by tests/benches out of dead-symbol findings.
#pragma once

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "analysis/lexer.hpp"
#include "analysis/outline.hpp"

namespace rush::analysis {

struct FileOutline {
  const SourceFile* file = nullptr;
  Outline outline;
  bool analyzed = false;  // false: reference-only (--ref-root)
};

class SymbolIndex {
 public:
  /// Add one lexed file. `file` must outlive the index.
  void add_file(const SourceFile& file, bool analyzed);
  /// Build the lookup structures; call once after the last add_file.
  void finalize();

  [[nodiscard]] const std::vector<FileOutline>& files() const { return files_; }

  struct FnRef {
    const FileOutline* file = nullptr;
    const FunctionDecl* fn = nullptr;
  };
  /// Definitions whose innermost class and name match; `arity` narrows to
  /// that parameter count when any definition has it (pass -1 to skip).
  /// Free functions match with cls == "".
  [[nodiscard]] std::vector<FnRef> find_definitions(const std::string& cls,
                                                    const std::string& name,
                                                    int arity) const;

  /// True when `name` occurs as an identifier token anywhere in the index
  /// outside declaration/definition name positions, `#define` bodies
  /// included.
  [[nodiscard]] bool referenced(const std::string& name) const;

 private:
  std::vector<FileOutline> files_;
  // "Cls::name" (or "::name" for free functions) -> (file, fn) indices.
  std::map<std::string, std::vector<std::pair<std::size_t, std::size_t>>> defs_;
  std::set<std::string, std::less<>> referenced_;
  bool finalized_ = false;
};

}  // namespace rush::analysis
