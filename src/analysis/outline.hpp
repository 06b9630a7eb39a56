// Structural outline of one translation unit for rush_analyze.
//
// A single forward token walk recovers the declaration skeleton the
// semantic rules need: class bodies with access tracking, member-variable
// declarations, and function declarations/definitions (free, member, and
// out-of-line member) with their signature traits and body token ranges.
// It is deliberately not a C++ parser — templates, attributes, and
// operators are handled structurally, and pathological constructs
// degrade to "not recorded" rather than misparse. One known hole: a
// brace-initializer inside a constructor's member-init list hides that
// constructor's body (ctors are exempt from every rule that reads bodies,
// so nothing downstream cares).
//
// `rush:` contract annotations recorded by the lexer are attached to the
// declaration whose signature spans the annotated line (see lexer.hpp for
// the attachment convention).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "analysis/lexer.hpp"

namespace rush::analysis {

enum class Access : std::uint8_t { kNone, kPublic, kProtected, kPrivate };

/// One function declaration or definition.
struct FunctionDecl {
  std::string name;                  // last component: "schedule_pass", "operator<", "~Engine"
  std::vector<std::string> classes;  // enclosing class frames + out-of-line qualifiers
  Access access = Access::kNone;  // kNone outside any class body
  int arity = 0;                  // parameter count (default args included)
  bool is_const = false;
  bool is_static = false;
  bool is_friend = false;
  bool is_virtual = false;     // virtual / override / final
  bool is_definition = false;  // has a brace body
  bool is_defaulted = false;   // = default / = delete / = 0
  bool is_ctor_dtor = false;
  bool is_operator = false;
  bool has_params = false;      // non-empty, non-(void) parameter list
  bool has_lock_param = false;  // takes a unique_lock/scoped_lock/lock_guard parameter
  int line = 0;                 // declaration head line
  std::size_t name_tok = 0;     // token index of the name's last component
  std::size_t body_begin = 0, body_end = 0;  // token indices of '{' and '}'; 0 when decl-only
  std::vector<std::string> annotations;      // rush: texts spanning the signature

  /// "A::B::name" using the class path only (namespaces omitted).
  [[nodiscard]] std::string qualified() const;
  /// Innermost class name, or "" for a free function.
  [[nodiscard]] std::string cls() const;
  [[nodiscard]] bool has_annotation(std::string_view text) const;
};

/// One member-variable declaration inside a class body.
struct MemberVar {
  std::string name;
  std::vector<std::string> classes;
  int line = 0;
  std::size_t name_tok = 0;
  std::vector<std::string> annotations;

  [[nodiscard]] std::string cls() const;
  /// The guard named by a `guarded_by(<name>)` annotation, or "".
  [[nodiscard]] std::string guard() const;
};

struct Outline {
  std::vector<FunctionDecl> functions;
  std::vector<MemberVar> members;
};

/// Build the outline of a lexed file. Deterministic; declarations appear
/// in token order.
Outline build_outline(const SourceFile& f);

}  // namespace rush::analysis
