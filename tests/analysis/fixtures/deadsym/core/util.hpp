// dead-symbol fixture: functions defined in the analyzed tree, in a
// header or a source file, must be referenced somewhere in it (or in a
// --ref-root tree).
#pragma once

namespace rush::core {

int used_everywhere(int x);
int orphan(int x);          // defined in util.cpp, referenced nowhere -> finding
int bench_only(int x);      // referenced only from the deadsym_ref tree
int tolerated(int x);       // allow-markered at its definition
[[noreturn]] void check_failed(const char* what);  // named only by CHECK's body

// Inline, constexpr and template definitions are checked like any other:
// header_helper is called, header_const and header_tmpl are not.
inline int header_helper(int x) { return x + 1; }
constexpr int header_const(int x) { return x * 2; }
template <typename T>
T header_tmpl(T x) { return x; }

// In-class definitions too: util.cpp calls bump, and only the
// deadsym_tests tree (not a --ref-root) calls peek -> finding.
struct Tally {
  int bump() { return ++n; }
  int peek() const { return n; }
  int n = 0;
};

struct Base {
  virtual ~Base() = default;
  // Virtual dispatch hides references from a token index; exempt.
  virtual int hook(int x);
  // Operators are called by syntax, not by name; exempt.
  bool operator==(const Base& other) const;
};

}  // namespace rush::core

// A macro body names what its expansions call, so check_failed is alive.
#define CHECK(cond) ((cond) ? (void)0 : ::rush::core::check_failed(#cond))
