// Semantic contract rules for rush_analyze, built on the outline parser
// and cross-TU symbol index (outline.hpp, symbols.hpp). These are the
// rules that need declaration↔definition pairing or call/annotation
// inspection — the ones token-level rules.hpp cannot express and that
// previously lived in tools/rush_lint.py (missing-expects,
// trace-sim-time) or nowhere at all (noalloc-path, guarded-member,
// dead-symbol).
//
// Annotation vocabulary (DESIGN.md §15):
//   // rush: noalloc           — this function and its same-module,
//                                statically-resolvable callees must not
//                                allocate (steady-state hot paths)
//   // rush: guarded_by(mu_)   — this member may only be touched after
//                                taking a lock of mu_
#pragma once

#include <vector>

#include "analysis/finding.hpp"
#include "analysis/lexer.hpp"
#include "analysis/symbols.hpp"

namespace rush::analysis {

/// missing-expects (sim/, sched/): a public non-const member function
/// that takes arguments must call RUSH_EXPECTS somewhere in its
/// definition — preconditions are the correctness harness's front line.
/// Skips const/static/friend/operator/ctor/dtor/defaulted declarations
/// and declarations whose definition is outside the index.
void check_missing_expects(const SymbolIndex& index, std::vector<Finding>& out);

/// trace-sim-time: every `.emit_*( / ->emit_*(` trace call site passes a
/// sim-time first argument — `now()`, an identifier ending in `_s`/`_s_`,
/// or the conventional `t`/`when`. Wall-clock stamps would make traces
/// non-reproducible.
void check_trace_sim_time(const SourceFile& f, std::vector<Finding>& out);

/// noalloc-path: a function annotated `// rush: noalloc` — and every
/// same-module function it reaches through unqualified or Class::
/// qualified calls — must not contain `new`, make_unique/make_shared,
/// by-value std container locals, or growth calls on non-member
/// receivers. Growth on trailing-underscore receivers (member scratch
/// with reserved capacity) is the steady-state contract and allowed.
void check_noalloc_path(const SymbolIndex& index, std::vector<Finding>& out);

/// guarded-member: a member annotated `// rush: guarded_by(G)` may only
/// be touched in member functions that earlier in the body take a
/// lock_guard/scoped_lock/unique_lock of G (or G.lock()). Functions named
/// *_locked, ctors/dtors, and functions receiving a lock parameter
/// (lock-handoff pattern) are exempt.
void check_guarded_member(const SymbolIndex& index, std::vector<Finding>& out);

/// dead-symbol: a function defined in an analyzed file — out of line, in
/// its class, inline or template alike — whose name is referenced nowhere
/// in the index (--ref-root trees and #define bodies included) is dead
/// code. Virtual functions, operators, ctors/dtors, defaulted functions
/// and main are exempt.
void check_dead_symbol(const SymbolIndex& index, std::vector<Finding>& out);

}  // namespace rush::analysis
