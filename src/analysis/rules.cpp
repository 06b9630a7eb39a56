#include "analysis/rules.hpp"

#include <map>
#include <set>

namespace rush::analysis {

namespace {

using SV = std::string_view;

/// True when `rel` (extension stripped) ends with `stem` — the way rule
/// exemptions name their home files, e.g. "common/rng".
bool stem_is(const std::string& rel, SV stem) {
  const std::size_t dot = rel.rfind('.');
  const SV no_ext = SV(rel).substr(0, dot);
  return no_ext.size() >= stem.size() &&
         no_ext.substr(no_ext.size() - stem.size()) == stem &&
         (no_ext.size() == stem.size() || no_ext[no_ext.size() - stem.size() - 1] == '/');
}

/// Token at i-1 is `::` qualified by an identifier other than `std` —
/// i.e. some library's own rand/random_device, not ours to flag.
bool qualified_non_std(const SourceFile& f, std::size_t i) {
  if (i < 1 || !is_punct(f, i - 1, "::")) return false;
  return i >= 2 && is_ident(f, i - 2) && f.tok(i - 2) != "std";
}

/// Token i is preceded by a plain identifier that is not a statement
/// keyword — declaration context (`int rand(int);`), not a call site.
bool declaration_context(const SourceFile& f, std::size_t i) {
  if (i < 1 || f.tokens[i - 1].kind != TokenKind::kIdentifier) return false;
  return !is_call_head(f.tok(i - 1));
}

}  // namespace

const std::vector<RuleInfo>& rule_catalogue() {
  static const std::vector<RuleInfo> rules = {
      {"layer-dag",
       "cross-module includes must follow the architecture DAG (no upward or "
       "sideways edges, no undeclared modules)"},
      {"include-cycle", "the file-level include graph must be acyclic"},
      {"naked-rand",
       "std::rand/srand/std::random_device/time(nullptr) outside common/rng "
       "break seeded reproducibility"},
      {"raw-thread",
       "std::thread/std::jthread/std::async/OpenMP outside common/task_pool "
       "bypass the deterministic task pool"},
      {"unordered-iter",
       "(sim/, sched/, core/, apps/, cluster/, telemetry/, faults/) range-for "
       "over an unordered container member feeds unspecified order into "
       "deterministic output"},
      {"sched-linear-scan",
       "(sched/) std::find/find_if/count/remove over a member container is a "
       "linear scan in the scheduling hot path; binary-search the sorted "
       "container instead"},
      {"pragma-once", "headers must open with #pragma once"},
      {"redundant-include",
       "duplicate include, or a TU re-including what its primary header "
       "already includes directly"},
      {"unused-module-include",
       "header includes another module but never names its namespace — dead "
       "coupling in the include graph"},
      {"missing-expects",
       "(sim/, sched/) public non-const member functions taking arguments "
       "must call RUSH_EXPECTS in their definition"},
      {"trace-sim-time",
       "EventTrace emit_* call sites must pass a sim-time first argument "
       "(now(), *_s, or t/when) — wall-clock stamps break reproducibility"},
      {"noalloc-path",
       "functions annotated '// rush: noalloc' and their same-module callees "
       "must not allocate: no new/make_unique/make_shared, no by-value std "
       "container locals, no growth calls on non-member receivers"},
      {"guarded-member",
       "members annotated '// rush: guarded_by(G)' may only be touched after "
       "locking G (lock parameters and *_locked helpers are the hand-off "
       "exemptions)"},
      {"dead-symbol",
       "functions defined in analyzed files, in-class and inline ones included, "
       "but referenced nowhere in the index (--ref-root trees and #define "
       "bodies included) are dead code"},
  };
  return rules;
}

void check_naked_rand(const SourceFile& f, std::vector<Finding>& out) {
  if (stem_is(f.rel, "common/rng")) return;
  const std::size_t n = f.tokens.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (!is_ident(f, i)) continue;
    const SV id = f.tok(i);
    const int line = f.tokens[i].line;
    if (member_access(f, i) || qualified_non_std(f, i)) continue;
    if (declaration_context(f, i)) continue;
    if ((id == "rand" || id == "srand") && is_punct(f, i + 1, "(")) {
      emit(f, line, "naked-rand", std::string(id),
           std::string(id) + "() breaks seeded reproducibility; draw from "
           "common/rng streams", out);
    } else if (id == "random_device") {
      emit(f, line, "naked-rand", "random_device",
           "std::random_device is non-deterministic entropy; seed common/rng "
           "streams explicitly", out);
    } else if (id == "time" && is_punct(f, i + 1, "(") && is_punct(f, i + 3, ")") &&
               (is_ident(f, i + 2, "nullptr") || is_ident(f, i + 2, "NULL") ||
                (i + 2 < n && f.tokens[i + 2].kind == TokenKind::kNumber &&
                 f.tok(i + 2) == "0"))) {
      emit(f, line, "naked-rand", "time",
           "wall-clock time() seeds are non-reproducible; thread a seed or "
           "sim-time through instead", out);
    }
  }
}

void check_raw_thread(const SourceFile& f, std::vector<Finding>& out) {
  if (stem_is(f.rel, "common/task_pool")) return;
  for (std::size_t i = 0; i + 2 < f.tokens.size(); ++i) {
    if (!is_ident(f, i, "std") || !is_punct(f, i + 1, "::")) continue;
    const SV what = f.tok(i + 2);
    if (what == "thread" || what == "jthread" || what == "async") {
      emit(f, f.tokens[i].line, "raw-thread", std::string(what),
           "std::" + std::string(what) + " bypasses the deterministic task "
           "pool; dispatch through common/task_pool instead", out);
    }
  }
  for (const Directive& d : f.directives) {
    if (d.keyword == "pragma" && SV(d.rest).substr(0, 3) == "omp") {
      emit(f, d.line, "raw-thread", "omp",
           "OpenMP bypasses the deterministic task pool; dispatch through "
           "common/task_pool instead", out);
    }
  }
}

void check_unordered_iter(const SourceFile& f,
                          const std::vector<const SourceFile*>& dir_siblings,
                          std::vector<Finding>& out) {
  static const std::set<std::string, std::less<>> kScope = {
      "sim", "sched", "core", "apps", "cluster", "telemetry", "faults"};
  static const std::set<std::string, std::less<>> kUnordered = {
      "unordered_map", "unordered_set", "unordered_multimap", "unordered_multiset"};
  if (kScope.count(f.module()) == 0) return;

  // Pass 1: names declared with an unordered container type anywhere in
  // this directory (headers declare members, sources iterate them).
  std::set<std::string> names;
  for (const SourceFile* sib : dir_siblings) {
    const std::size_t n = sib->tokens.size();
    for (std::size_t i = 0; i < n; ++i) {
      if (!is_ident(*sib, i) || kUnordered.count(std::string(sib->tok(i))) == 0) continue;
      if (!is_punct(*sib, i + 1, "<")) continue;
      int depth = 0;
      std::size_t j = i + 1;
      for (; j < n; ++j) {
        if (is_punct(*sib, j, "<")) ++depth;
        if (is_punct(*sib, j, ">") && --depth == 0) break;
      }
      // Declarator after the template args: `type name [;={,)]`.
      if (j + 2 < n && is_ident(*sib, j + 1)) {
        const SV after = sib->tok(j + 2);
        if (after == ";" || after == "=" || after == "{" || after == "," || after == ")") {
          names.insert(std::string(sib->tok(j + 1)));
        }
      }
    }
  }
  if (names.empty()) return;

  // Pass 2: range-for statements whose range expression is a plain path
  // ending in one of those names. A call in the range expression (e.g.
  // iterating a sorted copy) opts out by construction.
  const std::size_t n = f.tokens.size();
  for (std::size_t i = 0; i + 1 < n; ++i) {
    if (!is_ident(f, i, "for") || !is_punct(f, i + 1, "(")) continue;
    int depth = 1;
    std::size_t colon = 0;
    for (std::size_t j = i + 2; j < n && depth > 0; ++j) {
      if (is_punct(f, j, "(")) ++depth;
      if (is_punct(f, j, ")")) --depth;
      if (depth == 1 && is_punct(f, j, ";")) break;  // classic for
      if (depth == 1 && is_punct(f, j, ":")) {
        colon = j;
        break;
      }
    }
    if (colon == 0) continue;
    depth = 1;
    bool has_call = false;
    std::size_t last_ident = 0;
    for (std::size_t j = colon + 1; j < n && depth > 0; ++j) {
      if (is_punct(f, j, "(")) {
        ++depth;
        has_call = true;
      }
      if (is_punct(f, j, ")")) --depth;
      if (depth >= 1 && is_ident(f, j)) last_ident = j;
    }
    if (has_call || last_ident == 0) continue;
    const std::string name(f.tok(last_ident));
    if (names.count(name) == 0) continue;
    emit(f, f.tokens[i].line, "unordered-iter", name,
         "iteration over unordered container '" + name + "' in a "
         "determinism-critical subsystem; iterate a sorted copy or justify "
         "with an allow marker", out);
  }
}

void check_sched_linear_scan(const SourceFile& f, std::vector<Finding>& out) {
  static const std::set<SV> kLinear = {"find",  "find_if", "count",
                                       "count_if", "remove", "remove_if"};
  if (f.module() != "sched") return;
  const std::size_t n = f.tokens.size();
  for (std::size_t i = 0; i + 3 < n; ++i) {
    if (!is_ident(f, i, "std") || !is_punct(f, i + 1, "::")) continue;
    if (!is_ident(f, i + 2) || kLinear.count(f.tok(i + 2)) == 0) continue;
    if (!is_punct(f, i + 3, "(")) continue;
    // Walk the balanced argument list for the first member-named operand
    // (trailing underscore, the codebase's member convention): scans over
    // locals and parameters are not hot-path state and stay unflagged.
    int depth = 1;
    std::string member;
    for (std::size_t j = i + 4; j < n && depth > 0; ++j) {
      if (is_punct(f, j, "(")) {
        ++depth;
      } else if (is_punct(f, j, ")")) {
        --depth;
      } else if (is_ident(f, j)) {
        const SV id = f.tok(j);
        if (id.size() > 1 && id.back() == '_') {
          member = std::string(id);
          break;
        }
      }
    }
    if (member.empty()) continue;
    emit(f, f.tokens[i].line, "sched-linear-scan", member,
         "std::" + std::string(f.tok(i + 2)) + " over scheduler member '" + member +
             "' is a linear scan in the scheduling hot path; keep the container "
             "sorted and binary-search it, or justify with an allow marker",
         out);
  }
}

void check_pragma_once(const SourceFile& f, std::vector<Finding>& out) {
  if (!f.is_header() || f.has_pragma_once) return;
  emit(f, 1, "pragma-once", "missing",
       "header lacks #pragma once; double inclusion is an ODR time bomb", out);
}

void check_redundant_include(const SourceFile& f, const SourceFile* primary_header,
                             std::vector<Finding>& out) {
  std::map<std::string, int> seen;
  for (const Include& inc : f.includes) {
    const auto [it, fresh] = seen.emplace(inc.target, inc.line);
    if (!fresh) {
      emit(f, inc.line, "redundant-include", inc.target,
           "'" + inc.target + "' already included on line " +
               std::to_string(it->second), out);
    }
  }
  if (f.is_header() || primary_header == nullptr) return;
  std::set<std::string> from_header;
  for (const Include& inc : primary_header->includes) {
    if (!inc.angled) from_header.insert(inc.target);
  }
  for (const Include& inc : f.includes) {
    if (inc.angled || inc.target == primary_header->rel) continue;
    if (from_header.count(inc.target) > 0 && seen.at(inc.target) == inc.line) {
      emit(f, inc.line, "redundant-include", inc.target,
           "'" + inc.target + "' is already a direct include of this TU's "
           "primary header " + primary_header->rel, out);
    }
  }
}

void check_unused_module_include(const SourceFile& f, std::vector<Finding>& out) {
  // Modules whose public symbols all live under a namespace of the same
  // name (rush::sim, rush::obs, ...). `common` is exempt: it owns macros
  // (RUSH_EXPECTS) and the bare rush:: namespace, so token evidence of
  // use is not reliable there.
  static const std::set<std::string, std::less<>> kNamespaced = {
      "sim", "cluster", "telemetry", "apps", "sched", "obs", "ml", "core",
      "analysis"};
  if (!f.is_header()) return;

  std::set<std::string> referenced;
  for (std::size_t i = 0; i < f.tokens.size(); ++i) {
    if (!is_ident(f, i)) continue;
    if (is_punct(f, i + 1, "::") || (i > 0 && is_punct(f, i - 1, "::"))) {
      referenced.insert(std::string(f.tok(i)));
    }
  }
  for (const Include& inc : f.includes) {
    if (inc.angled) continue;
    const std::string mod = first_component(inc.target);
    if (mod.empty() || mod == f.module() || kNamespaced.count(mod) == 0) continue;
    if (referenced.count(mod) > 0) continue;
    emit(f, inc.line, "unused-module-include", inc.target,
         "header includes '" + inc.target + "' but never names " + mod +
             ":: — drop the include or move it to the TU", out);
  }
}

}  // namespace rush::analysis
