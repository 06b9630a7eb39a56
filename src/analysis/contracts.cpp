#include "analysis/contracts.hpp"

#include <algorithm>
#include <deque>
#include <set>
#include <string>

namespace rush::analysis {

namespace {

using SV = std::string_view;

bool ends_with(SV s, SV suffix) {
  return s.size() >= suffix.size() && s.substr(s.size() - suffix.size()) == suffix;
}

bool body_calls(const SourceFile& f, const FunctionDecl& fn, SV callee) {
  for (std::size_t j = fn.body_begin; j < fn.body_end && j < f.tokens.size(); ++j) {
    if (is_ident(f, j, callee)) return true;
  }
  return false;
}

const std::set<SV>& lock_types() {
  static const std::set<SV> kSet = {"lock_guard", "scoped_lock", "unique_lock"};
  return kSet;
}

}  // namespace

// ---------------------------------------------------------------------------
// missing-expects

void check_missing_expects(const SymbolIndex& index, std::vector<Finding>& out) {
  for (const FileOutline& fo : index.files()) {
    if (!fo.analyzed) continue;
    const std::string module = fo.file->module();
    if (module != "sim" && module != "sched") continue;
    for (const FunctionDecl& fn : fo.outline.functions) {
      if (fn.access != Access::kPublic) continue;
      if (fn.is_const || fn.is_static || fn.is_friend || fn.is_operator ||
          fn.is_ctor_dtor || fn.is_defaulted || !fn.has_params) {
        continue;
      }
      bool checked = false;
      bool has_expects = false;
      if (fn.is_definition) {
        checked = true;
        has_expects = body_calls(*fo.file, fn, "RUSH_EXPECTS");
      } else {
        for (const SymbolIndex::FnRef& def :
             index.find_definitions(fn.cls(), fn.name, fn.arity)) {
          checked = true;
          if (body_calls(*def.file->file, *def.fn, "RUSH_EXPECTS")) has_expects = true;
        }
      }
      if (!checked || has_expects) continue;  // definition outside the index
      emit(*fo.file, fn.line, "missing-expects", fn.qualified(),
           "public member '" + fn.qualified() + "' takes arguments but its "
           "definition never calls RUSH_EXPECTS; validate the preconditions or "
           "justify with an allow marker",
           out);
    }
  }
}

// ---------------------------------------------------------------------------
// trace-sim-time

void check_trace_sim_time(const SourceFile& f, std::vector<Finding>& out) {
  const std::size_t n = f.tokens.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (!is_ident(f, i)) continue;
    const SV id = f.tok(i);
    if (id.size() <= 5 || id.substr(0, 5) != "emit_") continue;
    if (!member_access(f, i) || !is_punct(f, i + 1, "(")) continue;

    // First argument: tokens up to the first depth-1 ',' or the ')'.
    std::size_t arg_begin = i + 2;
    std::size_t arg_end = arg_begin;
    int depth = 1;
    for (std::size_t j = arg_begin; j < n && depth > 0; ++j) {
      const SV t = f.tok(j);
      if (f.tokens[j].kind == TokenKind::kPunct) {
        if (t == "(") ++depth;
        else if (t == ")") --depth;
        if (depth == 0 || (depth == 1 && t == ",")) {
          arg_end = j;
          break;
        }
      }
      arg_end = j + 1;
    }

    bool ok = false;
    for (std::size_t j = arg_begin; j < arg_end; ++j) {
      if (!is_ident(f, j)) continue;
      const SV a = f.tok(j);
      if (a == "now" && is_punct(f, j + 1, "(")) ok = true;
      if (ends_with(a, "_s") || ends_with(a, "_s_")) ok = true;
    }
    if (arg_end == arg_begin + 1 && (is_ident(f, arg_begin, "t") || is_ident(f, arg_begin, "when"))) {
      ok = true;
    }
    if (ok) continue;
    emit(f, f.tokens[i].line, "trace-sim-time", std::string(id),
         "trace call '" + std::string(id) + "' does not pass a sim-time first "
         "argument (now(), a *_s value, or t/when); wall-clock stamps break "
         "trace reproducibility",
         out);
  }
}

// ---------------------------------------------------------------------------
// noalloc-path

namespace {

const std::set<SV>& alloc_containers() {
  static const std::set<SV> kSet = {
      "vector", "string",        "basic_string",  "deque",
      "list",   "map",           "set",           "multimap",
      "multiset", "unordered_map", "unordered_set", "unordered_multimap",
      "unordered_multiset", "function"};
  return kSet;
}

const std::set<SV>& growth_calls() {
  static const std::set<SV> kSet = {"push_back", "emplace_back",  "emplace",
                                    "push_front", "emplace_front", "insert",
                                    "assign",     "append",        "resize",
                                    "reserve"};
  return kSet;
}

struct NoallocTarget {
  const FileOutline* fo = nullptr;
  const FunctionDecl* fn = nullptr;
  std::string root;    // qualified name of the annotated root
  std::string module;  // the root's module: closure stays inside it
};

/// Flag the allocation patterns inside one function body.
void scan_noalloc_body(const NoallocTarget& t, std::vector<Finding>& out) {
  const SourceFile& f = *t.fo->file;
  const FunctionDecl& fn = *t.fn;
  const std::string via =
      fn.qualified() == t.root
          ? "'" + t.root + "' is annotated '// rush: noalloc'"
          : "'" + fn.qualified() + "' is reachable from '// rush: noalloc' on '" +
                t.root + "'";
  for (std::size_t j = fn.body_begin + 1; j < fn.body_end && j < f.tokens.size(); ++j) {
    if (!is_ident(f, j)) continue;
    const SV id = f.tok(j);
    const int line = f.tokens[j].line;

    if (id == "new" && !(j > 0 && is_ident(f, j - 1, "operator"))) {
      emit(f, line, "noalloc-path", fn.name + ":new",
           "'new' in a noalloc path — " + via, out);
      continue;
    }
    if (id == "make_unique" || id == "make_shared") {
      emit(f, line, "noalloc-path", fn.name + ":" + std::string(id),
           "'" + std::string(id) + "' allocates in a noalloc path — " + via, out);
      continue;
    }
    // By-value std container local: std::vector<T> v; / = / ( / {
    if (id == "std" && is_punct(f, j + 1, "::") && is_ident(f, j + 2) &&
        alloc_containers().count(f.tok(j + 2)) > 0) {
      std::size_t k = j + 2;
      if (is_punct(f, k + 1, "<")) {
        int adepth = 1;
        std::size_t c = k + 2;
        while (c < f.tokens.size() && adepth > 0) {
          if (is_punct(f, c, "<")) ++adepth;
          if (is_punct(f, c, ">")) --adepth;
          ++c;
        }
        k = c - 1;
      }
      if (is_punct(f, k + 1, "&") || is_punct(f, k + 1, "*")) continue;  // ref/ptr
      if (!is_ident(f, k + 1)) continue;
      const SV after = k + 2 < f.tokens.size() ? f.tok(k + 2) : SV();
      if (after != ";" && after != "=" && after != "(" && after != "{") continue;
      // A function-local static allocates once, not per call.
      if ((j > 0 && is_ident(f, j - 1, "static")) ||
          (j > 1 && is_ident(f, j - 2, "static"))) {
        continue;
      }
      emit(f, line, "noalloc-path", fn.name + ":" + std::string(f.tok(k + 1)),
           "local std::" + std::string(f.tok(j + 2)) + " '" +
               std::string(f.tok(k + 1)) + "' constructs per call in a noalloc "
               "path; hoist it to reused member scratch — " + via,
           out);
      continue;
    }
    // Growth call on a non-member receiver: v.push_back(...). Member
    // scratch (trailing underscore, capacity reserved up front) is the
    // steady-state contract and allowed; chained receivers are skipped
    // (resolving their type is beyond a token walk).
    if (growth_calls().count(id) > 0 && is_punct(f, j + 1, "(") && member_access(f, j)) {
      const std::size_t r = is_punct(f, j - 1, ".") ? j - 2 : j - 3;
      if (r >= fn.body_begin && r < f.tokens.size() && is_ident(f, r)) {
        const SV recv = f.tok(r);
        const bool chained = r > 0 && (is_punct(f, r - 1, ".") || is_punct(f, r - 1, ">") ||
                                       is_punct(f, r - 1, ")"));
        if (!chained && recv != "this" && !ends_with(recv, "_")) {
          emit(f, line, "noalloc-path", fn.name + ":" + std::string(recv) + "." + std::string(id),
               "'" + std::string(recv) + "." + std::string(id) + "' can grow a "
               "non-member container in a noalloc path — " + via,
               out);
        }
      }
    }
  }
}

}  // namespace

void check_noalloc_path(const SymbolIndex& index, std::vector<Finding>& out) {
  std::deque<NoallocTarget> work;
  std::set<const FunctionDecl*> visited;
  const auto enqueue = [&](const FileOutline* fo, const FunctionDecl* fn,
                           const std::string& root, const std::string& module) {
    if (!fn->is_definition || visited.count(fn) > 0) return;
    visited.insert(fn);
    work.push_back(NoallocTarget{fo, fn, root, module});
  };

  for (const FileOutline& fo : index.files()) {
    if (!fo.analyzed) continue;
    for (const FunctionDecl& fn : fo.outline.functions) {
      if (!fn.has_annotation("noalloc")) continue;
      if (fn.is_definition) {
        enqueue(&fo, &fn, fn.qualified(), fo.file->module());
      } else {
        for (const SymbolIndex::FnRef& def :
             index.find_definitions(fn.cls(), fn.name, fn.arity)) {
          enqueue(def.file, def.fn, fn.qualified(), fo.file->module());
        }
      }
    }
  }

  while (!work.empty()) {
    const NoallocTarget t = std::move(work.front());
    work.pop_front();
    scan_noalloc_body(t, out);

    // Same-module callees: unqualified calls resolve against the current
    // class then free functions; Class::fn resolves statically. Method
    // calls through ./-> and std:: are not followed.
    const SourceFile& f = *t.fo->file;
    for (std::size_t j = t.fn->body_begin + 1;
         j < t.fn->body_end && j < f.tokens.size(); ++j) {
      if (!is_ident(f, j) || !is_punct(f, j + 1, "(")) continue;
      if (member_access(f, j)) continue;
      const std::string name(f.tok(j));
      std::vector<SymbolIndex::FnRef> defs;
      if (j > 0 && is_punct(f, j - 1, "::")) {
        if (j < 2 || !is_ident(f, j - 2) || f.tok(j - 2) == "std") continue;
        defs = index.find_definitions(std::string(f.tok(j - 2)), name, -1);
      } else {
        // `Type name(` declares a local; only statement keywords keep it
        // a call.
        if (j > 0 && is_ident(f, j - 1) && !is_call_head(f.tok(j - 1))) continue;
        defs = index.find_definitions(t.fn->cls(), name, -1);
        if (defs.empty()) defs = index.find_definitions(std::string(), name, -1);
      }
      for (const SymbolIndex::FnRef& def : defs) {
        if (def.file->file->module() != t.module) continue;
        enqueue(def.file, def.fn, t.root, t.module);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// guarded-member

void check_guarded_member(const SymbolIndex& index, std::vector<Finding>& out) {
  for (const FileOutline& fo : index.files()) {
    if (!fo.analyzed) continue;
    for (const MemberVar& m : fo.outline.members) {
      const std::string guard = m.guard();
      if (guard.empty() || m.cls().empty()) continue;
      const std::string module = fo.file->module();

      for (const FileOutline& fo2 : index.files()) {
        if (!fo2.analyzed || fo2.file->module() != module) continue;
        const SourceFile& f = *fo2.file;
        for (const FunctionDecl& fn : fo2.outline.functions) {
          if (!fn.is_definition || fn.cls() != m.cls()) continue;
          if (fn.is_ctor_dtor || fn.has_lock_param) continue;
          if (ends_with(fn.name, "_locked")) continue;

          // Earliest point in the body where a lock of the guard is taken:
          // `lock_guard/scoped_lock/unique_lock ... guard` or `guard.lock()`.
          std::size_t locked_from = fn.body_end;
          for (std::size_t k = fn.body_begin + 1;
               k < fn.body_end && k < f.tokens.size(); ++k) {
            if (!is_ident(f, k)) continue;
            if (lock_types().count(f.tok(k)) > 0) {
              const std::size_t stop = std::min(k + 10, fn.body_end);
              for (std::size_t a = k + 1; a < stop; ++a) {
                if (is_ident(f, a, guard)) {
                  locked_from = std::min(locked_from, k);
                  break;
                }
              }
            } else if (is_ident(f, k, guard) && is_punct(f, k + 1, ".") &&
                       is_ident(f, k + 2, "lock") && is_punct(f, k + 3, "(")) {
              locked_from = std::min(locked_from, k);
            }
            if (locked_from < fn.body_end) break;
          }

          for (std::size_t j = fn.body_begin + 1;
               j < fn.body_end && j < f.tokens.size(); ++j) {
            if (!is_ident(f, j, m.name)) continue;
            // `other.name` is a different object's member — out of scope
            // for a token walk; `this->name` is ours.
            if (member_access(f, j)) {
              const std::size_t r = is_punct(f, j - 1, ".") ? j - 2 : j - 3;
              if (!(r < f.tokens.size() && is_ident(f, r, "this"))) continue;
            }
            if (j > locked_from) continue;
            emit(f, f.tokens[j].line, "guarded-member", m.name + "@" + fn.name,
                 "'" + m.name + "' is annotated guarded_by(" + guard + ") but '" +
                     fn.qualified() + "' touches it before any lock of " + guard +
                     "; lock first, take a lock parameter, or use a *_locked "
                     "helper",
                 out);
            break;  // one finding per (member, function) pair
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// dead-symbol

void check_dead_symbol(const SymbolIndex& index, std::vector<Finding>& out) {
  // An out-of-line definition does not repeat `virtual`; collect every
  // (class, name) any declaration marks virtual so overrides reached
  // through dynamic dispatch are never reported.
  std::set<std::string> virtual_names;
  for (const FileOutline& fo : index.files()) {
    for (const FunctionDecl& fn : fo.outline.functions) {
      if (fn.is_virtual) virtual_names.insert(fn.cls() + "::" + fn.name);
    }
  }
  for (const FileOutline& fo : index.files()) {
    if (!fo.analyzed) continue;
    for (const FunctionDecl& fn : fo.outline.functions) {
      if (!fn.is_definition || fn.is_virtual || fn.is_operator || fn.is_ctor_dtor ||
          fn.is_defaulted) {
        continue;
      }
      if (virtual_names.count(fn.cls() + "::" + fn.name) > 0) continue;
      if (fn.name == "main") continue;
      if (index.referenced(fn.name)) continue;
      emit(*fo.file, fn.line, "dead-symbol", fn.qualified(),
           "'" + fn.qualified() + "' is defined here but referenced nowhere in "
           "the analyzed tree or its --ref-root trees; delete it or justify "
           "with an allow marker",
           out);
    }
  }
}

}  // namespace rush::analysis
