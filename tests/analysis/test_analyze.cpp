// Tests for the rush_analyze static-analysis subsystem: lexer behaviour,
// the outline parser and cross-TU symbol index, each rule against its
// fixture tree (positive, negative, suppressed), the architecture DAG's
// own consistency, and the report renders.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/analyzer.hpp"
#include "analysis/include_graph.hpp"
#include "analysis/lexer.hpp"
#include "analysis/outline.hpp"
#include "analysis/rules.hpp"
#include "analysis/symbols.hpp"
#include "golden.hpp"

namespace ra = rush::analysis;

namespace {

std::filesystem::path fixtures() { return std::filesystem::path(RUSH_ANALYSIS_FIXTURES); }

ra::AnalyzeResult run(const std::string& subtree, std::set<std::string> only = {},
                      std::vector<std::string> ref_subtrees = {}) {
  ra::AnalyzeOptions options;
  options.root = fixtures() / subtree;
  options.only = std::move(only);
  for (const std::string& r : ref_subtrees) options.ref_roots.push_back(fixtures() / r);
  return ra::analyze(options);
}

/// The unique function named `name` in an outline; fails the test if the
/// count is not exactly one.
const ra::FunctionDecl& fn_named(const ra::Outline& o, const std::string& name) {
  const ra::FunctionDecl* found = nullptr;
  int count = 0;
  for (const ra::FunctionDecl& f : o.functions) {
    if (f.name == name) {
      found = &f;
      ++count;
    }
  }
  EXPECT_EQ(count, 1) << name;
  if (found == nullptr) throw std::runtime_error("no function named " + name);
  return *found;
}

/// (file, key) pairs of all findings, for order-insensitive comparison.
std::multiset<std::pair<std::string, std::string>> file_keys(const ra::AnalyzeResult& r) {
  std::multiset<std::pair<std::string, std::string>> out;
  for (const ra::Finding& f : r.findings) out.insert({f.file, f.key});
  return out;
}

}  // namespace

// ---------------------------------------------------------------- lexer

TEST(AnalyzeLexer, CommentsStringsAndRawStringsAreOpaque) {
  const ra::SourceFile f = ra::lex_string("core/x.cpp",
      "// rand() here\n"
      "/* std::thread there */\n"
      "const char* s = \"rand()\";\n"
      "const char* r = R\"x(std::async 'y')x\";\n"
      "int real_token = 1;\n");
  for (std::size_t i = 0; i < f.tokens.size(); ++i) {
    if (f.tokens[i].kind == ra::TokenKind::kIdentifier) {
      EXPECT_NE(f.tok(i), "rand");
      EXPECT_NE(f.tok(i), "thread");
      EXPECT_NE(f.tok(i), "async");
    }
  }
  // The raw string is one token and line numbers survive it.
  ASSERT_GE(f.tokens.size(), 2u);
  const ra::Token& lit = f.tokens[f.tokens.size() - 2];  // the `1` before `;`
  EXPECT_EQ(f.tok(lit), "1");
  EXPECT_EQ(lit.line, 5);
}

TEST(AnalyzeLexer, DigitSeparatorsDoNotOpenCharLiterals) {
  const ra::SourceFile f = ra::lex_string("core/x.cpp", "int big = 1'000'000; int after = 2;\n");
  std::vector<std::string> idents;
  for (std::size_t i = 0; i < f.tokens.size(); ++i) {
    if (f.tokens[i].kind == ra::TokenKind::kIdentifier) idents.emplace_back(f.tok(i));
  }
  EXPECT_EQ(idents, (std::vector<std::string>{"int", "big", "int", "after"}));
}

TEST(AnalyzeLexer, DirectivesFoldContinuationsAndExtractIncludes) {
  const ra::SourceFile f = ra::lex_string("core/x.cpp",
      "#pragma once\n"
      "#include \"common/rng.hpp\"  // trailing comment\n"
      "#include <vector>\n"
      "#define WIDE(a, b) \\\n  ((a) + (b))\n"
      "int x = 0;\n");
  EXPECT_TRUE(f.has_pragma_once);
  ASSERT_EQ(f.includes.size(), 2u);
  EXPECT_EQ(f.includes[0].target, "common/rng.hpp");
  EXPECT_FALSE(f.includes[0].angled);
  EXPECT_TRUE(f.includes[1].angled);
  ASSERT_GE(f.directives.size(), 4u);
  EXPECT_EQ(f.directives[3].keyword, "define");
  // The continuation folded into one directive: the next token is `int` on line 6.
  EXPECT_EQ(f.tokens.front().line, 6);
}

TEST(AnalyzeLexer, AllowMarkersCoverOwnAndNextLine) {
  const ra::SourceFile f = ra::lex_string("core/x.cpp",
      "// rush-analyze: allow(naked-rand, raw-thread) reason here\n"
      "int x;\n"
      "int y;  // rush-analyze: allow(unordered-iter)\n");
  EXPECT_TRUE(f.is_allowed(1, "naked-rand"));
  EXPECT_TRUE(f.is_allowed(2, "naked-rand"));
  EXPECT_TRUE(f.is_allowed(2, "raw-thread"));
  EXPECT_FALSE(f.is_allowed(3, "naked-rand"));
  EXPECT_TRUE(f.is_allowed(3, "unordered-iter"));  // trailing marker
  EXPECT_FALSE(f.is_allowed(1, "unordered-iter"));
}

TEST(AnalyzeLexer, AnnotationsAttachStandaloneBelowAndTrailingInPlace) {
  const ra::SourceFile f = ra::lex_string("sched/x.hpp",
      "// rush: noalloc\n"
      "void pass();\n"
      "int depth_ = 0;  // rush: guarded_by(mu_)\n"
      "/* rush: pinned */\n"
      "int k;\n"
      "// rush-analyze: allow(naked-rand) not an annotation\n"
      "int no_annotation_here;\n");
  EXPECT_EQ(f.annotations_on(2), (std::vector<std::string>{"noalloc"}));
  EXPECT_TRUE(f.annotations_on(1).empty());  // standalone attaches below, not in place
  EXPECT_EQ(f.annotations_on(3), (std::vector<std::string>{"guarded_by(mu_)"}));
  EXPECT_EQ(f.annotations_on(5), (std::vector<std::string>{"pinned"}));
  // The allow-marker spelling has '-' after "rush" and is not an annotation.
  EXPECT_TRUE(f.annotations_on(6).empty());
  EXPECT_TRUE(f.annotations_on(7).empty());
}

// ----------------------------------------------------------- outline

TEST(AnalyzeOutline, MembersFunctionsAccessAndTraits) {
  const ra::SourceFile f = ra::lex_string("sched/q.hpp",
      "namespace rush::sched {\n"
      "class Queue {\n"
      " public:\n"
      "  Queue();\n"
      "  ~Queue();\n"
      "  void push(int job, double prio = 0.0);\n"
      "  [[nodiscard]] int depth() const noexcept { return depth_; }\n"
      "  static Queue make(int cap);\n"
      "  virtual void on_start(int id);\n"
      "  bool operator<(const Queue& o) const;\n"
      "  void run(std::unique_lock<std::mutex>& lock);\n"
      " protected:\n"
      "  void requeue(int id);\n"
      " private:\n"
      "  int depth_ = 0;\n"
      "  std::vector<int> jobs_{};\n"
      "};\n"
      "}  // namespace rush::sched\n");
  const ra::Outline o = ra::build_outline(f);

  const ra::FunctionDecl& push = fn_named(o, "push");
  EXPECT_EQ(push.qualified(), "Queue::push");
  EXPECT_EQ(push.access, ra::Access::kPublic);
  EXPECT_EQ(push.arity, 2);  // default argument still counts
  EXPECT_TRUE(push.has_params);
  EXPECT_FALSE(push.is_definition);
  EXPECT_FALSE(push.is_const);

  const ra::FunctionDecl& depth = fn_named(o, "depth");
  EXPECT_TRUE(depth.is_const);
  EXPECT_TRUE(depth.is_definition);  // defined in-class
  EXPECT_FALSE(depth.has_params);

  EXPECT_TRUE(fn_named(o, "make").is_static);
  EXPECT_TRUE(fn_named(o, "on_start").is_virtual);
  EXPECT_TRUE(fn_named(o, "run").has_lock_param);
  EXPECT_EQ(fn_named(o, "requeue").access, ra::Access::kProtected);

  const ra::FunctionDecl& less = fn_named(o, "operator<");
  EXPECT_TRUE(less.is_operator);
  EXPECT_TRUE(less.is_const);

  int ctors = 0;
  for (const ra::FunctionDecl& fd : o.functions) ctors += fd.is_ctor_dtor ? 1 : 0;
  EXPECT_EQ(ctors, 2);  // Queue() and ~Queue()

  ASSERT_EQ(o.members.size(), 2u);
  EXPECT_EQ(o.members[0].name, "depth_");
  EXPECT_EQ(o.members[0].cls(), "Queue");
  EXPECT_EQ(o.members[0].line, 15);
  EXPECT_EQ(o.members[1].name, "jobs_");  // brace-initialized member
}

TEST(AnalyzeOutline, GnarlyTemplatesNestedClassesAndOutOfLineMembers) {
  const ra::SourceFile f = ra::lex_string("ml/t.cpp",
      "namespace rush::ml {\n"
      "template <typename T, std::size_t N>\n"
      "class Ring {\n"
      " public:\n"
      "  struct Slot {\n"
      "    void mark(int phase);\n"
      "    int phase_ = 0;\n"
      "  };\n"
      "  T& at(std::size_t i) { return data_[i % N]; }\n"
      " private:\n"
      "  std::array<T, N> data_{};\n"
      "};\n"
      "void Ring<double, 8>::Slot::mark(int phase) { phase_ = phase; }\n"
      "template <typename T>\n"
      "T clamp_unit(T v) { return v < T{0} ? T{0} : v; }\n"
      "double free_helper(std::map<int, double>& m, int k) { return m[k]; }\n"
      "}  // namespace rush::ml\n");
  const ra::Outline o = ra::build_outline(f);

  // Nested-class member declaration and its out-of-line definition.
  int marks = 0;
  for (const ra::FunctionDecl& fd : o.functions) {
    if (fd.name != "mark") continue;
    ++marks;
    EXPECT_EQ(fd.cls(), "Slot");
    if (fd.is_definition) {
      // Out-of-line path: template args stripped from the qualifiers.
      EXPECT_GE(fd.classes.size(), 2u);
      EXPECT_EQ(fd.classes.back(), "Slot");
    }
  }
  EXPECT_EQ(marks, 2);

  const ra::FunctionDecl& clamp = fn_named(o, "clamp_unit");
  EXPECT_TRUE(clamp.is_definition);  // a template
  EXPECT_EQ(clamp.cls(), "");

  // Template args in a parameter type must not confuse the arity count.
  EXPECT_EQ(fn_named(o, "free_helper").arity, 2);

  // The nested member variable binds to the innermost class.
  bool phase_seen = false;
  for (const ra::MemberVar& m : o.members) {
    if (m.name == "phase_") {
      phase_seen = true;
      EXPECT_EQ(m.cls(), "Slot");
    }
  }
  EXPECT_TRUE(phase_seen);
}

TEST(AnalyzeOutline, AnnotationsBindToTheSpannedDeclaration) {
  const ra::SourceFile f = ra::lex_string("sched/a.cpp",
      "namespace rush::sched {\n"
      "// rush: noalloc\n"
      "void Fast::pass(int n,\n"
      "                double w) {\n"
      "  (void)n; (void)w;\n"
      "}\n"
      "void Fast::other() {}\n"
      "}  // namespace rush::sched\n");
  const ra::Outline o = ra::build_outline(f);
  EXPECT_TRUE(fn_named(o, "pass").has_annotation("noalloc"));
  EXPECT_FALSE(fn_named(o, "other").has_annotation("noalloc"));
}

TEST(AnalyzeOutline, MemberGuardParsesItsArgument) {
  const ra::SourceFile f = ra::lex_string("obs/g.hpp",
      "class R {\n"
      "  // rush: guarded_by(mu_)\n"
      "  int a_ = 0;\n"
      "  int b_ = 0;  // rush: guarded_by(other_mu_)\n"
      "  int c_ = 0;\n"
      "};\n");
  const ra::Outline o = ra::build_outline(f);
  ASSERT_EQ(o.members.size(), 3u);
  EXPECT_EQ(o.members[0].guard(), "mu_");
  EXPECT_EQ(o.members[1].guard(), "other_mu_");
  EXPECT_EQ(o.members[2].guard(), "");
}

// -------------------------------------------------------- symbol index

TEST(AnalyzeSymbols, PairsDeclarationsWithCrossTuDefinitions) {
  const ra::SourceFile hpp = ra::lex_string("sim/e.hpp",
      "class Engine {\n"
      " public:\n"
      "  void step(double dt);\n"
      "  void step(double dt, int substeps);\n"
      "};\n");
  const ra::SourceFile cpp = ra::lex_string("sim/e.cpp",
      "void Engine::step(double dt) { (void)dt; }\n"
      "void Engine::step(double dt, int substeps) { (void)dt; (void)substeps; }\n"
      "static void caller(Engine& e) { e.step(0.1); }\n");
  ra::SymbolIndex index;
  index.add_file(hpp, true);
  index.add_file(cpp, true);
  index.finalize();

  EXPECT_EQ(index.find_definitions("Engine", "step", 1).size(), 1u);
  EXPECT_EQ(index.find_definitions("Engine", "step", 2).size(), 1u);
  // No arity match falls back to every definition of the name rather
  // than claiming "no definition".
  EXPECT_EQ(index.find_definitions("Engine", "step", 5).size(), 2u);
  EXPECT_TRUE(index.find_definitions("Engine", "missing", 0).empty());

  // `step` is called; `caller` itself is referenced nowhere.
  EXPECT_TRUE(index.referenced("step"));
  EXPECT_FALSE(index.referenced("caller"));
}

// ------------------------------------------------------------- layer DAG

TEST(AnalyzeLayerDag, UpwardAndUndeclaredIncludesAreFindingsSuppressionWorks) {
  const ra::AnalyzeResult r = run("layering", {"layer-dag"});
  EXPECT_EQ(file_keys(r),
            (std::multiset<std::pair<std::string, std::string>>{
                {"common/bad_up.hpp", "sim/clock.hpp"},  // upward include
                {"plugins/widget.hpp", "plugins"},       // undeclared module
            }));
}

TEST(AnalyzeLayerDag, FaultsSitsBelowSchedAndCyclesAreCaught) {
  // The faults module may depend downward (sim) but not upward (sched);
  // the mutual include between the two fixture headers is also a cycle.
  const ra::AnalyzeResult r = run("faultdag", {"layer-dag", "include-cycle"});
  EXPECT_EQ(file_keys(r),
            (std::multiset<std::pair<std::string, std::string>>{
                {"faults/injector.hpp", "sched/hook.hpp"},              // upward include
                {"sched/hook.hpp", "sched/hook.hpp->faults/injector.hpp"},  // cycle back edge
            }));
}

TEST(AnalyzeLayerDag, RushDagIsAcyclicAndClosed) {
  const ra::LayerDag& dag = ra::rush_layer_dag();
  // Closed: every allowed dependency is itself a declared module.
  for (const auto& [mod, deps] : dag) {
    for (const std::string& dep : deps) {
      EXPECT_TRUE(dag.count(dep) > 0) << mod << " -> " << dep;
    }
  }
  // Acyclic: repeatedly strip modules whose deps are all stripped.
  std::set<std::string> remaining;
  for (const auto& [mod, deps] : dag) remaining.insert(mod);
  bool progress = true;
  while (progress && !remaining.empty()) {
    progress = false;
    for (auto it = remaining.begin(); it != remaining.end();) {
      const std::set<std::string>& deps = dag.at(*it);
      const bool free = std::none_of(deps.begin(), deps.end(), [&](const std::string& d) {
        return remaining.count(d) > 0;
      });
      if (free) {
        it = remaining.erase(it);
        progress = true;
      } else {
        ++it;
      }
    }
  }
  EXPECT_TRUE(remaining.empty()) << "cycle among remaining modules";
}

TEST(AnalyzeIncludeCycle, CycleIsReportedOnceStandaloneQuiet) {
  const ra::AnalyzeResult r = run("cycle", {"include-cycle"});
  ASSERT_EQ(r.findings.size(), 1u);
  EXPECT_EQ(r.findings[0].rule, "include-cycle");
  EXPECT_EQ(r.findings[0].key, "c.hpp->a.hpp");
  EXPECT_NE(r.findings[0].message.find("a.hpp -> b.hpp -> c.hpp -> a.hpp"),
            std::string::npos)
      << r.findings[0].message;
}

// ----------------------------------------------------------- determinism

TEST(AnalyzeNakedRand, FiresOnEveryFormRespectsHomeAndSuppressions) {
  const ra::AnalyzeResult r = run("determinism", {"naked-rand"});
  EXPECT_EQ(file_keys(r),
            (std::multiset<std::pair<std::string, std::string>>{
                {"core/bad_rand.cpp", "rand"},
                {"core/bad_rand.cpp", "srand"},
                {"core/bad_rand.cpp", "random_device"},
                {"core/bad_rand.cpp", "time"},
                {"core/bad_rand.cpp", "time"},
            }));
}

TEST(AnalyzeRawThread, FiresOnThreadAsyncOmpOutsidePool) {
  const ra::AnalyzeResult r = run("determinism", {"raw-thread"});
  // The allow-markered std::jthread stays quiet.
  EXPECT_EQ(file_keys(r),
            (std::multiset<std::pair<std::string, std::string>>{
                {"core/bad_thread.cpp", "thread"},
                {"core/bad_thread.cpp", "async"},
                {"core/bad_thread.cpp", "omp"},
            }));
}

TEST(AnalyzeUnorderedIter, SeesCrossFileMembersSkipsSortedCopiesAndScope) {
  const ra::AnalyzeResult r = run("determinism", {"unordered-iter"});
  EXPECT_EQ(file_keys(r),
            (std::multiset<std::pair<std::string, std::string>>{
                {"apps/bad_iter.cpp", "ids_"},
                {"sched/bad_iter.cpp", "weights_"},
            }));
}

TEST(AnalyzeSchedLinearScan, FlagsMemberScansHonoursExemptionAndMarkers) {
  const ra::AnalyzeResult r = run("determinism", {"sched-linear-scan"});
  // queue_ and pending_ fire; the allow-markered running_ scan and the
  // local-container scan stay quiet.
  EXPECT_EQ(file_keys(r),
            (std::multiset<std::pair<std::string, std::string>>{
                {"sched/bad_scan.cpp", "queue_"},
                {"sched/bad_scan.cpp", "pending_"},
            }));
}

// -------------------------------------------------------- header hygiene

TEST(AnalyzePragmaOnce, MissingGuardIsAFinding) {
  const ra::AnalyzeResult r = run("hygiene", {"pragma-once"});
  // obs/waived_guard.hpp waives the guard with a line-1 marker.
  EXPECT_EQ(file_keys(r),
            (std::multiset<std::pair<std::string, std::string>>{
                {"obs/no_guard.hpp", "missing"},
            }));
}

TEST(AnalyzeRedundantInclude, DuplicatesAndPrimaryHeaderEchoes) {
  const ra::AnalyzeResult r = run("hygiene", {"redundant-include"});
  // The allow-markered second <string> in dup_include.hpp stays quiet.
  EXPECT_EQ(file_keys(r),
            (std::multiset<std::pair<std::string, std::string>>{
                {"cluster/widget.cpp", "common/base.hpp"},
                {"obs/dup_include.hpp", "common/base.hpp"},
            }));
}

TEST(AnalyzeUnusedModuleInclude, UnreferencedModuleOnly) {
  const ra::AnalyzeResult r = run("hygiene", {"unused-module-include"});
  // The allow-markered obs/ include stays quiet.
  EXPECT_EQ(file_keys(r),
            (std::multiset<std::pair<std::string, std::string>>{
                {"telemetry/unused_inc.hpp", "sim/thing.hpp"},
            }));
}

// ------------------------------------------------------ contract rules

TEST(AnalyzeMissingExpects, PairsDeclWithDefinitionHonoursExemptions) {
  const ra::AnalyzeResult r = run("expects", {"missing-expects"});
  // push (def without RUSH_EXPECTS) and the in-class reserve_hint fire;
  // drop (has RUSH_EXPECTS), const/no-param/private members, both
  // allow-markered declarations, and the telemetry module stay quiet.
  EXPECT_EQ(file_keys(r),
            (std::multiset<std::pair<std::string, std::string>>{
                {"sched/queue.hpp", "MiniQueue::push"},
                {"sched/queue.hpp", "MiniQueue::reserve_hint"},
            }));
}

TEST(AnalyzeTraceSimTime, FirstArgumentMustCarrySimTime) {
  const ra::AnalyzeResult r = run("tracetime", {"trace-sim-time"});
  // now()/*_s/t first args are fine; a counter first arg and an empty
  // argument list fire; the allow-markered replay call stays quiet.
  EXPECT_EQ(file_keys(r),
            (std::multiset<std::pair<std::string, std::string>>{
                {"sim/emitter.cpp", "emit_event"},
                {"sim/emitter.cpp", "emit_tick"},
            }));
}

TEST(AnalyzeNoallocPath, ClosureOverSameModuleCalleesMemberScratchAllowed) {
  const ra::AnalyzeResult r = run("noalloc", {"noalloc-path"});
  // The annotated root's local vector + its growth fire; `new` fires in a
  // callee (reachability, not annotation, is the contract); the
  // trailing-underscore member scratch, the static local, the reference
  // binding, the allow-markered lazy init, and the unreachable
  // cold_setup stay quiet.
  EXPECT_EQ(file_keys(r),
            (std::multiset<std::pair<std::string, std::string>>{
                {"sched/fast.cpp", "pass:locals"},
                {"sched/fast.cpp", "pass:locals.push_back"},
                {"sched/fast.cpp", "helper:new"},
            }));
}

TEST(AnalyzeGuardedMember, TouchBeforeLockFiresHelpersAndCtorsExempt) {
  const ra::AnalyzeResult r = run("guarded", {"guarded-member"});
  // The pre-lock touch in peek_racy and the lockless in-class empty_racy
  // fire; locked methods, the *_locked helper, the lock-parameter
  // helper, the constructor, other.table_, and the allow-markered
  // size_estimate stay quiet.
  EXPECT_EQ(file_keys(r),
            (std::multiset<std::pair<std::string, std::string>>{
                {"obs/registry.cpp", "table_@peek_racy"},
                {"obs/registry.hpp", "table_@empty_racy"},
            }));
}

TEST(AnalyzeDeadSymbol, UnreferencedDefinitionsOnlyVirtualOperatorMainExempt) {
  const ra::AnalyzeResult r = run("deadsym", {"dead-symbol"});
  // orphan, bench_only, the constexpr header_const, the template
  // header_tmpl and the in-class Tally::peek are referenced nowhere in
  // the tree; the called inline header_helper and in-class Tally::bump,
  // the virtual override, the operator, main, and the allow-markered
  // tolerated stay quiet.
  EXPECT_EQ(file_keys(r),
            (std::multiset<std::pair<std::string, std::string>>{
                {"core/util.cpp", "orphan"},
                {"core/util.cpp", "bench_only"},
                {"core/util.hpp", "header_const"},
                {"core/util.hpp", "header_tmpl"},
                {"core/util.hpp", "Tally::peek"},
            }));
}

TEST(AnalyzeDeadSymbol, RefRootsKeepExternallyExercisedApiAlive) {
  const ra::AnalyzeResult r = run("deadsym", {"dead-symbol"}, {"deadsym_ref"});
  // bench_only is called from the reference tree, so it leaves the set;
  // the reference tree's own local_orphan is not a rule target.
  EXPECT_EQ(file_keys(r),
            (std::multiset<std::pair<std::string, std::string>>{
                {"core/util.cpp", "orphan"},
                {"core/util.hpp", "header_const"},
                {"core/util.hpp", "header_tmpl"},
                {"core/util.hpp", "Tally::peek"},
            }));
  EXPECT_EQ(r.stats.ref_files, 1u);
}

TEST(AnalyzeDeadSymbol, InClassAccessorOnlyANonReferenceTreeCallsIsReported) {
  // Tally::peek is defined inside its class and called only from the
  // deadsym_tests tree, which the gate does not index (as the ctest gate
  // does not index tests/): it is a finding.
  const auto keys = file_keys(run("deadsym", {"dead-symbol"}, {"deadsym_ref"}));
  EXPECT_EQ(keys.count({"core/util.hpp", "Tally::peek"}), 1u);
  EXPECT_EQ(keys.count({"core/util.hpp", "Tally::bump"}), 0u);
  // Indexed as a reference tree, the same call keeps it alive.
  const auto with_tests =
      file_keys(run("deadsym", {"dead-symbol"}, {"deadsym_ref", "deadsym_tests"}));
  EXPECT_EQ(with_tests.count({"core/util.hpp", "Tally::peek"}), 0u);
}

TEST(AnalyzeDeadSymbol, DefineBodiesCountAsReferences) {
  // check_failed is defined in util.cpp and named only in the body of
  // util.hpp's CHECK macro, as detail::precondition_failure is named
  // only by RUSH_EXPECTS.
  const auto keys = file_keys(run("deadsym", {"dead-symbol"}));
  EXPECT_EQ(keys.count({"core/util.cpp", "check_failed"}), 0u);
}

// ---------------------------------------------------------- integration

TEST(AnalyzeFullCatalogue, FixtureTreesProduceExactlyTheSeededFindings) {
  // Fixture functions are mostly unreferenced by construction, so the
  // full catalogue adds deterministic dead-symbol (and in sim/sched
  // trees missing-expects) findings on top of each tree's seeded rule.
  EXPECT_EQ(run("determinism").findings.size(), 34u);  // 5 rand + 3 thread + 2 iter + 2 scan + 2 expects + 20 dead
  EXPECT_EQ(run("hygiene").findings.size(), 10u);  // 1 guard + 2 redundant + 1 unused + 6 dead
  EXPECT_EQ(run("layering").findings.size(), 5u);   // 2 layer + 3 dead
  EXPECT_EQ(run("cycle").findings.size(), 2u);      // 1 cycle + 1 dead
  EXPECT_EQ(run("faultdag").findings.size(), 2u);   // 1 upward include + 1 cycle
  EXPECT_EQ(run("expects").findings.size(), 11u);   // 2 expects + 9 dead
  EXPECT_EQ(run("tracetime").findings.size(), 3u);  // 2 trace + 1 dead
  EXPECT_EQ(run("noalloc").findings.size(), 8u);    // 3 noalloc + 3 expects + 2 dead
  EXPECT_EQ(run("guarded").findings.size(), 10u);   // 2 guarded + 8 dead
  EXPECT_EQ(run("deadsym").findings.size(), 5u);
}

// ------------------------------------------------------------ reporting

TEST(AnalyzeReport, HumanAndStatsRendersCarryTheRun) {
  const ra::AnalyzeResult r = run("cycle");
  const std::string human = ra::render_human(r);
  EXPECT_NE(human.find("include-cycle"), std::string::npos);
  EXPECT_NE(human.find("4 file(s), 2 finding(s)"), std::string::npos) << human;
  EXPECT_GT(r.stats.tokens, 0u);
  EXPECT_NE(ra::render_stats(r.stats).find("analyzed 4 file(s)"), std::string::npos);
}

TEST(AnalyzeCatalogue, EveryRuleIsDocumented) {
  std::set<std::string> names;
  for (const ra::RuleInfo& r : ra::rule_catalogue()) {
    EXPECT_FALSE(r.summary.empty()) << r.name;
    names.insert(r.name);
  }
  for (const char* expected :
       {"layer-dag", "include-cycle", "naked-rand", "raw-thread", "unordered-iter",
        "sched-linear-scan", "pragma-once", "redundant-include", "unused-module-include",
        "missing-expects", "trace-sim-time", "noalloc-path", "guarded-member",
        "dead-symbol"}) {
    EXPECT_TRUE(names.count(expected) > 0) << expected;
  }
  EXPECT_EQ(names.size(), 14u);
}

// ----------------------------------------------------------------- sarif

TEST(AnalyzeReport, SarifCarriesRulesResultsAndLocations) {
  const ra::AnalyzeResult r = run("cycle");
  const std::string sarif = ra::render_sarif(r);
  EXPECT_NE(sarif.find("\"version\":\"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("\"name\":\"rush_analyze\""), std::string::npos);
  EXPECT_NE(sarif.find("\"ruleId\":\"include-cycle\""), std::string::npos);
  EXPECT_NE(sarif.find("\"uri\":\"c.hpp\""), std::string::npos);
  EXPECT_NE(sarif.find("\"startLine\":2"), std::string::npos);
  // Every catalogue rule is described in the driver metadata.
  for (const ra::RuleInfo& info : ra::rule_catalogue()) {
    EXPECT_NE(sarif.find("\"id\":\"" + info.name + "\""), std::string::npos) << info.name;
  }
}

TEST(AnalyzeReport, SarifKeepsItsBytes) {
  ra::AnalyzeResult r;
  r.findings.push_back({"layer-dag", "sim/engine.cpp", 12, "core/pipeline.hpp",
                        "sim may not include core/pipeline.hpp"});
  r.findings.push_back({"pragma-once", "obs/a \"b\".hpp", 0, "pragma", "missing #pragma once"});
  const std::string sarif = ra::render_sarif(r);
  EXPECT_EQ(rush::golden::hex(rush::golden::fnv1a(sarif)), "0xee47373ca2a8220e") << sarif;
}
