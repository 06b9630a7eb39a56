// Rule catalogue for rush_analyze.
//
// Graph rules (layer-dag, include-cycle) live in include_graph.hpp; this
// header declares the per-file token rules. Every rule honours inline
// `rush-analyze: allow(<rule>)` markers (see lexer.hpp) and emits
// line-independent keys (see finding.hpp).
#pragma once

#include <string>
#include <vector>

#include "analysis/finding.hpp"
#include "analysis/lexer.hpp"

namespace rush::analysis {

struct RuleInfo {
  std::string name;
  std::string summary;
};

/// Names and one-line summaries of every rule, for --list-rules and docs.
const std::vector<RuleInfo>& rule_catalogue();

/// naked-rand: std::rand/srand/std::random_device/time(nullptr) anywhere
/// outside common/rng — all randomness must flow through the seeded,
/// splittable RNG streams.
void check_naked_rand(const SourceFile& f, std::vector<Finding>& out);

/// raw-thread: std::thread/std::jthread/std::async or `#pragma omp`
/// outside common/task_pool — parallelism must go through the
/// deterministic task pool.
void check_raw_thread(const SourceFile& f, std::vector<Finding>& out);

/// unordered-iter (sim/, sched/, core/): range-for over a member declared
/// as std::unordered_{map,set,multimap,multiset} in this file or a
/// same-directory sibling — iteration order is unspecified and these
/// subsystems feed ordered output and RNG draws.
void check_unordered_iter(const SourceFile& f,
                          const std::vector<const SourceFile*>& dir_siblings,
                          std::vector<Finding>& out);

/// sched-linear-scan (sched/ only): std::find/find_if/count/remove over a
/// member container (trailing-underscore name) — the incremental
/// scheduler core keeps its hot containers sorted, so membership tests
/// and erases must be binary searches. The pinned
/// sched/reference_scheduler baseline is exempt by design; deliberate
/// fallbacks (the AfterFront unsorted regime) carry allow markers.
void check_sched_linear_scan(const SourceFile& f, std::vector<Finding>& out);

/// pragma-once: every header must open with #pragma once.
void check_pragma_once(const SourceFile& f, std::vector<Finding>& out);

/// redundant-include: the same target included twice in one file, or a
/// TU re-including a project header its own primary header (foo.hpp for
/// foo.cpp) already includes directly.
void check_redundant_include(const SourceFile& f, const SourceFile* primary_header,
                             std::vector<Finding>& out);

/// unused-module-include: a header pulls in another module's header but
/// its tokens never name that module's namespace — dead coupling that
/// still costs rebuild time and widens the include graph.
void check_unused_module_include(const SourceFile& f, std::vector<Finding>& out);

}  // namespace rush::analysis
