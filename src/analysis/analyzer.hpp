// Orchestration for rush_analyze: collect files, lex each once, build
// the cross-TU symbol index, run every rule, and render reports.
#pragma once

#include <cstddef>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "analysis/finding.hpp"
#include "analysis/include_graph.hpp"
#include "analysis/lexer.hpp"

namespace rush::analysis {

struct AnalyzeOptions {
  /// Include-resolution root; file paths in reports are relative to it.
  std::filesystem::path root;
  /// Files or directories (recursed) under `root` to analyze. Empty
  /// means "all of root".
  std::vector<std::filesystem::path> inputs;
  /// Extra trees lexed and indexed for symbol references only — their
  /// files are never rule targets, but calls from them keep symbols
  /// alive for dead-symbol and provide definitions for pairing.
  std::vector<std::filesystem::path> ref_roots;
  /// Restrict to these rule names; empty runs the whole catalogue.
  std::set<std::string> only;
  /// Architecture DAG for the layer rule; null uses rush_layer_dag().
  const LayerDag* dag = nullptr;
};

/// Workload counters for one run (--stats).
struct AnalyzeStats {
  std::size_t files_analyzed = 0;
  std::size_t ref_files = 0;
  std::size_t tokens = 0;  // across analyzed + reference files
  double elapsed_s = 0.0;
};

struct AnalyzeResult {
  std::vector<Finding> findings;  // unsuppressed: these fail the run
  AnalyzeStats stats;
};

/// Read, lex and check every input file once.
AnalyzeResult analyze(const AnalyzeOptions& options);

/// One line per finding plus a summary, for terminals.
std::string render_human(const AnalyzeResult& result);

/// SARIF 2.1.0 report (one run, rule metadata from the catalogue), for
/// CI annotation upload.
std::string render_sarif(const AnalyzeResult& result);

/// One human-readable line summarizing `stats` (--stats output).
std::string render_stats(const AnalyzeStats& stats);

}  // namespace rush::analysis
