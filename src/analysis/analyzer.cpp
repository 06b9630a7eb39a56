#include "analysis/analyzer.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <map>
#include <sstream>

#include "analysis/contracts.hpp"
#include "analysis/rules.hpp"
#include "analysis/symbols.hpp"
#include "common/error.hpp"
#include "obs/json.hpp"

namespace rush::analysis {

namespace {

bool cxx_suffix(const std::filesystem::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".hpp" || ext == ".h" || ext == ".hh" || ext == ".hxx" ||
         ext == ".cpp" || ext == ".cc" || ext == ".cxx";
}

std::string rel_to(const std::filesystem::path& root, const std::filesystem::path& p) {
  const std::filesystem::path rel = p.lexically_relative(root);
  return (rel.empty() || *rel.begin() == "..") ? p.generic_string() : rel.generic_string();
}

std::vector<std::filesystem::path> collect(const std::vector<std::filesystem::path>& inputs) {
  std::vector<std::filesystem::path> files;
  for (const std::filesystem::path& input : inputs) {
    if (std::filesystem::is_directory(input)) {
      for (const auto& entry : std::filesystem::recursive_directory_iterator(input)) {
        if (entry.is_regular_file() && cxx_suffix(entry.path())) {
          files.push_back(entry.path());
        }
      }
    } else if (std::filesystem::is_regular_file(input) && cxx_suffix(input)) {
      files.push_back(input);
    } else {
      throw ParseError("rush_analyze: no such file or directory: " + input.string());
    }
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());
  return files;
}

/// Primary header of a TU: same path with a header suffix.
const SourceFile* primary_header_of(const SourceFile& f,
                                    const std::map<std::string, const SourceFile*>& by_rel) {
  const std::size_t dot = f.rel.rfind('.');
  if (dot == std::string::npos) return nullptr;
  const std::string stem = f.rel.substr(0, dot);
  for (const char* ext : {".hpp", ".h", ".hh", ".hxx"}) {
    const auto it = by_rel.find(stem + ext);
    if (it != by_rel.end()) return it->second;
  }
  return nullptr;
}

/// Read and lex each path not already in `seen` (canonical paths, so an
/// input is never re-read as part of a --ref-root tree).
std::vector<SourceFile> read_files(const std::filesystem::path& root,
                                   const std::vector<std::filesystem::path>& paths,
                                   std::set<std::filesystem::path>& seen) {
  std::vector<SourceFile> out;
  for (const std::filesystem::path& p : paths) {
    if (!seen.insert(std::filesystem::weakly_canonical(p)).second) continue;
    std::ifstream in(p, std::ios::binary);
    if (!in) throw ParseError("rush_analyze: cannot read " + p.string());
    std::ostringstream buf;
    buf << in.rdbuf();
    out.push_back(lex_string(rel_to(root, p), buf.str()));
  }
  return out;
}

}  // namespace

AnalyzeResult analyze(const AnalyzeOptions& options) {
  const auto t0 = std::chrono::steady_clock::now();
  const auto enabled = [&options](const char* rule) {
    return options.only.empty() || options.only.count(rule) > 0;
  };

  AnalyzeResult result;
  AnalyzeStats& stats = result.stats;

  std::set<std::filesystem::path> seen;
  const std::vector<SourceFile> sources = read_files(
      options.root,
      collect(options.inputs.empty() ? std::vector<std::filesystem::path>{options.root}
                                     : options.inputs),
      seen);
  const std::vector<SourceFile> ref_files =
      read_files(options.root, collect(options.ref_roots), seen);
  std::vector<const SourceFile*> files;
  for (const SourceFile& f : sources) files.push_back(&f);
  stats.files_analyzed = sources.size();
  stats.ref_files = ref_files.size();
  for (const SourceFile& f : sources) stats.tokens += f.tokens.size();
  for (const SourceFile& f : ref_files) stats.tokens += f.tokens.size();

  std::map<std::string, const SourceFile*> by_rel;
  std::map<std::string, std::vector<const SourceFile*>> by_dir;
  for (const SourceFile* f : files) {
    by_rel[f->rel] = f;
    by_dir[dir_of(f->rel)].push_back(f);
  }

  std::vector<Finding> all;
  const IncludeGraph graph(files);
  if (enabled("layer-dag")) {
    graph.check_layers(options.dag != nullptr ? *options.dag : rush_layer_dag(), all);
  }
  if (enabled("include-cycle")) graph.check_cycles(all);

  for (const SourceFile* fp : files) {
    const SourceFile& f = *fp;
    if (enabled("naked-rand")) check_naked_rand(f, all);
    if (enabled("raw-thread")) check_raw_thread(f, all);
    if (enabled("unordered-iter")) {
      check_unordered_iter(f, by_dir.at(dir_of(f.rel)), all);
    }
    if (enabled("sched-linear-scan")) check_sched_linear_scan(f, all);
    if (enabled("pragma-once")) check_pragma_once(f, all);
    if (enabled("redundant-include")) {
      check_redundant_include(f, primary_header_of(f, by_rel), all);
    }
    if (enabled("unused-module-include")) check_unused_module_include(f, all);
    if (enabled("trace-sim-time")) check_trace_sim_time(f, all);
  }

  // The semantic rules share one cross-TU symbol index; skip the outline
  // pass entirely when none of them is enabled.
  if (enabled("missing-expects") || enabled("noalloc-path") ||
      enabled("guarded-member") || enabled("dead-symbol")) {
    SymbolIndex index;
    for (const SourceFile* f : files) index.add_file(*f, /*analyzed=*/true);
    for (const SourceFile& f : ref_files) index.add_file(f, /*analyzed=*/false);
    index.finalize();
    if (enabled("missing-expects")) check_missing_expects(index, all);
    if (enabled("noalloc-path")) check_noalloc_path(index, all);
    if (enabled("guarded-member")) check_guarded_member(index, all);
    if (enabled("dead-symbol")) check_dead_symbol(index, all);
  }
  std::sort(all.begin(), all.end());

  result.findings = std::move(all);
  stats.elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  return result;
}

std::string render_human(const AnalyzeResult& result) {
  std::string out;
  for (const Finding& f : result.findings) {
    out += f.file + ":" + std::to_string(f.line) + ": [" + f.rule + "] " +
           f.message + "\n";
  }
  out += "rush_analyze: " + std::to_string(result.stats.files_analyzed) + " file(s), " +
         std::to_string(result.findings.size()) + " finding(s)\n";
  return out;
}

std::string render_sarif(const AnalyzeResult& result) {
  std::string out;
  obs::JsonWriter w(out);
  w.begin_object();
  w.field("$schema", "https://json.schemastore.org/sarif-2.1.0.json");
  w.field("version", "2.1.0");
  w.begin_array("runs");
  w.begin_object();
  w.begin_object("tool");
  w.begin_object("driver");
  w.field("name", "rush_analyze");
  w.field("informationUri", "docs/static-analysis.md");
  w.begin_array("rules");
  for (const RuleInfo& r : rule_catalogue()) {
    w.begin_object();
    w.field("id", r.name);
    w.begin_object("shortDescription");
    w.field("text", r.summary);
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.end_object();  // driver
  w.end_object();  // tool
  w.begin_array("results");
  for (const Finding& f : result.findings) {
    w.begin_object();
    w.field("ruleId", f.rule);
    w.field("level", "error");
    w.begin_object("message");
    w.field("text", f.message);
    w.end_object();
    w.begin_array("locations");
    w.begin_object();
    w.begin_object("physicalLocation");
    w.begin_object("artifactLocation");
    w.field("uri", f.file);
    w.end_object();
    w.begin_object("region");
    w.field("startLine", f.line > 0 ? f.line : 1);
    w.end_object();
    w.end_object();  // physicalLocation
    w.end_object();
    w.end_array();
    w.begin_object("partialFingerprints");
    w.field("rushKey", f.rule + ":" + f.file + ":" + f.key);
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  w.end_array();
  w.end_object();
  out += "\n";
  return out;
}

std::string render_stats(const AnalyzeStats& stats) {
  std::string out = "rush_analyze: analyzed " + std::to_string(stats.files_analyzed) +
                    " file(s)";
  if (stats.ref_files > 0) {
    out += " + " + std::to_string(stats.ref_files) + " reference file(s)";
  }
  out += ", " + std::to_string(stats.tokens) + " tokens, " +
         std::to_string(stats.elapsed_s * 1e3) + " ms\n";
  return out;
}

}  // namespace rush::analysis
