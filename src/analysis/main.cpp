// rush_analyze — native static analysis for the RUSH codebase.
//
//   rush_analyze [options] <path>...
//
//   --root DIR        include-resolution root (default: the sole directory
//                     argument, else the current directory)
//   --rule NAME       run only this rule (repeatable)
//   --ref-root DIR    index DIR for symbol references without analyzing
//                     it (repeatable; keeps test/bench-only API from
//                     tripping dead-symbol)
//   --sarif FILE      also write a SARIF 2.1.0 report to FILE
//   --stats           print workload counters (files, tokens, time) to
//                     stderr after the run
//   --list-rules      print the rule catalogue and exit
//
// Exit status: 0 clean, 1 findings, 2 usage or I/O error. See
// docs/static-analysis.md.
#include <cstdio>
#include <cstring>
#include <fstream>

#include "analysis/analyzer.hpp"
#include "analysis/rules.hpp"
#include "common/error.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: rush_analyze [--root DIR] [--rule NAME]... [--ref-root DIR]...\n"
               "                    [--sarif FILE] [--stats] [--list-rules] <path>...\n");
  return 2;
}

int list_rules() {
  for (const rush::analysis::RuleInfo& r : rush::analysis::rule_catalogue()) {
    std::printf("%-22s %s\n", r.name.c_str(), r.summary.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rush::analysis;
  AnalyzeOptions options;
  std::filesystem::path sarif_path;
  bool stats = false;
  bool root_set = false;

  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--list-rules") return list_rules();
    if (arg == "--stats") {
      stats = true;
    } else if (arg == "--sarif") {
      const char* v = value();
      if (v == nullptr) return usage();
      sarif_path = v;
    } else if (arg == "--ref-root") {
      const char* v = value();
      if (v == nullptr) return usage();
      options.ref_roots.emplace_back(v);
    } else if (arg == "--root") {
      const char* v = value();
      if (v == nullptr) return usage();
      options.root = v;
      root_set = true;
    } else if (arg == "--rule") {
      const char* v = value();
      if (v == nullptr) return usage();
      options.only.insert(v);
    } else if (arg == "-h" || arg == "--help") {
      return usage();
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "rush_analyze: unknown option %s\n", argv[i]);
      return usage();
    } else {
      options.inputs.emplace_back(arg);
    }
  }
  if (options.inputs.empty()) return usage();
  if (!root_set) {
    options.root = options.inputs.size() == 1 &&
                           std::filesystem::is_directory(options.inputs.front())
                       ? options.inputs.front()
                       : std::filesystem::current_path();
  }

  try {
    const AnalyzeResult result = analyze(options);
    std::fputs(render_human(result).c_str(), stdout);
    if (!sarif_path.empty()) {
      std::ofstream out(sarif_path);
      if (!out) {
        std::fprintf(stderr, "rush_analyze: cannot write %s\n",
                     sarif_path.string().c_str());
        return 2;
      }
      out << render_sarif(result);
    }
    if (stats) std::fputs(render_stats(result.stats).c_str(), stderr);
    return result.findings.empty() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rush_analyze: %s\n", e.what());
    return 2;
  }
}
