// Run manifest: the provenance record written alongside every trace.
//
// A trace without its generating configuration cannot be audited; the
// manifest pins the master seed, the bench configuration, the git
// revision the binary was built from, and the build flags that can
// change numeric results (audit hooks, sanitizers, build type). It is
// one JSON object in a sibling file (<trace>.manifest.json by
// convention), intentionally byte-deterministic: no wall-clock
// timestamps, no hostnames.
#pragma once

#include <cstdint>
#include <string>

namespace rush::obs {

struct RunManifest {
  /// Program that produced the run (e.g. "bench_headline_summary").
  std::string tool;
  std::uint64_t seed = 0;
  int trials = 0;
  int days = 0;
  /// Path of the JSONL trace this manifest describes (empty if none).
  std::string trace_path;
};

/// Compile-time build provenance (git SHA injected by src/obs/CMakeLists).
[[nodiscard]] std::string git_sha();
[[nodiscard]] std::string build_type();
[[nodiscard]] std::string compiler();
[[nodiscard]] bool audit_enabled() noexcept;

/// Renders the manifest (plus build provenance) as one JSON object.
[[nodiscard]] std::string manifest_json(const RunManifest& manifest);

/// Writes manifest_json(manifest) + "\n" to `path`; throws ParseError
/// when the file cannot be opened.
void write_manifest(const std::string& path, const RunManifest& manifest);

}  // namespace rush::obs
