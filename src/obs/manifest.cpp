#include "obs/manifest.hpp"

#include <fstream>

#include "common/error.hpp"
#include "obs/json.hpp"

#ifndef RUSH_GIT_SHA
#define RUSH_GIT_SHA "unknown"
#endif
#ifndef RUSH_BUILD_TYPE
#define RUSH_BUILD_TYPE "unknown"
#endif

namespace rush::obs {

std::string git_sha() { return RUSH_GIT_SHA; }
std::string build_type() { return RUSH_BUILD_TYPE; }

std::string compiler() {
#if defined(__clang__)
  return "clang " __clang_version__;
#elif defined(__GNUC__)
  return "gcc " __VERSION__;
#else
  return "unknown";
#endif
}

bool audit_enabled() noexcept {
#ifdef RUSH_AUDIT_ENABLED
  return true;
#else
  return false;
#endif
}

std::string manifest_json(const RunManifest& manifest) {
  std::string out;
  JsonWriter w(out);
  w.begin_object();
  w.field("schema", 1);
  w.field("tool", manifest.tool);
  w.field("seed", manifest.seed);
  w.field("trials", manifest.trials);
  w.field("days", manifest.days);
  w.field("trace_path", manifest.trace_path);
  w.field("git_sha", git_sha());
  w.field("build_type", build_type());
  w.field("compiler", compiler());
  w.field("audit_enabled", audit_enabled());
  w.end_object();
  return out;
}

void write_manifest(const std::string& path, const RunManifest& manifest) {
  std::ofstream file(path, std::ios::trunc);
  if (!file.is_open()) throw ParseError("write_manifest: cannot open " + path);
  file << manifest_json(manifest) << "\n";
}

}  // namespace rush::obs
