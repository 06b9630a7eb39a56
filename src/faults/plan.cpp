#include "faults/plan.hpp"

#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>

#include "common/error.hpp"
#include "obs/json.hpp"

namespace rush::faults {
namespace {

using obs::JsonValue;

[[noreturn]] void plan_error(std::size_t event_index, const std::string& what) {
  throw ParseError("fault plan event[" + std::to_string(event_index) + "]: " + what);
}

double require_number(const JsonValue& v, std::size_t index, const std::string& key) {
  if (v.kind != JsonValue::Kind::Number) plan_error(index, "\"" + key + "\" must be a number");
  return v.number;
}

std::int32_t require_int32(const JsonValue& v, std::size_t index, const std::string& key) {
  const double x = require_number(v, index, key);
  if (!(x >= std::numeric_limits<std::int32_t>::min() &&
        x <= std::numeric_limits<std::int32_t>::max() && x == std::trunc(x)))
    plan_error(index, "\"" + key + "\" must be an integer that fits int32");
  return static_cast<std::int32_t>(x);
}

FaultEvent parse_event(const JsonValue& obj, std::size_t index) {
  if (obj.kind != JsonValue::Kind::Object) plan_error(index, "must be an object");
  FaultEvent ev;
  bool have_kind = false;
  bool have_at = false;
  for (const auto& [key, value] : obj.members) {
    if (key == "kind") {
      if (value.kind != JsonValue::Kind::String || !fault_kind_from_name(value.text, ev.kind))
        plan_error(index, "unknown \"kind\" (see docs/fault-injection.md for the taxonomy)");
      have_kind = true;
    } else if (key == "at_s") {
      ev.at_s = require_number(value, index, key);
      have_at = true;
    } else if (key == "node") {
      ev.node = require_int32(value, index, key);
    } else if (key == "link") {
      ev.link = require_int32(value, index, key);
    } else if (key == "factor") {
      ev.factor = require_number(value, index, key);
    } else if (key == "duration_s") {
      ev.duration_s = require_number(value, index, key);
    } else {
      plan_error(index, "unknown key \"" + key + "\"");
    }
  }
  if (!have_kind) plan_error(index, "missing required key \"kind\"");
  if (!have_at) plan_error(index, "missing required key \"at_s\"");
  return ev;
}

}  // namespace

const char* fault_kind_name(FaultKind kind) noexcept {
  switch (kind) {
    case FaultKind::NodeCrash: return "node_crash";
    case FaultKind::NodeDrain: return "node_drain";
    case FaultKind::NodeRestore: return "node_restore";
    case FaultKind::LinkDegrade: return "link_degrade";
    case FaultKind::LinkRestore: return "link_restore";
    case FaultKind::SamplerDropout: return "sampler_dropout";
    case FaultKind::CounterCorrupt: return "counter_corrupt";
    case FaultKind::CanaryTimeout: return "canary_timeout";
  }
  return "unknown";
}

bool fault_kind_from_name(std::string_view name, FaultKind& out) noexcept {
  for (int k = 0; k < kNumFaultKinds; ++k) {
    const auto kind = static_cast<FaultKind>(k);
    if (name == fault_kind_name(kind)) {
      out = kind;
      return true;
    }
  }
  return false;
}

void FaultPlan::validate() const {
  for (std::size_t i = 0; i < events.size(); ++i) {
    const FaultEvent& ev = events[i];
    if (!std::isfinite(ev.at_s) || ev.at_s < 0.0) plan_error(i, "\"at_s\" must be finite and >= 0");
    if (!std::isfinite(ev.duration_s) || ev.duration_s < 0.0)
      plan_error(i, "\"duration_s\" must be finite and >= 0");
    switch (ev.kind) {
      case FaultKind::NodeCrash:
      case FaultKind::NodeDrain:
      case FaultKind::NodeRestore:
        if (ev.node < 0) plan_error(i, "node-scoped kinds require \"node\" >= 0");
        break;
      case FaultKind::LinkDegrade:
        if (ev.link < 0) plan_error(i, "link-scoped kinds require \"link\" >= 0");
        if (!std::isfinite(ev.factor) || ev.factor <= 0.0 || ev.factor > 1.0)
          plan_error(i, "\"factor\" must be in (0, 1]");
        break;
      case FaultKind::LinkRestore:
        if (ev.link < 0) plan_error(i, "link-scoped kinds require \"link\" >= 0");
        break;
      case FaultKind::SamplerDropout:
      case FaultKind::CanaryTimeout:
        if (ev.duration_s <= 0.0) plan_error(i, "window kinds require \"duration_s\" > 0");
        break;
      case FaultKind::CounterCorrupt:
        if (ev.duration_s <= 0.0) plan_error(i, "window kinds require \"duration_s\" > 0");
        break;  // node may stay -1: corrupt every node's readings
    }
  }
}

FaultPlan FaultPlan::from_json(std::string_view text) {
  const JsonValue doc = obs::parse_json(text);
  if (doc.kind != JsonValue::Kind::Object)
    throw ParseError("fault plan JSON: top level must be an object");
  FaultPlan plan;
  bool have_events = false;
  for (const auto& [key, value] : doc.members) {
    if (key == "v") {
      if (value.kind != JsonValue::Kind::Number || value.number != 1.0)
        throw ParseError("fault plan JSON: unsupported schema version (expected \"v\": 1)");
    } else if (key == "events") {
      if (value.kind != JsonValue::Kind::Array)
        throw ParseError("fault plan JSON: \"events\" must be an array");
      plan.events.reserve(value.items.size());
      for (std::size_t i = 0; i < value.items.size(); ++i)
        plan.events.push_back(parse_event(value.items[i], i));
      have_events = true;
    } else {
      throw ParseError("fault plan JSON: unknown top-level key \"" + key + "\"");
    }
  }
  if (!have_events) throw ParseError("fault plan JSON: missing top-level \"events\" array");
  plan.validate();
  return plan;
}

FaultPlan FaultPlan::from_json(std::istream& in) {
  std::ostringstream buf;
  buf << in.rdbuf();
  if (!in && !in.eof()) throw ParseError("fault plan JSON: stream read failed");
  return from_json(std::string_view(buf.view()));
}

FaultPlan FaultPlan::from_json_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw ParseError("fault plan: cannot open " + path);
  return from_json(in);
}

}  // namespace rush::faults
