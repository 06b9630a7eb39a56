#include "analysis/include_graph.hpp"

#include <algorithm>

namespace rush::analysis {

namespace {

/// Lexically normalize "a/./b", "a/../b", "a//b" without touching the fs.
std::string normalize(std::string_view path) {
  std::vector<std::string_view> parts;
  std::size_t begin = 0;
  while (begin <= path.size()) {
    const std::size_t slash = path.find('/', begin);
    const std::size_t end = slash == std::string_view::npos ? path.size() : slash;
    const std::string_view part = path.substr(begin, end - begin);
    if (part == "..") {
      if (!parts.empty()) parts.pop_back();
    } else if (!part.empty() && part != ".") {
      parts.push_back(part);
    }
    if (slash == std::string_view::npos) break;
    begin = slash + 1;
  }
  std::string out;
  for (const std::string_view& p : parts) {
    if (!out.empty()) out.push_back('/');
    out.append(p);
  }
  return out;
}

}  // namespace

const LayerDag& rush_layer_dag() {
  static const LayerDag dag = {
      {"common", {}},
      {"obs", {"common"}},
      {"sim", {"common", "obs"}},
      {"cluster", {"common", "obs", "sim"}},
      {"telemetry", {"common", "obs", "sim", "cluster"}},
      {"apps", {"common", "obs", "sim", "cluster", "telemetry"}},
      {"ml", {"common"}},
      {"analysis", {"common", "obs"}},
      {"faults", {"common", "obs", "sim", "cluster", "telemetry"}},
      {"sched", {"common", "obs", "sim", "cluster", "telemetry", "apps", "faults"}},
      {"core",
       {"common", "obs", "sim", "cluster", "telemetry", "apps", "ml", "sched", "faults"}},
      {"cli",
       {"common", "obs", "sim", "cluster", "telemetry", "apps", "ml", "sched",
        "core", "analysis", "faults"}},
  };
  return dag;
}

IncludeGraph::IncludeGraph(const std::vector<const SourceFile*>& files) : files_(files) {
  for (const SourceFile* f : files_) by_rel_[f->rel] = f;
  for (const SourceFile* fp : files_) {
    const SourceFile& f = *fp;
    std::vector<std::string>& out = resolved_[f.rel];
    for (const Include& inc : f.includes) {
      if (inc.angled) continue;
      const std::string as_root = normalize(inc.target);
      if (by_rel_.count(as_root) > 0) {
        out.push_back(as_root);
        continue;
      }
      const std::string dir = dir_of(f.rel);
      const std::string as_local =
          normalize(dir.empty() ? inc.target : dir + "/" + inc.target);
      if (by_rel_.count(as_local) > 0) out.push_back(as_local);
    }
  }
}

const std::vector<std::string>& IncludeGraph::resolved(const std::string& rel) const {
  static const std::vector<std::string> kEmpty;
  const auto it = resolved_.find(rel);
  return it == resolved_.end() ? kEmpty : it->second;
}

void IncludeGraph::check_layers(const LayerDag& dag, std::vector<Finding>& out) const {
  for (const SourceFile* fp : files_) {
    const SourceFile& f = *fp;
    const std::string from = f.module();
    if (from.empty()) continue;  // files directly under the root: unscoped
    for (const Include& inc : f.includes) {
      if (inc.angled) continue;
      // Module of the include target: prefer the resolved file, fall back
      // to the path prefix so partial trees are still checked.
      const std::string as_root = normalize(inc.target);
      const auto hit = by_rel_.find(as_root);
      const std::string to =
          hit != by_rel_.end() ? hit->second->module() : first_component(as_root);
      if (to.empty() || to == from) continue;
      if (dag.count(to) == 0 && by_rel_.count(as_root) == 0) {
        continue;  // quoted include of an external library: not ours to judge
      }
      if (f.is_allowed(inc.line, "layer-dag")) continue;
      const auto entry = dag.find(from);
      if (entry == dag.end()) {
        out.push_back(Finding{
            "layer-dag", f.rel, inc.line, from,
            "module '" + from + "' is not declared in the architecture DAG; "
            "add it to rush_layer_dag() with its allowed dependencies"});
        continue;
      }
      if (entry->second.count(to) == 0) {
        std::string allowed;
        for (const std::string& dep : entry->second) {
          if (!allowed.empty()) allowed += ", ";
          allowed += dep;
        }
        out.push_back(Finding{
            "layer-dag", f.rel, inc.line, as_root,
            "'" + from + "' may not include '" + to + "' (" + inc.target +
                "); allowed layers below it: {" +
                (allowed.empty() ? "none" : allowed) + "}"});
      }
    }
  }
}

void IncludeGraph::check_cycles(std::vector<Finding>& out) const {
  // Iterative 3-colour DFS over the resolved file graph, in sorted order
  // so reports are deterministic.
  enum class Colour { kWhite, kGrey, kBlack };
  std::map<std::string, Colour> colour;
  for (const auto& [rel, edges] : resolved_) {
    colour[rel] = Colour::kWhite;
    for (const std::string& e : edges) colour.emplace(e, Colour::kWhite);
  }

  std::vector<std::string> path;  // grey stack, for cycle reconstruction
  struct Frame {
    std::string node;
    std::size_t next = 0;
  };
  for (const auto& [root, unused_colour] : colour) {
    (void)unused_colour;
    if (colour[root] != Colour::kWhite) continue;
    std::vector<Frame> stack;
    stack.push_back(Frame{root});
    colour[root] = Colour::kGrey;
    path.push_back(root);
    while (!stack.empty()) {
      Frame& frame = stack.back();
      const std::vector<std::string>& edges = resolved(frame.node);
      if (frame.next >= edges.size()) {
        colour[frame.node] = Colour::kBlack;
        path.pop_back();
        stack.pop_back();
        continue;
      }
      const std::string target = edges[frame.next++];
      if (colour[target] == Colour::kGrey) {
        // Back edge frame.node -> target closes a cycle.
        const auto at = std::find(path.begin(), path.end(), target);
        std::string chain;
        for (auto it = at; it != path.end(); ++it) chain += *it + " -> ";
        chain += target;
        int line = 0;
        const SourceFile* src = by_rel_.at(frame.node);
        for (const Include& inc : src->includes) {
          const std::string t = normalize(inc.target);
          if (t == target || normalize(dir_of(frame.node) + "/" + inc.target) == target) {
            line = inc.line;
            break;
          }
        }
        out.push_back(Finding{"include-cycle", frame.node, line,
                              frame.node + "->" + target,
                              "include cycle: " + chain});
        continue;
      }
      if (colour[target] == Colour::kWhite) {
        colour[target] = Colour::kGrey;
        path.push_back(target);
        stack.push_back(Frame{target});
      }
    }
  }
}

}  // namespace rush::analysis
