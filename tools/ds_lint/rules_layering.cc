// Family E: the src/ layering DAG. Each directory under src/ is a module;
// the table below is the complete set of allowed include edges, derived from
// the mechanism/policy layering the tree has converged on:
//
//   common ← obs ← sim ← hw ← {model, workload, rtc} ← distflow ← flowserve
//                                                   ↖ ctrl ← serving ← {faults, fleet}
//
// (See DESIGN.md for the drawn-out DAG.) Anything not in the table — a new
// module, a new edge, or an edge that closes a cycle — fails the lint until
// the table is extended deliberately. This keeps the splits from PRs 3/4/7
// (sched policy, autoscaler policy, frontend routing) from eroding silently:
// a "quick" #include from a mechanism layer up into a policy layer is exactly
// the kind of change that compiles fine and unravels the architecture.
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "lint.h"
#include "rules_util.h"

namespace ds_lint {
namespace {

// module -> modules it may include. Every module may include itself.
const std::map<std::string, std::set<std::string>>& AllowedDeps() {
  static const std::map<std::string, std::set<std::string>>* kEdges =
      new std::map<std::string, std::set<std::string>>{
          {"common", {}},
          {"obs", {"common"}},
          {"sim", {"common", "obs"}},
          {"hw", {"common", "obs", "sim"}},
          {"model", {"common", "obs", "sim", "hw"}},
          {"workload", {"common", "obs", "sim", "hw", "model"}},
          {"rtc", {"common", "obs", "sim", "hw"}},
          {"distflow", {"common", "obs", "sim", "hw", "rtc"}},
          {"flowserve",
           {"common", "obs", "sim", "hw", "model", "workload", "rtc",
            "distflow"}},
          {"ctrl", {"common", "obs", "sim", "hw", "workload"}},
          {"serving",
           {"common", "obs", "sim", "hw", "model", "workload", "rtc",
            "distflow", "flowserve", "ctrl"}},
          {"faults",
           {"common", "obs", "sim", "hw", "model", "workload", "rtc",
            "distflow", "flowserve", "ctrl", "serving"}},
          // The composition root: wires the serving stack; nothing in src/
          // includes it (fault injection stays caller-owned).
          {"fleet",
           {"common", "obs", "sim", "hw", "model", "workload", "rtc",
            "distflow", "flowserve", "ctrl", "serving"}},
      };
  return *kEdges;
}

// Module of a linted file: the path component after the first "src"
// component ("src/flowserve/engine.cc" -> "flowserve"). Empty for files
// outside src/ (tests, benches, fixtures without a src segment).
std::string ModuleOfPath(const std::string& path) {
  size_t pos = 0;
  while (pos < path.size()) {
    size_t slash = path.find('/', pos);
    std::string comp =
        path.substr(pos, slash == std::string::npos ? std::string::npos
                                                    : slash - pos);
    if (comp == "src" && slash != std::string::npos) {
      size_t next = path.find('/', slash + 1);
      if (next == std::string::npos) return "";  // file directly under src/
      return path.substr(slash + 1, next - slash - 1);
    }
    if (slash == std::string::npos) break;
    pos = slash + 1;
  }
  return "";
}

struct IncludeEdge {
  std::string target;  // included module
  int line = 0;
};

// Parses `#include "mod/..."` directives into module edges. Angle includes
// and project includes without a directory (ds_lint's own headers) are not
// module edges.
std::vector<IncludeEdge> ParseIncludes(const FileCtx& f) {
  std::vector<IncludeEdge> edges;
  for (const Token& t : f.lexed.tokens) {
    if (t.kind != Tok::kPreproc) continue;
    size_t inc = t.text.find("include");
    if (inc == std::string::npos) continue;
    size_t open = t.text.find('"', inc);
    if (open == std::string::npos) continue;
    size_t close = t.text.find('"', open + 1);
    if (close == std::string::npos) continue;
    std::string path = t.text.substr(open + 1, close - open - 1);
    size_t slash = path.find('/');
    if (slash == std::string::npos) continue;
    edges.push_back({path.substr(0, slash), t.line});
  }
  return edges;
}

class LayeringEdgeRule : public Rule {
 public:
  std::string_view id() const override { return "layering-edge"; }

  void Check(const FileCtx& f, const ProjectIndex& index,
             std::vector<Finding>* out) const override {
    (void)index;
    std::string mod = ModuleOfPath(f.path);
    if (mod.empty()) return;
    const auto& table = AllowedDeps();
    auto row = table.find(mod);
    for (const IncludeEdge& e : ParseIncludes(f)) {
      if (e.target == mod) continue;  // intra-module includes always legal
      if (table.count(e.target) == 0) continue;  // not a src/ module path
      if (row == table.end()) {
        out->push_back({f.path, e.line, std::string(id()),
                        "module '" + mod +
                            "' is not in the layering table (tools/ds_lint/"
                            "rules_layering.cc) — add it with an explicit "
                            "allowed-dependency set"});
        return;
      }
      if (row->second.count(e.target) == 0) {
        out->push_back(
            {f.path, e.line, std::string(id()),
             "layering violation: module '" + mod + "' may not include '" +
                 e.target + "' — allowed deps are {" + Joined(row->second) +
                 "}; either invert the dependency or extend the DAG in "
                 "rules_layering.cc (and DESIGN.md) deliberately"});
      }
    }
  }

 private:
  static std::string Joined(const std::set<std::string>& deps) {
    std::string s;
    for (const std::string& d : deps) {
      if (!s.empty()) s += ", ";
      s += d;
    }
    return s;
  }
};

class LayeringCycleRule : public Rule {
 public:
  std::string_view id() const override { return "layering-cycle"; }

  void Check(const FileCtx& f, const ProjectIndex& index,
             std::vector<Finding>* out) const override {
    std::string mod = ModuleOfPath(f.path);
    if (mod.empty()) return;
    for (const IncludeEdge& e : ParseIncludes(f)) {
      if (e.target == mod) continue;
      if (index.module_deps.count(e.target) == 0 &&
          AllowedDeps().count(e.target) == 0) {
        continue;  // not a module include
      }
      // This file contributes the edge mod -> e.target. If the global graph
      // can get from e.target back to mod, that edge closes a cycle.
      std::vector<std::string> path;
      if (FindPath(index.module_deps, e.target, mod, &path)) {
        std::string cycle = mod;
        for (const std::string& step : path) cycle += " -> " + step;
        out->push_back({f.path, e.line, std::string(id()),
                        "include closes a module cycle: " + cycle +
                            " — cyclic modules cannot be layered, tested, or "
                            "linked independently; break the cycle by moving "
                            "the shared types down a layer"});
      }
    }
  }

 private:
  // DFS from `from` to `to` over the module graph; neighbors visit in sorted
  // (std::set) order so the reported path is deterministic.
  static bool FindPath(const std::map<std::string, std::set<std::string>>& g,
                       const std::string& from, const std::string& to,
                       std::vector<std::string>* path) {
    path->push_back(from);
    if (from == to) return true;
    auto it = g.find(from);
    if (it != g.end()) {
      for (const std::string& next : it->second) {
        if (next == from) continue;
        // `path` doubles as the visited set; module graphs are tiny.
        bool seen = false;
        for (const std::string& p : *path) {
          if (p == next) {
            seen = true;
            break;
          }
        }
        if (seen) continue;
        if (FindPath(g, next, to, path)) return true;
      }
    }
    path->pop_back();
    return false;
  }
};

}  // namespace

void IndexIncludeGraph(const FileCtx& file, ProjectIndex* index) {
  std::string mod = ModuleOfPath(file.path);
  if (mod.empty()) return;
  for (const IncludeEdge& e : ParseIncludes(file)) {
    if (e.target != mod) index->module_deps[mod].insert(e.target);
  }
}

std::vector<std::unique_ptr<Rule>> MakeLayeringRules() {
  std::vector<std::unique_ptr<Rule>> rules;
  rules.push_back(std::make_unique<LayeringEdgeRule>());
  rules.push_back(std::make_unique<LayeringCycleRule>());
  return rules;
}

}  // namespace ds_lint
