// Fixture-driven self-test for tools/ds_lint. Each fixture under
// tools/ds_lint/testdata marks every line that must produce a finding with a
// marker comment naming the rule(s); the harness runs the linter over the
// fixture set and compares the (file, line, rule) triples exactly in both
// directions, so both false negatives AND false positives fail the test.
// A final test lints the real tree and requires it to be clean.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "lint.h"

namespace ds_lint {
namespace {

namespace fs = std::filesystem;

// The expectation tag. Built from fragments so this file's own text never
// contains the linter's suppression tag and cannot register as a (stale)
// suppression when the real tree is linted below.
const std::string kExpectTag = std::string("ds-lint") + "-expect:";

std::string ReadFile(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot read fixture " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

bool IsRuleWord(const std::string& w) {
  if (w.empty() || !std::islower(static_cast<unsigned char>(w.front()))) return false;
  return std::all_of(w.begin(), w.end(), [](char c) {
    return std::islower(static_cast<unsigned char>(c)) || c == '-';
  });
}

// Scans `source` for expectation markers and returns "file:line:rule" keys.
std::set<std::string> ParseExpectations(const std::string& file,
                                        const std::string& source) {
  std::set<std::string> expected;
  std::istringstream in(source);
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    size_t tag = line.find(kExpectTag);
    if (tag == std::string::npos) continue;
    std::istringstream words(line.substr(tag + kExpectTag.size()));
    std::string w;
    while (words >> w) {
      while (!w.empty() && w.back() == ',') w.pop_back();
      if (!IsRuleWord(w)) break;
      expected.insert(file + ":" + std::to_string(lineno) + ":" + w);
    }
  }
  return expected;
}

// Lints the named fixtures as one source set (so cross-file indexing works
// exactly as in production) and checks findings against the markers.
void CheckFixtures(const std::vector<std::string>& names) {
  std::vector<std::pair<std::string, std::string>> sources;
  std::set<std::string> expected;
  for (const std::string& name : names) {
    std::string src = ReadFile(fs::path(DS_LINT_TESTDATA) / name);
    ASSERT_FALSE(src.empty()) << name;
    auto marks = ParseExpectations(name, src);
    expected.insert(marks.begin(), marks.end());
    sources.emplace_back(name, std::move(src));
  }

  std::set<std::string> actual;
  std::vector<Finding> findings = LintSources(sources);
  for (const Finding& f : findings) {
    actual.insert(f.file + ":" + std::to_string(f.line) + ":" + f.rule);
  }

  for (const std::string& key : expected) {
    EXPECT_TRUE(actual.count(key) > 0) << "expected finding missing: " << key;
  }
  for (const std::string& key : actual) {
    EXPECT_TRUE(expected.count(key) > 0)
        << "unexpected finding: " << key << "\nfull output:\n"
        << FormatFindings(findings);
  }
}

TEST(DsLintFixtures, GoodDeterminismIsClean) {
  CheckFixtures({"good_determinism.cc"});
}

TEST(DsLintFixtures, BadDeterminismFlagsEveryMarkedLine) {
  CheckFixtures({"bad_determinism.cc"});
}

TEST(DsLintFixtures, GoodStatusIsClean) { CheckFixtures({"good_status.h"}); }

TEST(DsLintFixtures, BadStatusFlagsDeclarationsAndDiscards) {
  CheckFixtures({"bad_status.h", "bad_status.cc"});
}

TEST(DsLintFixtures, GoodObsIsClean) { CheckFixtures({"good_obs.cc"}); }

TEST(DsLintFixtures, BadObsFlagsSpansAndMetricNames) {
  CheckFixtures({"bad_obs.cc"});
}

TEST(DsLintFixtures, GoodHygieneAcceptsBothGuardForms) {
  CheckFixtures({"good_hygiene.h", "good_hygiene2.h"});
}

TEST(DsLintFixtures, BadHygieneFlagsGuardsNamespacesAndRawOwnership) {
  CheckFixtures({"bad_hygiene.h", "bad_guard_mismatch.h", "bad_hygiene.cc"});
}

TEST(DsLintFixtures, GoodCtrlIsClean) { CheckFixtures({"good_ctrl.cc"}); }

TEST(DsLintFixtures, BadCtrlFlagsMutationOutsideApply) {
  CheckFixtures({"bad_ctrl.cc"});
}

TEST(DsLintFixtures, SuppressionInterplay) {
  CheckFixtures({"suppress_interplay.cc"});
}

TEST(DsLintFixtures, GoodDeferredIsClean) {
  CheckFixtures({"good_deferred.cc"});
}

TEST(DsLintFixtures, BadDeferredFlagsEveryEscapingCapture) {
  CheckFixtures({"bad_deferred.cc"});
}

TEST(DsLintFixtures, BadDeferredHeaderThisAndAudits) {
  CheckFixtures({"bad_deferred.h"});
}

TEST(DsLintFixtures, LayeringEdgesAndSeededCycle) {
  // One source set so the include graph sees both halves of the cycle.
  CheckFixtures({"layer/src/sim/good_edge.h", "layer/src/ctrl/bad_edge.h",
                 "layer/src/serving/bad_fleet_edge.h",
                 "layer/src/distflow/uses_rtc.h", "layer/src/rtc/bad_cycle.h"});
}

TEST(DsLintFixtures, GoodTimeUnitsIsClean) {
  CheckFixtures({"good_timeunits.cc"});
}

TEST(DsLintFixtures, BadTimeUnitsFlagsMixesAndRawLiterals) {
  CheckFixtures({"bad_timeunits.cc"});
}

TEST(DsLintOutput, FindingsAreSortedAndFormatted) {
  // Two files given out of order, each with one obvious violation.
  std::vector<std::pair<std::string, std::string>> sources = {
      {"zzz.cc", "void F() { srand(1); }\n"},
      {"aaa.cc", "void G() { srand(2); }\n"},
  };
  std::vector<Finding> findings = LintSources(sources);
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0].file, "aaa.cc");
  EXPECT_EQ(findings[1].file, "zzz.cc");
  std::string text = FormatFindings(findings);
  EXPECT_EQ(text.rfind("aaa.cc:1: [banned-call]", 0), 0u) << text;
  EXPECT_NE(text.find("zzz.cc:1: [banned-call]"), std::string::npos) << text;
  // Messages point at the sanctioned replacement.
  EXPECT_NE(findings[0].message.find("Simulator::Now"), std::string::npos);
}

TEST(DsLintOutput, DeterministicAcrossRepeatedRuns) {
  std::vector<std::string> names = {"bad_determinism.cc", "bad_status.h",
                                    "bad_status.cc", "suppress_interplay.cc"};
  std::vector<std::pair<std::string, std::string>> sources;
  for (const std::string& name : names) {
    sources.emplace_back(name, ReadFile(fs::path(DS_LINT_TESTDATA) / name));
  }
  std::string first = FormatFindings(LintSources(sources));
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(FormatFindings(LintSources(sources)), first);
  }
}

TEST(DsLintRules, EveryRuleIdIsKnownAndUnique) {
  std::set<std::string> ids;
  for (const auto& rule : AllRules()) {
    EXPECT_TRUE(IsKnownRule(rule->id()));
    EXPECT_TRUE(ids.insert(std::string(rule->id())).second)
        << "duplicate rule id " << rule->id();
  }
  // One rule file per family; the eight families together.
  EXPECT_GE(ids.size(), 16u);
  EXPECT_FALSE(IsKnownRule("no-such-rule"));
}

TEST(DsLintOutput, ParallelScanMatchesSerialByteForByte) {
  // All bad fixtures at once: a healthy mix of per-file findings plus
  // cross-file index state (smallfn sinks, include graph, ns-typed names).
  std::vector<std::string> names = {
      "bad_determinism.cc",          "bad_status.h",
      "bad_status.cc",               "bad_obs.cc",
      "bad_hygiene.h",               "bad_hygiene.cc",
      "bad_ctrl.cc",                 "bad_deferred.cc",
      "bad_deferred.h",              "bad_timeunits.cc",
      "layer/src/ctrl/bad_edge.h",   "layer/src/distflow/uses_rtc.h",
      "layer/src/rtc/bad_cycle.h",   "suppress_interplay.cc"};
  std::vector<std::pair<std::string, std::string>> sources;
  for (const std::string& name : names) {
    sources.emplace_back(name, ReadFile(fs::path(DS_LINT_TESTDATA) / name));
  }
  std::string serial = FormatFindings(LintSources(sources, 1));
  EXPECT_FALSE(serial.empty());
  for (int threads : {2, 4, 8}) {
    EXPECT_EQ(FormatFindings(LintSources(sources, threads)), serial)
        << "thread count " << threads << " changed the output";
  }
}

TEST(DsLintOutput, JsonIsStableAndEscaped) {
  std::vector<std::pair<std::string, std::string>> sources = {
      {"zzz.cc", "void F() { srand(1); }\n"},
      {"aaa.cc", "void G() { srand(2); }\n"},
  };
  std::vector<Finding> findings = LintSources(sources);
  ASSERT_EQ(findings.size(), 2u);
  std::string json = FormatFindingsJson(findings);
  // Sorted: aaa.cc before zzz.cc, with the stable field order.
  size_t a = json.find("\"file\": \"aaa.cc\"");
  size_t z = json.find("\"file\": \"zzz.cc\"");
  ASSERT_NE(a, std::string::npos) << json;
  ASSERT_NE(z, std::string::npos) << json;
  EXPECT_LT(a, z);
  EXPECT_EQ(json.rfind("[\n", 0), 0u) << json;
  EXPECT_NE(json.find("\"rule\": \"banned-call\""), std::string::npos) << json;
  // Escaping: quotes and backslashes in messages cannot corrupt the array.
  Finding hostile{"a\"b.cc", 3, "banned-call", "say \"hi\"\\\n"};
  std::string escaped = FormatFindingsJson({hostile});
  EXPECT_NE(escaped.find("a\\\"b.cc"), std::string::npos) << escaped;
  EXPECT_NE(escaped.find("say \\\"hi\\\"\\\\\\n"), std::string::npos) << escaped;
  EXPECT_EQ(FormatFindingsJson({}), "[]\n");
}

// Mirrors the production walker in tools/ds_lint/main.cc: same roots, same
// extensions, same skip list. The real tree must lint clean — zero findings
// and zero stale suppressions — which is exactly what ci.sh enforces.
TEST(DsLintTree, RealTreeIsClean) {
  const fs::path root = DS_SOURCE_ROOT;
  std::vector<std::string> paths;
  for (const char* top : {"src", "bench", "examples", "tests"}) {
    fs::path dir = root / top;
    ASSERT_TRUE(fs::exists(dir)) << dir;
    for (auto it = fs::recursive_directory_iterator(dir);
         it != fs::recursive_directory_iterator(); ++it) {
      const fs::path& p = it->path();
      if (it->is_directory()) {
        std::string name = p.filename().string();
        if (name == "testdata" || name == ".git" || name.rfind("build", 0) == 0) {
          it.disable_recursion_pending();
        }
        continue;
      }
      std::string ext = p.extension().string();
      if (ext == ".h" || ext == ".cc" || ext == ".cpp") {
        paths.push_back(p.string());
      }
    }
  }
  std::sort(paths.begin(), paths.end());
  ASSERT_GT(paths.size(), 100u) << "walker found suspiciously few files";
  std::vector<Finding> findings = LintPaths(paths, root.string());
  EXPECT_TRUE(findings.empty()) << "tree is not lint-clean:\n"
                                << FormatFindings(findings);
}

}  // namespace
}  // namespace ds_lint
