// Differential pins for single-node scenario runs.  The reference is the
// golden corpus (tests/golden/scenarios.txt): its rows were written while
// the routed engine was still checked bit-identical against a
// transcription of the pre-topology single-link engine, so a run that
// reproduces its row reproduces that engine's digest, report and table.
// tests/test_golden_corpus.cpp checks the whole corpus; the tests here
// keep the single-node scope of the original differential check.
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "config/hierarchy_spec.hpp"
#include "golden_corpus.hpp"
#include "sim/scenario.hpp"

namespace hfsc {
namespace {

// Runs `path` (repo-relative) under `kind` and compares the fingerprint
// with the committed corpus row.
void expect_committed_row(const std::map<std::string, std::string>& committed,
                          const std::string& path, const Scenario& sc,
                          SchedulerKind kind) {
  const std::string key = path + " " + std::string(to_string(kind));
  const auto it = committed.find(key);
  ASSERT_NE(it, committed.end()) << key << ": no committed row";
  EXPECT_EQ(it->second, golden::row(sc, kind)) << key;
}

TEST(ScenarioDiff, ShippedSingleNodeScenariosAreBitIdentical) {
  const auto committed = golden::committed_rows();
  for (const char* path :
       {"scenarios/campus.hfsc", "scenarios/voip.hfsc",
        "scenarios/decoupling.hfsc", "scenarios/decoupling_vii.hfsc"}) {
    SCOPED_TRACE(path);
    const Scenario sc =
        Scenario::parse_file(std::string(HFSC_SOURCE_DIR) + "/" + path);
    expect_committed_row(committed, path, sc, sc.scheduler);
  }
}

// One hierarchy every family compiles, fed by four source kinds at once.
TEST(ScenarioDiff, EveryFamilyMatchesTheLegacyEngine) {
  const auto committed = golden::committed_rows();
  const std::string path = "tests/golden/mixed_families.hfsc";
  const Scenario sc =
      Scenario::parse_file(std::string(HFSC_SOURCE_DIR) + "/" + path);
  for (const SchedulerKind kind : all_scheduler_kinds()) {
    SCOPED_TRACE(to_string(kind));
    expect_committed_row(committed, path, sc, kind);
  }
}

// Every single-node run reports one node whose conservation identity
// holds: offered == sent + dropped + rejected + backlog.
TEST(ScenarioDiff, SingleNodeRunsAreConserved) {
  for (const char* path :
       {"scenarios/campus.hfsc", "scenarios/voip.hfsc",
        "scenarios/decoupling.hfsc"}) {
    SCOPED_TRACE(path);
    const Scenario sc =
        Scenario::parse_file(std::string(HFSC_SOURCE_DIR) + "/" + path);
    const ScenarioResult r = run_scenario(sc);
    ASSERT_EQ(r.nodes.size(), 1u);
    EXPECT_TRUE(r.conserved())
        << "offered " << r.offered() << " != sent " << r.sent()
        << " + dropped " << r.dropped() << " + rejected " << r.rejected()
        << " + backlog " << r.backlog();
  }
}

}  // namespace
}  // namespace hfsc
