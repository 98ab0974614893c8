// Golden corpus for the scenario engine: every shipped scenario (plus the
// fixtures under tests/golden/) through every scheduler family, pinned to
// the H-FSC state digest and FNV-1a hashes of the JSON report and the
// rendered table.  A pair run_scenario refuses pins the refusal message.
//
// The committed rows live in tests/golden/scenarios.txt.  On any mismatch
// the test writes the rows the current code produces next to the test
// binary and prints the `cp` command that would adopt them; review the
// behaviour change before running it.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "config/hierarchy_spec.hpp"
#include "golden_corpus.hpp"
#include "sim/scenario.hpp"

namespace hfsc {
namespace {

namespace fs = std::filesystem;
using golden::kCorpus;

constexpr const char* kHeader =
    "# Golden corpus: scenario x scheduler family -> behaviour fingerprint.\n"
    "# <scenario> <family> <state_digest> <fnv1a(to_json)> "
    "<fnv1a(to_table)>\n"
    "# <scenario> <family> refused <run_scenario error message>\n"
    "# Written by tests/test_golden_corpus.cpp; adopt a new version with\n"
    "# the cp command it prints on a mismatch.\n";

// Repo-relative scenario paths: scenarios/*.hfsc, then tests/golden/*.hfsc,
// each sorted.
std::vector<std::string> corpus_scenarios() {
  std::vector<std::string> out;
  for (const char* dir : {"scenarios", "tests/golden"}) {
    std::vector<std::string> files;
    for (const auto& e :
         fs::directory_iterator(fs::path(HFSC_SOURCE_DIR) / dir)) {
      if (e.path().extension() == ".hfsc") {
        files.push_back(std::string(dir) + "/" +
                        e.path().filename().string());
      }
    }
    std::sort(files.begin(), files.end());
    out.insert(out.end(), files.begin(), files.end());
  }
  return out;
}

// "<scenario> <family>" -> rest of the row.
std::map<std::string, std::string> actual_rows() {
  std::map<std::string, std::string> rows;
  for (const std::string& path : corpus_scenarios()) {
    const Scenario sc =
        Scenario::parse_file(std::string(HFSC_SOURCE_DIR) + "/" + path);
    for (const SchedulerKind kind : all_scheduler_kinds()) {
      rows[path + " " + std::string(to_string(kind))] = golden::row(sc, kind);
    }
  }
  return rows;
}

TEST(GoldenCorpus, EveryScenarioAndFamilyMatches) {
  const std::map<std::string, std::string> actual = actual_rows();
  const std::map<std::string, std::string> committed =
      golden::committed_rows();
  ASSERT_FALSE(actual.empty());
  for (const auto& [key, row] : actual) {
    const auto it = committed.find(key);
    if (it == committed.end()) {
      ADD_FAILURE() << key << ": no committed row (actual: " << row << ")";
    } else {
      EXPECT_EQ(it->second, row) << key;
    }
  }
  for (const auto& [key, row] : committed) {
    if (actual.find(key) == actual.end()) {
      ADD_FAILURE() << key << ": committed row has no scenario";
    }
  }
  if (!HasFailure()) return;

  const std::string out_path = std::string(HFSC_BINARY_DIR) + "/scenarios.txt";
  std::ofstream out(out_path);
  out << kHeader;
  for (const auto& [key, row] : actual) out << key << " " << row << "\n";
  out.close();
  ADD_FAILURE() << "golden corpus differs; if the change is intended:\n"
                << "  cp " << out_path << " " << HFSC_SOURCE_DIR << "/"
                << kCorpus;
}

}  // namespace
}  // namespace hfsc
