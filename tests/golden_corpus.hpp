// Rows of the scenario-engine golden corpus (tests/golden/scenarios.txt):
// how one (scenario, scheduler family) run is fingerprinted, and how the
// committed rows are read back.  Shared by test_golden_corpus.cpp, which
// checks the whole corpus, and test_scenario_diff.cpp.
#pragma once

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>

#include "config/hierarchy_spec.hpp"
#include "sim/scenario.hpp"

namespace hfsc::golden {

inline constexpr const char* kCorpus = "tests/golden/scenarios.txt";

inline std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

inline std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

// The row body for one run: "<state_digest> <fnv1a(to_json)>
// <fnv1a(to_table)>", or "refused <message>" when run_scenario refuses.
inline std::string row(const Scenario& sc, SchedulerKind kind) {
  ScenarioRunOptions opts;
  opts.scheduler = kind;
  try {
    const ScenarioResult r = run_scenario(sc, opts);
    return hex(r.state_digest) + " " + hex(fnv1a(r.to_json())) + " " +
           hex(fnv1a(r.to_table()));
  } catch (const std::runtime_error& e) {
    return std::string("refused ") + e.what();
  }
}

// Committed rows, "<scenario> <family>" -> row body.
inline std::map<std::string, std::string> committed_rows() {
  std::map<std::string, std::string> rows;
  std::ifstream in(std::string(HFSC_SOURCE_DIR) + "/" + kCorpus);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string scenario, family;
    ls >> scenario >> family >> std::ws;
    std::string rest;
    std::getline(ls, rest);
    rows[scenario + " " + family] = rest;
  }
  return rows;
}

}  // namespace hfsc::golden
