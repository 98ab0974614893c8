// Benchmark self-tests (run by perfbench/tests/selftest.py):
//   - the same seed gives byte-identical generated inputs for every
//     workload, and another seed gives other inputs;
//   - self time is computed correctly on a hand-built span tree.
// selftest.py adds short runs of every workload through run.py.
#include <cstdio>
#include <string>

#include "workloads.hpp"

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  } else {
    std::fprintf(stderr, "ok: %s\n", what.c_str());
  }
}

void inputs_are_seeded() {
  struct W {
    const char* name;
    std::uint64_t (*digest)(std::uint64_t, bool);
  };
  const W ws[] = {{"edge_64k", pb::edge_inputs},
                  {"shard_2x1k", pb::shard_inputs},
                  {"ctl_churn_4k", pb::churn_inputs},
                  {"sim_backbone", pb::backbone_inputs}};
  for (const W& w : ws) {
    const std::uint64_t a = w.digest(7, false);
    const std::uint64_t b = w.digest(7, false);
    const std::uint64_t c = w.digest(8, false);
    expect(a == b, std::string(w.name) + ": same seed, identical inputs");
    expect(a != c, std::string(w.name) + ": another seed, other inputs");
  }
}

void self_time_on_a_hand_built_tree() {
  pb::SpanRecorder rec;
  const std::uint32_t n = rec.intern("x");
  const std::uint32_t root = rec.add(n, 0, 0, 100, 0);
  const std::uint32_t a = rec.add(n, root, 10, 40, 1);
  rec.add(n, root, 30, 60, 2);   // overlaps a: the union counts once
  rec.add(n, root, 90, 120, 3);  // clipped to the parent's end
  rec.add(n, a, 15, 20, 4);      // grandchild: only a's self time drops
  const std::vector<std::uint64_t> self = pb::self_times(rec.spans());
  expect(self.size() == 5, "self time: one value per span");
  expect(self[0] == 40, "self time: root = 100 - |[10,60] u [90,100]| = 40");
  expect(self[1] == 25, "self time: child = 30 - its grandchild's 5");
  expect(self[2] == 30 && self[3] == 30 && self[4] == 5, "self time: leaves keep their span");
  const auto totals = pb::totals_by_name(rec);
  expect(totals.at("x").count == 5 && totals.at("x").self_ns == 130,
         "self time: totals by name");
}

}  // namespace

int main() {
  inputs_are_seeded();
  self_time_on_a_hand_built_tree();
  std::fprintf(stderr, "%s\n", failures == 0 ? "all self-tests passed" : "self-tests FAILED");
  return failures == 0 ? 0 : 1;
}
