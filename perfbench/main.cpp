// perfbench: one workload, one seed, one run; prints one JSON object.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <file>] [--quick]
//
// perfbench/run.py builds this binary, runs it and reshapes its output
// into the benchmark's result line.
#include <cstdio>
#include <cstring>
#include <exception>
#include <iostream>
#include <string>

#include "workloads.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload edge_64k|shard_2x1k|ctl_churn_4k|sim_backbone "
               "--seed N --seconds S --trace 0|1 [--trace-out FILE] [--quick]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  pb::Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has = i + 1 < argc;
    if (a == "--workload" && has) {
      o.workload = argv[++i];
    } else if (a == "--seed" && has) {
      o.seed = std::stoull(argv[++i]);
    } else if (a == "--seconds" && has) {
      o.seconds = std::stod(argv[++i]);
    } else if (a == "--trace" && has) {
      o.trace = std::string(argv[++i]) != "0";
    } else if (a == "--trace-out" && has) {
      o.trace_out = argv[++i];
    } else if (a == "--quick") {
      o.quick = true;
    } else {
      return usage();
    }
  }
  pb::Result (*run)(const pb::Options&) = nullptr;
  if (o.workload == "edge_64k") run = pb::run_edge;
  if (o.workload == "shard_2x1k") run = pb::run_shard;
  if (o.workload == "ctl_churn_4k") run = pb::run_churn;
  if (o.workload == "sim_backbone") run = pb::run_backbone;
  if (run == nullptr || o.seconds <= 0) return usage();

  pb::Result r;
  try {
    r = run(o);
  } catch (const std::exception& e) {
    r.fail(std::string("unexpected exception: ") + e.what());
  }
  std::cout << r.to_json(o) << std::endl;
  return 0;
}
