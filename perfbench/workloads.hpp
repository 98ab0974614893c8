// The four benchmark workloads (perfbench/README.md says why each
// exists).  Each runs one seeded workload end to end, checks the
// library's outputs, and returns every metric it measured.
#pragma once

#include <cstdint>
#include <string>

#include "common.hpp"

namespace pb {

Result run_edge(const Options& o);
Result run_shard(const Options& o);
Result run_churn(const Options& o);
Result run_backbone(const Options& o);

// Hash of everything the workload would feed the library for `seed`
// (input-determinism self-test); `quick` selects the self-test size.
std::uint64_t edge_inputs(std::uint64_t seed, bool quick);
std::uint64_t shard_inputs(std::uint64_t seed, bool quick);
std::uint64_t churn_inputs(std::uint64_t seed, bool quick);
std::uint64_t backbone_inputs(std::uint64_t seed, bool quick);

}  // namespace pb
