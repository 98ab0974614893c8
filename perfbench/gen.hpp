// Seeded input generation for the benchmark workloads.
//
// Everything a workload feeds the library — hierarchies, packet
// arrivals, control-plane batches, scenario text — is produced here from
// the run's --seed alone, with the benchmark's own random number
// generator, so a change to the library can never change its inputs.
// Generation happens outside every timed interval.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/hfsc.hpp"
#include "util/types.hpp"

namespace pb {

using hfsc::Bytes;
using hfsc::RateBps;
using hfsc::TimeNs;

// xoshiro256** seeded through splitmix64.
class Rng {
 public:
  explicit Rng(std::uint64_t seed);
  std::uint64_t next();
  double uniform();                     // [0, 1)
  std::uint64_t below(std::uint64_t n); // [0, n)
  double exponential(double mean);
 private:
  std::uint64_t s_[4];
};

// Independent sub-stream seed for one purpose of one run.
std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t stream);

// IMIX packet sizes: 64 / 576 / 1500 bytes at 7:4:1.
Bytes imix_len(Rng& rng);
inline constexpr double kImixMean = (7 * 64 + 4 * 576 + 1500) / 12.0;
inline constexpr Bytes kMaxPkt = 1500;

// A leaf's real-time requirement as the paper's (u, d, r) triple; the
// traffic generator shapes the leaf's arrivals to the token bucket
// (u, r), so Theorem 2 bounds each of its packets' delay by d + Lmax/C.
struct RtReq {
  Bytes u = 0;
  TimeNs d = 0;
  RateBps r = 0;
  hfsc::ServiceCurve curve() const;
};

// One class of a generated hierarchy.  Classes are listed parent before
// child; the library assigns ids in insertion order, so class i has id
// i + 1 in a fresh Hfsc / RuntimeHost and global id i + 1 in a
// ShardedRuntime built from the equivalent HierarchySpec.
struct ClassDef {
  int parent = -1;  // index into Layout::classes, -1 = root
  std::string name;
  hfsc::ClassConfig cfg;
  std::size_t qlimit = 0;
  int shard = -1;
  bool leaf = false;
  bool rt = false;
  RtReq req;  // rt leaves
};

struct Layout {
  RateBps link = 0;                 // per node (per shard when sharded)
  std::vector<ClassDef> classes;
  std::vector<std::uint32_t> ls_leaves;  // class ids of ls-only leaves
  std::vector<std::uint32_t> rt_leaves;  // class ids of rt leaves
  std::vector<double> ls_weight;         // parallel to ls_leaves
  double ls_rate = 0;  // aggregate ls-only arrival rate, bytes/s
};

struct LayoutParams {
  std::vector<int> fanout;  // per level, top first; leaves at the bottom
  RateBps link = 0;
  int rt_every = 8;         // 1 leaf in rt_every carries an rt curve
  double rt_load = 0.11;    // rt arrival share of the (busiest) link
  double total_load = 0.97; // rt + ls share of the (busiest) link
  bool ul_caps = false;
  std::size_t qlimit = 256;
  int shards = 0;           // > 0: pin top-level subtrees round-robin
};

// Fraction of an rt leaf's token rate its shaped source offers.
inline constexpr double kRtFill = 0.9;

Layout make_layout(const LayoutParams& p, std::uint64_t seed);

struct Arrival {
  TimeNs t = 0;
  std::uint32_t cls = 0;
  std::uint32_t len = 0;
};

// Open-loop arrival stream in simulated time: a Poisson aggregate over
// the ls-only leaves, each arrival's leaf drawn Zipf(1.0) over a seeded
// shuffle, merged with one token-bucket-shaped Poisson source per rt
// leaf.  Sources can be added and removed between draws (call churn).
class TrafficGen {
 public:
  TrafficGen(const Layout& layout, std::uint64_t seed);

  void add_rt_source(std::uint32_t cls, Bytes u, RateBps r, TimeNs start);
  void remove_rt_source(std::uint32_t cls);

  // Appends arrivals strictly before t_end, in time order.
  void fill_until(std::vector<Arrival>& out, TimeNs t_end);
  // Appends the next n arrivals, in time order.
  void fill(std::vector<Arrival>& out, std::size_t n);

 private:
  struct RtSource {
    std::uint32_t cls = 0;
    double r = 0;       // bytes/ns
    double u = 0;
    double cand = 0;    // next Poisson candidate (ns)
    double tokens = 0;
    double tok_t = 0;
    double last = 0;    // last emission (FIFO shaper)
    double gap = 0;     // mean candidate gap (ns)
    bool live = false;
  };
  struct HeapEntry {
    double t;
    std::uint32_t src;
    std::uint32_t len;
  };
  void schedule(std::uint32_t src);
  Arrival pop();
  double peek() const;

  Rng rng_;
  std::vector<std::uint32_t> ls_leaves_;
  std::vector<double> ls_cdf_;
  double ls_gap_ = 0;  // mean ls inter-arrival, ns (0 = no ls traffic)
  double ls_next_ = 0;
  std::vector<RtSource> rt_;
  std::vector<std::int64_t> rt_index_;  // cls -> source index, -1 none
  std::vector<HeapEntry> heap_;
};

// A pre-generated arrival cycle, replayed back to back with its times
// shifted by `period` per repetition, so a run of any length needs only
// one cycle in memory and none of the timed interval is generation.
struct ArrivalCycle {
  std::vector<Arrival> arrivals;
  TimeNs period = 0;
  Arrival at(std::uint64_t i) const {
    const std::uint64_t n = arrivals.size();
    Arrival a = arrivals[i % n];
    a.t += (i / n) * period;
    return a;
  }
};
ArrivalCycle make_cycle(TrafficGen& gen, std::size_t n);

// ---- ctl_churn_4k control plane --------------------------------------------

// One generated control-plane batch (RuntimeHost::BatchOp-shaped, with
// class ids predicted by the generator).
struct CtlOp {
  enum class Kind { kAdd, kChange, kDelete, kQueueLimit };
  Kind kind = Kind::kAdd;
  std::uint32_t parent = 0;  // kAdd
  std::uint32_t cls = 0;     // kChange / kDelete / kQueueLimit
  hfsc::ClassConfig cfg{};
  std::size_t limit = 0;
};
struct CtlBatch {
  std::vector<CtlOp> ops;
  bool expect_reject = false;  // flash crowd: infeasible by construction
  // Call sources the batch starts / stops on success.
  std::vector<std::pair<std::uint32_t, RtReq>> start_calls;
  std::vector<std::uint32_t> stop_calls;
};

// Tracks the live hierarchy in the generator's own model so every
// normal batch is feasible under admission control (the sum of rt
// first-segment slopes stays below the link rate) and every flash crowd
// is infeasible (its rt rates alone exceed the link).
class ChurnPlan {
 public:
  ChurnPlan(const Layout& base, std::uint64_t seed);
  CtlBatch next();
  std::uint64_t batches() const noexcept { return n_; }

 private:
  Rng rng_;
  RateBps link_;
  std::uint32_t next_id_;
  std::vector<std::uint32_t> tenants_;
  std::vector<std::uint32_t> ls_leaves_;
  std::vector<std::pair<std::uint32_t, RtReq>> calls_;
  double rt_m1_sum_ = 0;  // bytes/s
  std::uint64_t n_ = 0;
};

// ---- sim_backbone scenario -------------------------------------------------

struct BackboneText {
  std::string text;
  std::size_t classes = 0;
  std::size_t rt_routes = 0;
};
BackboneText make_backbone(std::uint64_t seed, double duration_s);

// FNV-1a over generated bytes (input-determinism self-test).
std::uint64_t fnv1a(const void* data, std::size_t n,
                    std::uint64_t h = 1469598103934665603ULL);

}  // namespace pb
