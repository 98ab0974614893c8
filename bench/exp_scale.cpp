// Experiment E14 — set-up and per-packet cost against the class count.
//
// H-FSC is meant for large link-sharing hierarchies (Sections II and VI):
// per-packet work is O(log n) heap operations, and nothing in building a
// hierarchy needs more than a pass over its classes.  This experiment
// builds 2-level hierarchies of 1k, 10k and 100k leaves (1,000 leaves
// per top-level class, at least two top-level classes) and reports, per
// size:
//
//   * spec add   — HierarchySpec::add() for every class (name checks);
//   * compile    — HierarchySpec::compile() for hfsc (validate + build);
//   * host       — a RuntimeHost built class by class through its
//                  journaled control plane;
//   * sharded    — ShardedRuntime construction over 2 shards (validate,
//                  partition, journaled build, one base checkpoint per
//                  shard; no threads started);
//   * B/class    — resident-set growth of the compile, per class;
//   * dequeue    — mean ns per Hfsc::dequeue() with two packets queued at
//                  every leaf (every leaf active; one dequeue per leaf);
//   * checkpoint / restore — the backlogged core through checkpoint()
//                  and restore_checkpoint(), digest-checked.
//
// A 1M-leaf row runs only when /proc/meminfo's MemAvailable exceeds
// twice the peak it is projected to need (10x the 100k row's resident
// growth); otherwise the program prints that it skipped the size.
// Times are wall-clock from one run per size, so read the growth
// between rows, not the last digit.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "config/hierarchy_spec.hpp"
#include "core/checkpoint.hpp"
#include "runtime/host.hpp"
#include "runtime/supervisor.hpp"

using namespace hfsc;

namespace {

constexpr RateBps kLink = gbps(10);
constexpr std::size_t kLeavesPerTop = 1000;
constexpr Bytes kPkt = 1000;

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

// One "<key>: <n> kB" field of a /proc status-style file, in bytes.
std::uint64_t proc_kb(const char* path, const std::string& key) {
  std::ifstream in(path);
  std::string k;
  std::uint64_t v = 0;
  while (in >> k) {
    if (k == key + ":") {
      in >> v;
      return v * 1024;
    }
    in.ignore(1 << 10, '\n');
  }
  return 0;
}

std::uint64_t rss_bytes() { return proc_kb("/proc/self/status", "VmRSS"); }

// 1 leaf in 8 carries a concave rt+ls curve at half its share; the rest
// are ls-only.  Shares split the link evenly, so the hierarchy is
// admissible at every size.
HierarchySpec make_spec(std::size_t leaves) {
  const std::size_t tops = std::max<std::size_t>(2, leaves / kLeavesPerTop);
  const std::size_t per = leaves / tops;
  const RateBps top_share = kLink / tops;
  const RateBps leaf_share = std::max<RateBps>(1, top_share / per);
  HierarchySpec spec;
  for (std::size_t t = 0; t < tops; ++t) {
    HierarchySpec::ClassSpec top;
    top.name = "t";
    top.name += std::to_string(t);
    top.ls = ServiceCurve::linear(top_share);
    spec.add(top);
    for (std::size_t l = 0; l < per; ++l) {
      HierarchySpec::ClassSpec leaf;
      leaf.name = top.name + "." + std::to_string(l);
      leaf.parent = top.name;
      leaf.ls = ServiceCurve::linear(leaf_share);
      if (l % 8 == 0) {
        const RateBps r = std::max<RateBps>(1, leaf_share / 2);
        leaf.rt = ServiceCurve{2 * r, msec(1), r};
      }
      spec.add(std::move(leaf));
    }
  }
  return spec;
}

struct Row {
  std::size_t leaves = 0;
  std::size_t classes = 0;
  double add_ms = 0, compile_ms = 0, host_ms = 0, sharded_ms = 0;
  double bytes_per_class = 0, dequeue_ns = 0;
  double checkpoint_ms = 0, restore_ms = 0;
  std::uint64_t rss_growth = 0;
  bool restored_exact = false;
};

Row measure(std::size_t leaves) {
  using clock = std::chrono::steady_clock;
  Row r;
  r.leaves = leaves;
  const std::uint64_t rss0 = rss_bytes();

  auto t0 = clock::now();
  const HierarchySpec spec = make_spec(leaves);
  r.add_ms = ms_since(t0);
  r.classes = spec.classes.size();

  const std::uint64_t rss1 = rss_bytes();
  t0 = clock::now();
  HierarchySpec::Compiled c = spec.compile(SchedulerKind::kHfsc, kLink);
  r.compile_ms = ms_since(t0);
  const std::uint64_t rss2 = rss_bytes();
  r.bytes_per_class = static_cast<double>(rss2 > rss1 ? rss2 - rss1 : 0) /
                      static_cast<double>(r.classes);

  {
    t0 = clock::now();
    RuntimeOptions ro;
    ro.link_rate = kLink;
    RuntimeHost host(ro);
    HierarchySpec::IdMap ids;
    for (const HierarchySpec::ClassSpec& cs : spec.classes) {
      const ClassId parent = HierarchySpec::ClassSpec::is_top_level(cs.parent)
                                 ? kRootClass
                                 : ids.at(cs.parent);
      ids[cs.name] = host.add_class(parent, ClassConfig{cs.rt, cs.ls, cs.ul});
    }
    r.host_ms = ms_since(t0);
  }
  {
    ShardedOptions so;
    so.shards = 2;
    so.shard.runtime.link_rate = kLink;
    t0 = clock::now();
    const auto sharded = std::make_unique<ShardedRuntime>(so, spec);
    r.sharded_ms = ms_since(t0);
  }

  // Two packets at every leaf, then one dequeue per leaf at the link's
  // pace: every leaf stays active throughout.
  Hfsc& s = *c.hfsc;
  const std::vector<bool> leaf = spec.leaf_mask();
  std::uint64_t seq = 0;
  for (int round = 0; round < 2; ++round) {
    for (std::size_t i = 0; i < spec.classes.size(); ++i) {
      if (!leaf[i]) continue;
      const ClassId id = c.ids.at(spec.classes[i].name);
      s.enqueue(0, Packet{id, kPkt, 0, seq++});
    }
  }
  const TimeNs tx = tx_time(kPkt, kLink);
  TimeNs now = 0;
  std::size_t served = 0;
  t0 = clock::now();
  for (std::size_t k = 0; k < leaves; ++k, now += tx) {
    served += s.dequeue(now).has_value() ? 1 : 0;
  }
  r.dequeue_ns = ms_since(t0) * 1e6 / static_cast<double>(leaves);
  if (served != leaves) {
    std::fprintf(stderr, "exp_scale: %zu of %zu dequeues served\n", served,
                 leaves);
  }

  std::ostringstream os;
  t0 = clock::now();
  checkpoint(s, os);
  r.checkpoint_ms = ms_since(t0);
  const std::string image = os.str();
  std::istringstream is(image);
  t0 = clock::now();
  const Hfsc back = restore_checkpoint(is);
  r.restore_ms = ms_since(t0);
  r.restored_exact = state_digest(back) == state_digest(s);
  r.rss_growth = std::max(rss_bytes(), rss2) - rss0;
  return r;
}

void print(const Row& r) {
  std::printf(
      "| %zu | %zu | %.1f | %.1f | %.1f | %.1f | %.0f | %.0f | %.1f | %.1f "
      "|%s\n",
      r.leaves, r.classes, r.add_ms, r.compile_ms, r.host_ms, r.sharded_ms,
      r.bytes_per_class, r.dequeue_ns, r.checkpoint_ms, r.restore_ms,
      r.restored_exact ? "" : " restore digest MISMATCH");
}

}  // namespace

int main() {
  std::printf("E14: set-up and per-packet cost vs class count "
              "(2-level, %zu leaves per top-level class, %llu Gb/s link)\n\n",
              kLeavesPerTop,
              static_cast<unsigned long long>(kLink / gbps(1)));
  std::printf("| leaves | classes | spec add ms | compile ms | host ms | "
              "sharded(2) ms | B/class | dequeue ns | checkpoint ms | "
              "restore ms |\n");
  std::printf("|---|---|---|---|---|---|---|---|---|---|\n");
  Row last;
  for (const std::size_t n : {std::size_t{1000}, std::size_t{10000},
                              std::size_t{100000}}) {
    last = measure(n);
    print(last);
    std::fflush(stdout);
  }
  const std::uint64_t need = 10 * last.rss_growth;
  const std::uint64_t avail = proc_kb("/proc/meminfo", "MemAvailable");
  if (avail > 2 * need) {
    print(measure(1000000));
  } else {
    std::printf("\n1000000 leaves skipped: projected peak %llu MB needs "
                "MemAvailable > %llu MB (have %llu MB)\n",
                static_cast<unsigned long long>(need >> 20),
                static_cast<unsigned long long>((2 * need) >> 20),
                static_cast<unsigned long long>(avail >> 20));
  }
  std::printf("\npeak resident set: %llu MB\n",
              static_cast<unsigned long long>(
                  proc_kb("/proc/self/status", "VmHWM") >> 20));
  return 0;
}
