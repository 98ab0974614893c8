// Thread-level chaos against the supervised sharded runtime
// (docs/ROBUSTNESS.md Section 12).
//
// Unlike sim/chaos.cpp — which kills a single-instance host at
// persistence boundaries inside one thread — these episodes run REAL
// worker threads under the Supervisor and inject the faults only a
// threaded deployment can suffer: a wedged (stalled) worker that stops
// heartbeating while producers flood its ring past capacity, a worker
// killed mid-loop at an arbitrary point (including between a ring pop
// and the host enqueue, the canonical in-flight-loss window), a host
// persistence-boundary crash reached from the worker thread, and a
// worker death during a supervisor outage (the watchdog itself was
// down; restarting it must find and heal the corpse).
//
// Every episode ends with the books balanced exactly: the cross-shard
// conservation identity, double-recovery digest equality on each
// restart, auditor-clean shards, a fully drained backlog, and healthy
// shards' rt delays within the analytic Theorem 2 bound.
#include "sim/chaos.hpp"

#include <chrono>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "config/hierarchy_spec.hpp"
#include "runtime/supervisor.hpp"
#include "util/rng.hpp"

namespace hfsc {

namespace {

// Per-shard hierarchy: one guaranteed rt leaf plus two bulk leaves
// under a pinned top-level org, and one hash-assigned top-level leaf
// so the default partition path is exercised too.
constexpr Bytes kRtLen = 200;
const ServiceCurve kRtCurve = ServiceCurve::linear(mbps(20));

HierarchySpec make_spec(int shards) {
  HierarchySpec spec;
  using ClassSpec = HierarchySpec::ClassSpec;
  for (int s = 0; s < shards; ++s) {
    const std::string tag = std::to_string(s);
    ClassSpec org;
    org.name = "org" + tag;
    org.parent = "root";
    org.ls = ServiceCurve::linear(mbps(50));
    org.shard = s;
    spec.add(org);
    ClassSpec rt;
    rt.name = "rt" + tag;
    rt.parent = org.name;
    rt.rt = kRtCurve;
    rt.ls = kRtCurve;
    spec.add(rt);
    for (const char* leaf : {"a", "b"}) {
      ClassSpec b;
      b.name = std::string("bulk") + leaf + tag;
      b.parent = org.name;
      b.ls = ServiceCurve::linear(mbps(15));
      b.qlimit = 64;
      spec.add(b);
    }
  }
  ClassSpec wild;
  wild.name = "wild";
  wild.parent = "root";
  wild.ls = ServiceCurve::linear(mbps(5));
  wild.qlimit = 32;
  spec.add(wild);
  return spec;
}

// The thread-level fault each episode injects (cycled).
enum class ShardFault {
  kStallAndFlood,      // wedged worker + ring overflow, watchdog kill
  kWorkerKill,         // operation-countdown death mid-loop
  kHostCrash,          // persistence-boundary crash / torn append
  kSupervisorOutage,   // worker dies while the supervisor is down
};

void run_shard_episode(const ChaosConfig& cfg, int ep, ChaosReport& rep) {
  Rng rng(cfg.seed ^ (0x517cc1b727220a95ULL * static_cast<std::uint64_t>(ep + 1)));
  const int S = cfg.shards < 1 ? 1 : cfg.shards;
  const std::string who = "sharded episode " + std::to_string(ep);

  ShardedOptions so;
  so.shards = S;
  // Watchdog off: virtual time advances irregularly here.
  so.shard.runtime = chaos_runtime_options(0);
  so.shard.ring_capacity = 256;
  so.shard.checkpoint_every_pops = 256;
  so.shard.serve_burst = 32;
  so.spill_capacity = 1024;
  // Generous enough that OS scheduling jitter (or sanitizer slowdown)
  // on a small machine never masquerades as a wedged worker; an
  // injected stall is still confirmed in ~40 ms.
  so.poll_every = std::chrono::microseconds(500);
  so.suspect_after_polls = 30;
  so.restart_after_polls = 80;
  ShardedRuntime rt(so, make_spec(S));

  std::vector<ClassId> rt_ids, bulk_ids;
  for (int s = 0; s < S; ++s) {
    const std::string tag = std::to_string(s);
    rt_ids.push_back(rt.global_id("rt" + tag));
    bulk_ids.push_back(rt.global_id("bulka" + tag));
    bulk_ids.push_back(rt.global_id("bulkb" + tag));
  }
  const ClassId wild = rt.global_id("wild");

  const int prod = rt.register_producer();
  rt.start();

  const auto fault = static_cast<ShardFault>(ep % 4);
  const int victim = static_cast<int>(rng.uniform(0, static_cast<std::uint64_t>(S - 1)));
  const ClassId victim_bulk = bulk_ids[static_cast<std::size_t>(2 * victim)];

  TimeNs now = usec(1);
  std::uint64_t seq = 1;
  const TimeNs step = usec(100);  // rt CBR: 200 B / 100 us = 16 Mb/s
  const int iters = 400;
  const int fault_at = static_cast<int>(rng.uniform(100, 160));
  bool fault_injected = false;

  for (int i = 0; i < iters; ++i) {
    for (const ClassId c : rt_ids) rt.enqueue(now, Packet{c, kRtLen, now, seq++});
    for (const ClassId c : bulk_ids) {
      if (rng.chance(0.5)) {
        rt.enqueue(now, Packet{c, static_cast<Bytes>(rng.uniform(400, 1500)),
                               now, seq++});
      }
    }
    if (rng.chance(0.1)) rt.enqueue(now, Packet{wild, 500, now, seq++});
    // Malformed input: an unroutable class id must be refused, counted
    // nowhere in the shard totals, and never crash anything.
    if (rng.chance(0.02) &&
        rt.enqueue(now, Packet{9999, 100, now, seq++})) {
      rep.fail(who + ": unroutable class id was accepted");
    }

    if (!fault_injected && i >= fault_at) {
      fault_injected = true;
      switch (fault) {
        case ShardFault::kStallAndFlood:
          rt.shard(victim).inject_stall();
          break;
        case ShardFault::kWorkerKill:
          rt.shard(victim).inject_kill(rng.uniform(1, 400));
          break;
        case ShardFault::kHostCrash: {
          // Cycle the persistence boundaries; journal-append points are
          // triggered by a posted batch, checkpoint points by the
          // worker's own pop-cadence checkpoint.
          const int sub = (ep / 4) % 6;
          if (sub == 5) {
            rt.shard(victim).post_tear(rng.uniform(1, 40));
          } else {
            rt.shard(victim).post_arm_crash(kAllCrashPoints[sub]);
          }
          if (sub == 5 || kAllCrashPoints[sub] == CrashPoint::kAfterApply ||
              kAllCrashPoints[sub] == CrashPoint::kAfterJournalAppend) {
            std::vector<RuntimeHost::BatchOp> ops;
            RuntimeHost::BatchOp add;
            add.kind = RuntimeHost::BatchOp::Kind::kAdd;
            add.parent = rt.local_id(rt.global_id(
                "org" + std::to_string(victim)));
            add.cfg = ClassConfig::link_share_only(
                ServiceCurve::linear(mbps(5)));
            ops.push_back(add);
            rt.shard(victim).post_batch(std::move(ops));
          }
          break;
        }
        case ShardFault::kSupervisorOutage:
          rt.stop_supervisor();
          rt.shard(victim).inject_kill(rng.uniform(1, 100));
          break;
      }
    }
    // Ring overflow: while the victim is wedged nothing pops, so a
    // sustained flood must fill its 256-slot ring and bounce the rest
    // as ring_rejected — the conservation identity's `rejected` term.
    if (fault == ShardFault::kStallAndFlood && fault_injected &&
        i < fault_at + 20) {
      for (int k = 0; k < 30; ++k) {
        rt.enqueue(now, Packet{victim_bulk, 1000, now, seq++});
      }
    }

    rt.publish_frontier(prod, now);
    now += step;
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }

  if (fault == ShardFault::kSupervisorOutage) {
    // With the watchdog down the corpse must still be lying there —
    // dead, unhealed, producers bouncing off its full ring.
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    if (!rt.shard(victim).dead()) {
      rep.fail(who + ": killed worker not dead after supervisor outage");
    }
    if (rt.shard(victim).restarts() != 0) {
      rep.fail(who + ": shard restarted while the supervisor was down");
    }
    rt.start_supervisor();
  }

  // Heal: the supervisor must detect the fault, quarantine, recover and
  // restart.  Keep a trickle of traffic flowing so an armed
  // checkpoint-boundary crash actually reaches its checkpoint.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  for (;;) {
    std::uint64_t restarts = 0;
    bool healthy = true;
    for (int s = 0; s < S; ++s) {
      restarts += rt.shard(s).restarts();
      if (rt.shard(s).dead()) healthy = false;
      if (rt.phase(s) != ShardPhase::kRunning) healthy = false;
    }
    if (healthy && restarts >= 1) break;
    if (std::chrono::steady_clock::now() > deadline) {
      rep.fail(who + ": fault never healed (" + std::to_string(restarts) +
                   " restarts)");
      break;
    }
    for (int k = 0; k < 4; ++k) {
      rt.enqueue(now, Packet{victim_bulk, 800, now, seq++});
    }
    rt.publish_frontier(prod, now);
    now += step;
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }

  // Drain: advance the frontier with no new arrivals until every
  // shard's backlog and spill are empty.
  for (int g = 0; g < 2000; ++g) {
    now += msec(1);
    rt.publish_frontier(prod, now);
    std::this_thread::sleep_for(std::chrono::microseconds(300));
    if (g % 8 == 7) {
      const ShardedRuntime::Totals t = rt.quiesce_totals();
      if (t.backlog == 0 && t.spilled == 0) break;
    }
  }

  // The books, exactly.
  const ShardedRuntime::Totals totals = rt.quiesce_totals();
  if (!totals.conserved()) {
    rep.fail(who + ": conservation broken: " + totals.to_string());
  }
  if (totals.backlog != 0 || totals.spilled != 0) {
    rep.fail(who + ": backlog failed to drain: " + totals.to_string());
  }
  if (totals.restarts < 1) {
    rep.fail(who + ": injected fault never caused a restart");
  }
  std::string why;
  if (!rt.audit_all(&why)) {
    rep.fail(who + ": audit-dirty after recovery: " + why);
  }

  int recovered = 0;
  for (const SupervisorEvent& ev : rt.drain_events()) {
    switch (ev.kind) {
      case SupervisorEvent::Kind::kRecoveryFailed:
        rep.fail(who + ": recovery failed on shard " +
                     std::to_string(ev.shard) + ": " + ev.detail);
        break;
      case SupervisorEvent::Kind::kRecovered:
        ++recovered;
        if (!ev.digest_match) {
          rep.fail(who + ": recovery of shard " + std::to_string(ev.shard) +
                       " is not deterministic (digest mismatch)");
        }
        break;
      case SupervisorEvent::Kind::kQuarantined:
        rep.shard_spilled += ev.spilled;
        break;
      default:
        break;
    }
  }
  if (recovered < 1) rep.fail(who + ": no recovery event was emitted");

  // Healthy shards' guarantees never flinched: a shard that was never
  // restarted must have kept every rt dequeue inside the analytic
  // bound, fault or no fault elsewhere.
  for (int s = 0; s < S; ++s) {
    if (rt.shard(s).restarts() != 0) continue;
    const TimeNs d = rt.shard(s).max_rt_delay();
    if (d > rep.shard_rt_delay_max) rep.shard_rt_delay_max = d;
    if (d > rep.shard_rt_delay_bound) {
      rep.fail(who + ": healthy shard " + std::to_string(s) +
                   " rt delay " + std::to_string(d) +
                   " ns exceeds the Theorem 2 bound " +
                   std::to_string(rep.shard_rt_delay_bound) + " ns");
    }
  }

  rep.offered += totals.presented;
  rep.delivered += totals.sent;
  rep.shard_restarts += totals.restarts;
  rep.shard_crash_lost += totals.crash_lost;
  ++rep.shard_faults;
  ++rep.shard_episodes;
  rt.stop();
}

}  // namespace

ChaosReport run_sharded_chaos(const ChaosConfig& cfg) {
  ChaosReport rep;
  rep.seed = cfg.seed;
  // The offered rt stream (200 B / 100 us = 16 Mb/s CBR) on kRtCurve is
  // the shared bound's token-bucket-conformant rt leaf.
  const std::optional<TimeNs> bound = chaos_rt_delay_bound();
  if (!bound) {
    rep.fail("sharded: rt envelope unexpectedly overruns the guarantee");
    return rep;
  }
  rep.shard_rt_delay_bound = *bound;
  for (int ep = 0; ep < cfg.shard_episodes; ++ep) {
    run_shard_episode(cfg, ep, rep);
  }
  return rep;
}

}  // namespace hfsc
