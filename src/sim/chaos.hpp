// Chaos / soak harness for the resilience runtime (docs/ROBUSTNESS.md
// Section 11).
//
// run_chaos() drives a RuntimeHost through composed adversity and turns
// every episode into assertions:
//
//   * an overload scenario plus a governor-disabled differential twin:
//     a flash-crowd flood walks the degradation ladder to level 3 and
//     back down, while a token-bucket-conformant rt leaf's measured
//     delays are checked against the analyzer's Theorem 2 bound at
//     EVERY level in both runs — the proof that degradation never
//     touches admitted real-time guarantees — along with full
//     reversibility (clamps undone bit-for-bit, admission headroom
//     restored) and a tightened-admission rejection probe at level 3;
//
//   * kill-and-recover episodes: traffic storms, transaction churn,
//     clock jumps and malformed input run against a host that is
//     crashed (CrashSignal) at a crash point cycling over every
//     journal/checkpoint boundary — after-apply, after-append, torn
//     append, before/after-checkpoint, after-compact — then recovered
//     from the persisted images.  Each recovery must be deterministic
//     (two independent recoveries digest-identical), auditor-clean, and
//     packet-conserving (offered = delivered + dropped + residual,
//     checked per crash-free epoch so a crash can only lose in-flight
//     work, never invent it);
//
//   * corrupt-image probes: garbage journals raise typed kBadJournal,
//     corrupt checkpoints kBadCheckpoint, bit-flipped journal interiors
//     degrade to a clean truncated recovery — never a crash.
//
// Soak mode repeats the episode mix under a wall-clock budget with
// fresh seeds; it is the CI-opt-in (HFSC_SOAK=1) long-running variant.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "util/types.hpp"

namespace hfsc {

struct ChaosConfig {
  std::uint64_t seed = 0xC0FFEE;
  // Number of kill-and-recover episodes (each arms exactly one crash;
  // the crash point cycles over the 6 boundary kinds).
  int episodes = 60;
  // Run the overload + differential-twin scenario (slowest single
  // piece; tests can disable it when exercising only crash recovery).
  bool overload_check = true;
  // Soak: keep running episodes until the wall-clock budget is spent.
  bool soak = false;
  int soak_seconds = 60;
  // run_sharded_chaos(): shard count and number of real-threaded
  // fault episodes (each injects one thread-level fault — stall+ring
  // overflow, worker kill, host persistence-boundary crash, or a
  // supervisor outage spanning a crash — into a ShardedRuntime).
  int shards = 4;
  int shard_episodes = 8;
};

struct ChaosReport {
  // The seed the run was driven by — echoed in the summary and in
  // every failure message so any red run is reproducible verbatim.
  std::uint64_t seed = 0;
  // Volumes.
  int episodes = 0;
  std::uint64_t offered = 0;    // enqueue attempts, malformed included
  std::uint64_t delivered = 0;  // dequeue successes
  // Crash bookkeeping.
  int crashes = 0;
  int recoveries = 0;
  int torn_appends = 0;
  std::uint64_t replayed_records = 0;
  // Overload scenario.
  int max_gov_level = 0;
  std::uint64_t push_outs = 0;
  TimeNs rt_delay_bound = 0;  // analyzer bound for the rt leaf
  TimeNs rt_delay_max_governed = 0;
  TimeNs rt_delay_max_twin = 0;
  // Sharded runtime episodes (run_sharded_chaos).
  int shard_episodes = 0;
  int shard_faults = 0;          // thread-level faults injected
  std::uint64_t shard_restarts = 0;  // supervisor restarts observed
  std::uint64_t shard_spilled = 0;   // ring entries drained to spill
  std::uint64_t shard_crash_lost = 0;
  TimeNs shard_rt_delay_bound = 0;
  TimeNs shard_rt_delay_max = 0;  // healthy (never-restarted) shards
  // Every violated expectation, human-readable; empty means the run is
  // fully green.
  std::vector<std::string> failures;

  bool ok() const noexcept { return failures.empty(); }
  // Records a violated expectation tagged "seed=0x<hex>" with the run's
  // seed, so a red line is reproducible verbatim (seed is set before
  // any episode runs; the summary lines carry the same tag).
  void fail(const std::string& what);
  std::string to_string() const;
};

// Shared by both harness translation units:
//   * chaos_rt_delay_bound is the Theorem 2 bound for their rt leaf — a
//     20 Mb/s linear rt curve fed by a (2000 B, 16 Mb/s) token bucket on
//     a 100 Mb/s link: the horizontal gap between envelope and guarantee
//     plus one max-packet transmission time, computed exactly as the
//     static analyzer computes it; nullopt if the envelope overruns the
//     guarantee;
//   * chaos_runtime_options are the RuntimeHost options of the
//     kill-and-recover episodes and of the sharded episodes' hosts.
struct RuntimeOptions;  // runtime/host.hpp
std::optional<TimeNs> chaos_rt_delay_bound();
RuntimeOptions chaos_runtime_options(TimeNs watchdog_horizon);

ChaosReport run_chaos(const ChaosConfig& cfg);

// Real-threaded chaos against the supervised sharded runtime
// (runtime/supervisor.hpp): every episode partitions a per-shard
// rt+bulk hierarchy across cfg.shards shards, drives conformant rt
// traffic plus bulk storms through the MPSC rings from a producer
// thread, and injects one thread-level fault — a stall with a ring
// overflow flood, a worker kill at an arbitrary loop point, a host
// persistence-boundary crash (journal append, torn append, checkpoint
// boundaries), or a worker kill during a supervisor outage.  After the
// supervisor heals the shard the episode asserts: the cross-shard
// conservation identity (presented == sent + dropped + rejected +
// backlog + spilled) exactly at quiesce, double-recovery digest
// equality on every restart, an auditor-clean final state, full
// backlog drain, and healthy shards' measured rt delays within the
// analytic Theorem 2 bound.
ChaosReport run_sharded_chaos(const ChaosConfig& cfg);

}  // namespace hfsc
