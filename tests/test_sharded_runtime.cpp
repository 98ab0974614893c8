// Tests for the supervised sharded runtime (docs/ROBUSTNESS.md
// Section 12) and its building blocks: the lock-free MPSC ring, the
// spec partitioner, the journal's fsync boundary (SyncPolicy), and the
// full runtime under load — including a worker kill healed by the
// supervisor while producers keep pushing.
//
// These build into hfsc_runtime_tests (ctest label "runtime") because
// the runtime tests spin real threads: tools/ci_check.sh runs the
// label under ThreadSanitizer.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "config/hierarchy_spec.hpp"
#include "runtime/host.hpp"
#include "runtime/journal.hpp"
#include "runtime/supervisor.hpp"
#include "sim/scenario.hpp"
#include "util/mpsc_ring.hpp"

namespace hfsc {
namespace {

// ---------------------------------------------------------------------------
// MpscRing
// ---------------------------------------------------------------------------

TEST(MpscRing, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(MpscRing<int>(1).capacity(), 2u);
  EXPECT_EQ(MpscRing<int>(2).capacity(), 2u);
  EXPECT_EQ(MpscRing<int>(3).capacity(), 4u);
  EXPECT_EQ(MpscRing<int>(64).capacity(), 64u);
  EXPECT_EQ(MpscRing<int>(65).capacity(), 128u);
}

TEST(MpscRing, FifoAcrossManyWraparounds) {
  MpscRing<int> ring(8);
  int next_push = 0;
  int next_pop = 0;
  // Keep the ring partially full while cycling the counters far past
  // capacity, so head/tail wrap many times.
  for (int round = 0; round < 500; ++round) {
    for (int i = 0; i < 5; ++i) ASSERT_TRUE(ring.try_push(next_push++));
    for (int i = 0; i < 5; ++i) {
      auto v = ring.try_pop();
      ASSERT_TRUE(v.has_value());
      EXPECT_EQ(*v, next_pop++);
    }
  }
  EXPECT_FALSE(ring.try_pop().has_value());
}

TEST(MpscRing, BackpressureWhenFullNeverOverwrites) {
  MpscRing<int> ring(4);
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(ring.try_push(i));
  EXPECT_FALSE(ring.try_push(99));  // full: rejected, not overwritten
  EXPECT_FALSE(ring.try_push(99));
  auto v = ring.try_pop();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 0);
  EXPECT_TRUE(ring.try_push(4));  // one slot freed
  for (int want = 1; want <= 4; ++want) {
    auto u = ring.try_pop();
    ASSERT_TRUE(u.has_value());
    EXPECT_EQ(*u, want);
  }
}

TEST(MpscRing, PeekObservesWithoutConsuming) {
  MpscRing<int> ring(4);
  EXPECT_EQ(ring.try_peek(), nullptr);
  ASSERT_TRUE(ring.try_push(7));
  ASSERT_TRUE(ring.try_push(8));
  const int* head = ring.try_peek();
  ASSERT_NE(head, nullptr);
  EXPECT_EQ(*head, 7);
  // Peek again: same element, nothing consumed.
  ASSERT_NE(ring.try_peek(), nullptr);
  EXPECT_EQ(*ring.try_peek(), 7);
  EXPECT_EQ(ring.size_approx(), 2u);
  auto v = ring.try_pop();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 7);
  ASSERT_NE(ring.try_peek(), nullptr);
  EXPECT_EQ(*ring.try_peek(), 8);
}

TEST(MpscRing, MultiProducerStressKeepsEveryElementInPerProducerOrder) {
  constexpr int kProducers = 3;
  constexpr std::uint64_t kPerProducer = 4000;
  MpscRing<std::uint64_t> ring(64);

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&ring, p] {
      for (std::uint64_t i = 0; i < kPerProducer; ++i) {
        const std::uint64_t v =
            (static_cast<std::uint64_t>(p) << 32) | i;
        while (!ring.try_push(v)) std::this_thread::yield();
      }
    });
  }

  // This thread is the single consumer.  Per-producer sequences must
  // come out strictly in order even though the global interleaving is
  // arbitrary.
  std::uint64_t expect[kProducers] = {0, 0, 0};
  std::uint64_t got = 0;
  while (got < kProducers * kPerProducer) {
    auto v = ring.try_pop();
    if (!v) {
      std::this_thread::yield();
      continue;
    }
    const int p = static_cast<int>(*v >> 32);
    const std::uint64_t seq = *v & 0xffffffffu;
    ASSERT_LT(p, kProducers);
    ASSERT_EQ(seq, expect[p]) << "producer " << p << " reordered";
    ++expect[p];
    ++got;
  }
  for (auto& t : producers) t.join();
  EXPECT_FALSE(ring.try_pop().has_value());
  for (int p = 0; p < kProducers; ++p) EXPECT_EQ(expect[p], kPerProducer);
}

// ---------------------------------------------------------------------------
// Partition
// ---------------------------------------------------------------------------

HierarchySpec two_org_spec() {
  HierarchySpec spec;
  using ClassSpec = HierarchySpec::ClassSpec;
  ClassSpec a;
  a.name = "orgA";
  a.parent = "root";
  a.ls = ServiceCurve::linear(mbps(40));
  a.shard = 1;
  spec.add(a);
  ClassSpec leaf;
  leaf.name = "leafA";
  leaf.parent = "orgA";
  leaf.ls = ServiceCurve::linear(mbps(20));
  spec.add(leaf);
  ClassSpec b;
  b.name = "orgB";
  b.parent = "root";
  b.ls = ServiceCurve::linear(mbps(40));  // no pin: hash-assigned
  spec.add(b);
  ClassSpec leafb;
  leafb.name = "leafB";
  leafb.parent = "orgB";
  leafb.ls = ServiceCurve::linear(mbps(20));
  spec.add(leafb);
  return spec;
}

TEST(ShardPartition, PinsRespectedAndChildrenFollowAncestor) {
  const HierarchySpec spec = two_org_spec();
  const std::vector<int> part = ShardedRuntime::partition(spec, 4);
  ASSERT_EQ(part.size(), 4u);
  EXPECT_EQ(part[0], 1);            // orgA pinned
  EXPECT_EQ(part[1], part[0]);      // leafA follows its top-level ancestor
  EXPECT_GE(part[2], 0);            // orgB hashed into range
  EXPECT_LT(part[2], 4);
  EXPECT_EQ(part[3], part[2]);      // leafB follows orgB
  // The hash assignment is a pure function of the name: stable.
  EXPECT_EQ(part, ShardedRuntime::partition(spec, 4));
}

TEST(ShardPartition, SingleShardMapsEverythingToZero) {
  HierarchySpec spec = two_org_spec();
  spec.classes[0].shard = -1;  // unpin orgA so 1 shard is legal
  const std::vector<int> part = ShardedRuntime::partition(spec, 1);
  for (const int s : part) EXPECT_EQ(s, 0);
}

TEST(ShardPartition, OutOfRangePinRejected) {
  HierarchySpec spec = two_org_spec();
  spec.classes[0].shard = 7;  // > shards-1
  EXPECT_THROW(
      { (void)ShardedRuntime::partition(spec, 4); }, Error);
}

TEST(ShardPartition, NonTopLevelPinRejected) {
  HierarchySpec spec = two_org_spec();
  spec.classes[1].shard = 0;  // leafA: pins are top-level only
  try {
    (void)ShardedRuntime::partition(spec, 4);
    FAIL() << "non-top-level pin accepted";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), Errc::kInvalidArgument);
  }
}

// A pin out of range for the ACTUAL shard count must throw even if it
// was valid for some larger count (orgA pins shard 1 here).
TEST(ShardPartition, PinValidAgainstActualShardCountOnly) {
  try {
    (void)ShardedRuntime::partition(two_org_spec(), 1);
    FAIL() << "pin 1 accepted with a single shard";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), Errc::kInvalidArgument);
  }
}

// ---------------------------------------------------------------------------
// Journal fsync boundary (SyncPolicy)
// ---------------------------------------------------------------------------

TEST(JournalSync, TearStopsAtDurableWatermark) {
  Journal j;
  j.append("alpha");
  j.sync();  // the fsync for "alpha" returned
  j.append("beta");
  const std::size_t synced = j.synced_bytes();
  ASSERT_LT(synced, j.image().size());

  // A torn write can only damage the unsynced suffix: tearing "more
  // than everything" still leaves the durable prefix byte-identical.
  j.tear_tail(1u << 20);
  EXPECT_EQ(j.image().size(), synced);
  EXPECT_EQ(j.num_records(), 1u);

  const Journal back = Journal::parse(j.image());
  EXPECT_EQ(back.num_records(), 1u);
  EXPECT_EQ(back.truncated_bytes(), 0u);
  ASSERT_EQ(back.records_after(0).size(), 1u);
  EXPECT_EQ(back.records_after(0)[0].payload, "alpha");
}

TEST(JournalSync, FullySyncedJournalCannotBeTorn) {
  Journal j;
  j.append("alpha");
  j.append("beta");
  j.sync();
  const std::string before = j.image();
  j.tear_tail(1u << 20);
  EXPECT_EQ(j.image(), before);
  EXPECT_EQ(j.num_records(), 2u);
}

TEST(JournalSync, DurableImageIsTheSyncedPrefix) {
  Journal j;
  EXPECT_EQ(j.durable_image().size(), j.image().size());  // header synced
  j.append("alpha");
  EXPECT_LT(j.durable_image().size(), j.image().size());
  const Journal crash = Journal::parse(std::string(j.durable_image()));
  EXPECT_EQ(crash.num_records(), 0u);  // unsynced append gone
  j.sync();
  EXPECT_EQ(j.durable_image().size(), j.image().size());
  const Journal after = Journal::parse(std::string(j.durable_image()));
  EXPECT_EQ(after.num_records(), 1u);
}

RuntimeOptions small_host_options(SyncPolicy sync) {
  RuntimeOptions o;
  o.link_rate = mbps(10);
  o.sync_policy = sync;
  return o;
}

ClassConfig ls_class(RateBps rate) {
  ClassConfig cfg;
  cfg.ls = ServiceCurve::linear(rate);
  return cfg;
}

TEST(JournalSync, PolicyNoneLosesEverythingSinceTheCheckpoint) {
  RuntimeOptions opts = small_host_options(SyncPolicy::kNone);
  RuntimeHost h(opts);
  const ClassId a = h.add_class(kRootClass, ls_class(mbps(4)));
  h.save_checkpoint();  // checkpointing always syncs (see journal.hpp)
  const std::uint64_t at_checkpoint = h.digest();

  h.add_class(a, ls_class(mbps(2)));  // journaled but never synced
  ASSERT_NE(h.digest(), at_checkpoint);
  ASSERT_LT(h.durable_journal_image().size(), h.journal_image().size());

  // Honest crash: only the durable prefix survives — the post-
  // checkpoint mutation is gone, by design of kNone.
  RuntimeHost crashed = RuntimeHost::recover(opts, h.checkpoint_image(),
                                             h.durable_journal_image());
  EXPECT_EQ(crashed.digest(), at_checkpoint);

  // Lucky crash (the OS happened to write the tail): full state back.
  RuntimeHost lucky = RuntimeHost::recover(opts, h.checkpoint_image(),
                                           h.journal_image());
  EXPECT_EQ(lucky.digest(), h.digest());
}

TEST(JournalSync, PolicyOnCommitKeepsEveryCompletedAppend) {
  RuntimeOptions opts = small_host_options(SyncPolicy::kOnCommit);
  RuntimeHost h(opts);
  const ClassId a = h.add_class(kRootClass, ls_class(mbps(4)));
  h.save_checkpoint();
  h.add_class(a, ls_class(mbps(2)));
  h.add_class(a, ls_class(mbps(1)));

  // Every completed append is behind the fsync: the durable image IS
  // the image, and recovery from it reproduces the live scheduler.
  EXPECT_EQ(h.durable_journal_image(), h.journal_image());
  RuntimeHost crashed = RuntimeHost::recover(opts, h.checkpoint_image(),
                                             h.durable_journal_image());
  EXPECT_EQ(crashed.digest(), h.digest());
  EXPECT_TRUE(crashed.audit_runtime().ok());
}

// ---------------------------------------------------------------------------
// ShardedRuntime under load
// ---------------------------------------------------------------------------

HierarchySpec sharded_spec(int shards) {
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
    rt.rt = ServiceCurve::linear(mbps(20));
    rt.ls = ServiceCurve::linear(mbps(20));
    spec.add(rt);
    ClassSpec bulk;
    bulk.name = "bulk" + tag;
    bulk.parent = org.name;
    bulk.ls = ServiceCurve::linear(mbps(20));
    bulk.qlimit = 256;
    spec.add(bulk);
  }
  return spec;
}

ShardedOptions sharded_options(int shards) {
  ShardedOptions so;
  so.shards = shards;
  RuntimeOptions& o = so.shard.runtime;
  o.link_rate = mbps(100);
  o.watchdog_horizon = 0;
  o.sample_interval = usec(500);
  so.shard.ring_capacity = 256;
  so.shard.checkpoint_every_pops = 128;
  so.shard.serve_burst = 32;
  so.spill_capacity = 1024;
  // Generous stall thresholds: scheduling jitter on a small machine
  // (or TSan slowdown) must never read as a wedged worker.
  so.poll_every = std::chrono::microseconds(500);
  so.suspect_after_polls = 30;
  so.restart_after_polls = 80;
  return so;
}

// Pushes until the runtime accepts the packet or the ring stays full
// for too long (then the reject is the runtime's own accounting).
void push_hard(ShardedRuntime& rt, TimeNs now, Packet pkt) {
  for (int attempt = 0; attempt < 200; ++attempt) {
    if (rt.enqueue(now, pkt)) return;
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
}

// Advances virtual time past all traffic and waits until every queue,
// ring and spill buffer is empty.  Returns the final quiesced totals.
ShardedRuntime::Totals drain(ShardedRuntime& rt, int producer,
                             TimeNs from) {
  TimeNs now = from;
  for (int iter = 0; iter < 4000; ++iter) {
    now += msec(1);
    rt.publish_frontier(producer, now);
    std::this_thread::sleep_for(std::chrono::microseconds(300));
    if (iter % 8 == 7) {
      ShardedRuntime::Totals t = rt.quiesce_totals();
      if (t.backlog == 0 && t.spilled == 0) return t;
    }
  }
  return rt.quiesce_totals();
}

TEST(ShardedRuntime, ConservationHoldsWithNoFaults) {
  const int kShards = 2;
  ShardedRuntime rt(sharded_options(kShards), sharded_spec(kShards));
  std::vector<ClassId> ids;
  for (int s = 0; s < kShards; ++s) {
    ids.push_back(rt.global_id("rt" + std::to_string(s)));
    ids.push_back(rt.global_id("bulk" + std::to_string(s)));
  }
  const int prod = rt.register_producer();
  rt.start();

  TimeNs now = 0;
  std::uint64_t seq = 1;
  for (int iter = 0; iter < 400; ++iter) {
    now += usec(100);
    rt.publish_frontier(prod, now);
    for (const ClassId id : ids) {
      push_hard(rt, now, Packet{id, 400, now, seq++});
    }
  }
  // An unroutable global id is rejected at the front door, before any
  // shard accounting.
  EXPECT_FALSE(rt.enqueue(now, Packet{ClassId(9999), 400, now, seq++}));

  const ShardedRuntime::Totals t = drain(rt, prod, now);
  EXPECT_TRUE(t.conserved()) << t.to_string();
  EXPECT_EQ(t.backlog, 0u) << t.to_string();
  EXPECT_EQ(t.spilled, 0u) << t.to_string();
  EXPECT_EQ(t.restarts, 0u) << t.to_string();
  EXPECT_EQ(t.crash_lost, 0u) << t.to_string();
  EXPECT_GT(t.sent, 0u);
  std::string why;
  EXPECT_TRUE(rt.audit_all(&why)) << why;
  rt.stop();
}

// The producers' frontier is the worker's serve condition: while a
// registered producer's frontier sits below every stamp it pushed, the
// workers feed their hosts but never dequeue, however long they spin.
// Publishing past the stamps releases every packet.
TEST(ShardedRuntime, FrontierGateHoldsServiceUntilPublished) {
  const int kShards = 2;
  ShardedRuntime rt(sharded_options(kShards), sharded_spec(kShards));
  std::vector<ClassId> ids;
  for (int s = 0; s < kShards; ++s) {
    ids.push_back(rt.global_id("rt" + std::to_string(s)));
    ids.push_back(rt.global_id("bulk" + std::to_string(s)));
  }
  const int prod = rt.register_producer();  // frontier left at 0
  rt.start();

  TimeNs now = 0;
  std::uint64_t seq = 1;
  std::uint64_t pushed = 0;
  for (int iter = 0; iter < 50; ++iter) {
    now += usec(100);
    for (const ClassId id : ids) {
      // 100 packets per shard: well inside each 256-slot ring.
      ASSERT_TRUE(rt.enqueue(now, Packet{id, 400, now, seq++}));
      ++pushed;
    }
  }

  for (int look = 0; look < 5; ++look) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    for (int s = 0; s < kShards; ++s) {
      EXPECT_EQ(rt.shard(s).sent_total(), 0u) << "shard " << s;
    }
    const ShardedRuntime::Totals held = rt.quiesce_totals();
    EXPECT_EQ(held.backlog, pushed) << held.to_string();
    EXPECT_EQ(held.sent, 0u) << held.to_string();
  }

  const ShardedRuntime::Totals t = drain(rt, prod, now);
  EXPECT_TRUE(t.conserved()) << t.to_string();
  EXPECT_EQ(t.sent, pushed) << t.to_string();
  EXPECT_EQ(t.backlog, 0u) << t.to_string();
  EXPECT_EQ(t.restarts, 0u) << t.to_string();
  rt.stop();
}

TEST(ShardedRuntime, WorkerKillHealsUnderLoadDigestIdentical) {
  const int kShards = 2;
  ShardedRuntime rt(sharded_options(kShards), sharded_spec(kShards));
  std::vector<ClassId> ids;
  for (int s = 0; s < kShards; ++s) {
    ids.push_back(rt.global_id("rt" + std::to_string(s)));
    ids.push_back(rt.global_id("bulk" + std::to_string(s)));
  }
  const int prod = rt.register_producer();
  rt.start();

  TimeNs now = 0;
  std::uint64_t seq = 1;
  for (int iter = 0; iter < 200; ++iter) {
    now += usec(100);
    rt.publish_frontier(prod, now);
    for (const ClassId id : ids) {
      // Not push_hard: while shard 0 is down its ring backs up, and
      // blocking here would stall the whole load loop.  A false return
      // is the runtime's own ring_rejected/spill accounting.
      (void)rt.enqueue(now, Packet{id, 400, now, seq++});
    }
    if (iter == 50) rt.shard(0).inject_kill(20);
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }

  // Keep a trickle flowing while the supervisor heals the corpse.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (std::chrono::steady_clock::now() < deadline) {
    if (rt.shard(0).restarts() >= 1 && !rt.shard(0).dead() &&
        rt.phase(0) == ShardPhase::kRunning) {
      break;
    }
    now += usec(500);
    rt.publish_frontier(prod, now);
    (void)rt.enqueue(now, Packet{ids[1], 400, now, seq++});
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  ASSERT_GE(rt.shard(0).restarts(), 1u) << "supervisor never restarted";
  ASSERT_FALSE(rt.shard(0).dead());

  // Load after the heal: the restarted shard must serve again.
  const std::uint64_t sent_before = rt.shard(0).sent_total();
  for (int iter = 0; iter < 100; ++iter) {
    now += usec(100);
    rt.publish_frontier(prod, now);
    push_hard(rt, now, Packet{ids[0], 400, now, seq++});
    push_hard(rt, now, Packet{ids[1], 400, now, seq++});
  }

  const ShardedRuntime::Totals t = drain(rt, prod, now);
  EXPECT_TRUE(t.conserved()) << t.to_string();
  EXPECT_EQ(t.backlog, 0u) << t.to_string();
  EXPECT_EQ(t.spilled, 0u) << t.to_string();
  EXPECT_GE(t.restarts, 1u);
  EXPECT_GT(rt.shard(0).sent_total(), sent_before)
      << "restarted shard never served again";

  bool recovered_seen = false;
  for (const SupervisorEvent& ev : rt.drain_events()) {
    ASSERT_NE(ev.kind, SupervisorEvent::Kind::kRecoveryFailed)
        << ev.detail;
    if (ev.kind == SupervisorEvent::Kind::kRecovered) {
      recovered_seen = true;
      EXPECT_TRUE(ev.digest_match)
          << "double recovery diverged: " << ev.detail;
    }
  }
  EXPECT_TRUE(recovered_seen);

  std::string why;
  EXPECT_TRUE(rt.audit_all(&why)) << why;
  rt.stop();
}

// ---------------------------------------------------------------------------
// Scenario `shard` class attribute
// ---------------------------------------------------------------------------

TEST(ScenarioShard, TopLevelPinParsesAndPropagates) {
  std::istringstream in(R"(
link 10Mbps
duration 1s
class org root ls linear 10Mbps shard 1
class leaf org ls linear 5Mbps
source cbr leaf 1Mbps 1000 0s 1s
)");
  const Scenario sc = Scenario::parse(in);
  ASSERT_EQ(sc.classes.size(), 2u);
  EXPECT_EQ(sc.classes[0].shard, 1);
  EXPECT_EQ(sc.classes[1].shard, -1);  // unpinned: hash-assigned
  const HierarchySpec spec = sc.to_hierarchy_spec();
  ASSERT_EQ(spec.classes.size(), 2u);
  EXPECT_EQ(spec.classes[0].shard, 1);
  EXPECT_EQ(spec.classes[1].shard, -1);
}

TEST(ScenarioShard, PinOnChildClassRejected) {
  std::istringstream in(R"(
link 10Mbps
duration 1s
class org root ls linear 10Mbps
class leaf org ls linear 5Mbps shard 0
source cbr leaf 1Mbps 1000 0s 1s
)");
  EXPECT_THROW({ (void)Scenario::parse(in); }, std::runtime_error);
}

}  // namespace
}  // namespace hfsc
