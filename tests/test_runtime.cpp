// Unit tests for the resilience runtime (src/runtime/): the write-ahead
// journal's parse/torn-tail/compaction behavior, the overload governor's
// ladder and durable-state round trip, and RuntimeHost crash recovery at
// every persistence boundary.  The chaos harness (tests/test_chaos.cpp)
// composes these under randomized adversity; here each property is
// pinned deterministically.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "runtime/governor.hpp"
#include "runtime/host.hpp"
#include "runtime/journal.hpp"
#include "util/errors.hpp"

namespace hfsc {
namespace {

// --- Journal ---------------------------------------------------------------

TEST(Journal, AppendParseRoundTrip) {
  Journal j;
  j.append("add 1 2 3");
  j.append("chg 2");
  j.append(std::string("\0binary\xff", 8));  // payloads are opaque bytes
  const Journal back = Journal::parse(j.image());
  ASSERT_EQ(back.num_records(), 3u);
  EXPECT_EQ(back.records_after(0)[0].payload, "add 1 2 3");
  EXPECT_EQ(back.records_after(0)[2].payload, std::string("\0binary\xff", 8));
  EXPECT_EQ(back.last_seq(), 3u);
  EXPECT_EQ(back.truncated_bytes(), 0u);
}

TEST(Journal, TornTailIsTruncatedNotFatal) {
  Journal j;
  j.append("one");
  j.append("two");
  j.append("three");
  for (std::size_t chop = 1; chop < 3 + Journal::kRecordOverhead; ++chop) {
    std::string img = j.image();
    img.resize(img.size() - chop);  // tear inside the last record
    const Journal back = Journal::parse(img);
    EXPECT_EQ(back.num_records(), 2u) << "chop=" << chop;
    EXPECT_GT(back.truncated_bytes(), 0u);
    EXPECT_EQ(back.records_after(0)[1].payload, "two");
  }
}

TEST(Journal, InteriorBitFlipTruncatesFromTheDamage) {
  Journal j;
  j.append("aaaa");
  j.append("bbbb");
  j.append("cccc");
  std::string img = j.image();
  // Flip a payload bit of the SECOND record: its checksum fails, and the
  // scan must keep record one, dropping two and everything after.
  const std::size_t rec1 = Journal::kHeaderBytes + Journal::kRecordOverhead + 4;
  img[rec1 + Journal::kRecordOverhead + 1] ^= 0x10;
  const Journal back = Journal::parse(img);
  ASSERT_EQ(back.num_records(), 1u);
  EXPECT_EQ(back.records_after(0)[0].payload, "aaaa");
  EXPECT_GT(back.truncated_bytes(), 0u);
}

TEST(Journal, BadMagicOrVersionIsTyped) {
  Journal j;
  j.append("x");
  std::string img = j.image();
  img[0] = 'X';
  try {
    Journal::parse(img);
    FAIL() << "bad magic parsed";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), Errc::kBadJournal);
  }
  std::string img2 = j.image();
  img2[8] = 0x7f;  // absurd version
  try {
    Journal::parse(img2);
    FAIL() << "bad version parsed";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), Errc::kBadJournal);
  }
  try {
    Journal::parse("short");
    FAIL() << "truncated header parsed";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), Errc::kBadJournal);
  }
}

TEST(Journal, CompactionKeepsSequenceNumbers) {
  Journal j;
  for (int i = 0; i < 5; ++i) {
    std::string payload = "r";
    payload += std::to_string(i);
    j.append(payload);
  }
  j.compact(3);  // checkpoint covered seqs 1..3
  EXPECT_EQ(j.num_records(), 2u);
  const auto rest = j.records_after(3);
  ASSERT_EQ(rest.size(), 2u);
  EXPECT_EQ(rest[0].seq, 4u);
  EXPECT_EQ(rest[1].payload, "r4");
  // New appends continue the sequence, and the compacted image
  // round-trips even though it no longer starts at seq 1.
  j.append("r5");
  EXPECT_EQ(j.last_seq(), 6u);
  const Journal back = Journal::parse(j.image());
  EXPECT_EQ(back.num_records(), 3u);
  EXPECT_EQ(back.last_seq(), 6u);
}

// --- Governor durable state ------------------------------------------------

TEST(Governor, SerializeRestoreRoundTrip) {
  OverloadGovernor g{GovernorConfig{}};
  const std::string blob = g.serialize();
  OverloadGovernor back{GovernorConfig{}};
  back.restore(blob);
  EXPECT_EQ(back.level(), 0);
  EXPECT_EQ(back.serialize(), blob);
}

TEST(Governor, RestoreRejectsGarbage) {
  OverloadGovernor g{GovernorConfig{}};
  for (const char* bad :
       {"", "gov-state 2\n", "gov-state 1\nlevel 9 0\n",
        "gov-state 1\nlevel 1 0\nclamped zzz\n"}) {
    try {
      g.restore(bad);
      FAIL() << "restored from: " << bad;
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), Errc::kBadCheckpoint);
    }
  }
}

// --- RuntimeHost recovery --------------------------------------------------

RuntimeOptions small_opts() {
  RuntimeOptions o;
  o.link_rate = mbps(10);
  o.admission_rate = mbps(10);
  o.watchdog_horizon = msec(50);
  return o;
}

// A few journaled mutations plus traffic; returns the host for probing.
RuntimeHost busy_host() {
  RuntimeHost h(small_opts());
  const ClassId org = h.add_class(
      kRootClass, ClassConfig::link_share_only(ServiceCurve::linear(mbps(8))));
  const ClassId rt = h.add_class(
      kRootClass, ClassConfig::both(ServiceCurve::linear(mbps(2))));
  std::vector<RuntimeHost::BatchOp> batch;
  for (int i = 0; i < 3; ++i) {
    RuntimeHost::BatchOp op;
    op.kind = RuntimeHost::BatchOp::Kind::kAdd;
    op.parent = org;
    op.cfg = ClassConfig::link_share_only(ServiceCurve::linear(mbps(2)));
    batch.push_back(op);
  }
  h.commit_batch(batch);
  h.set_queue_limit(org + 1, 32);
  TimeNs now = usec(1);
  std::uint64_t seq = 1;
  for (int i = 0; i < 50; ++i) {
    h.enqueue(now, Packet{rt, 200, now, seq++});
    h.enqueue(now, Packet{org + 1 + static_cast<ClassId>(i % 3), 1200, now,
                          seq++});
    if (i % 2 == 0) (void)h.dequeue(now);
    now += usec(100);
  }
  return h;
}

TEST(RuntimeHost, RecoverFromJournalAloneMatchesLive) {
  RuntimeHost live = busy_host();
  // Never checkpointed: recovery replays the full journal from scratch.
  RuntimeHost back = RuntimeHost::recover(small_opts(), "", live.journal_image());
  // Control-plane state converges exactly; the (unjournaled) data path
  // does not travel, so compare structure via the audit + class configs.
  EXPECT_TRUE(back.audit_runtime().ok());
  EXPECT_EQ(back.sched().num_classes(), live.sched().num_classes());
  for (ClassId c = 1; c < live.sched().num_classes(); ++c) {
    EXPECT_EQ(back.sched().is_deleted(c), live.sched().is_deleted(c));
    if (live.sched().is_deleted(c)) continue;
    EXPECT_EQ(back.sched().queue_limit_of(c), live.sched().queue_limit_of(c));
  }
}

TEST(RuntimeHost, RecoverFromCheckpointPlusTailMatchesDigest) {
  RuntimeHost live = busy_host();
  live.save_checkpoint();
  // Post-checkpoint control-plane tail — exactly what replay must redo.
  live.set_queue_limit(1, 64);
  live.change_class(msec(100), 2,
                    ClassConfig::both(ServiceCurve::linear(mbps(1))));
  RuntimeHost back = RuntimeHost::recover(small_opts(), live.checkpoint_image(),
                                          live.journal_image());
  EXPECT_EQ(back.digest(), live.digest());
  EXPECT_TRUE(back.audit_runtime().ok());
  EXPECT_EQ(back.governor().serialize(), live.governor().serialize());
}

TEST(RuntimeHost, EveryCrashPointRecoversClean) {
  for (const CrashPoint p : kAllCrashPoints) {
    RuntimeHost live = busy_host();
    live.save_checkpoint();
    live.arm_crash(p);
    bool crashed = false;
    try {
      // An op that crosses every boundary: a mutation for the journal
      // points, a snapshot for the checkpoint points.
      if (p == CrashPoint::kBeforeCheckpoint ||
          p == CrashPoint::kAfterCheckpoint || p == CrashPoint::kAfterCompact) {
        live.set_queue_limit(1, 16);
        live.save_checkpoint();
      } else {
        live.set_queue_limit(1, 16);
      }
    } catch (const CrashSignal& s) {
      crashed = true;
      EXPECT_EQ(s.point, p);
    }
    ASSERT_TRUE(crashed) << to_string(p);
    RuntimeHost back = RuntimeHost::recover(
        small_opts(), live.checkpoint_image(), live.journal_image());
    EXPECT_TRUE(back.audit_runtime().ok()) << to_string(p);
    // Recovery is deterministic: a second independent recovery agrees.
    RuntimeHost back2 = RuntimeHost::recover(
        small_opts(), live.checkpoint_image(), live.journal_image());
    EXPECT_EQ(back.digest(), back2.digest()) << to_string(p);
  }
}

TEST(RuntimeHost, TornAppendLosesOnlyTheTornRecord) {
  RuntimeHost live = busy_host();
  live.save_checkpoint();
  live.set_queue_limit(1, 64);  // survives: appended whole
  live.tear_next_append(4);
  bool crashed = false;
  try {
    live.set_queue_limit(1, 7);  // torn: must NOT survive
  } catch (const CrashSignal&) {
    crashed = true;
  }
  ASSERT_TRUE(crashed);
  RuntimeHost back = RuntimeHost::recover(small_opts(), live.checkpoint_image(),
                                          live.journal_image());
  EXPECT_EQ(back.sched().queue_limit_of(1), 64u);
  EXPECT_TRUE(back.audit_runtime().ok());
}

TEST(RuntimeHost, CorruptImagesRaiseTypedErrors) {
  RuntimeHost live = busy_host();
  live.save_checkpoint();
  std::string bad_cp = live.checkpoint_image();
  bad_cp[0] = 'X';
  try {
    RuntimeHost::recover(small_opts(), bad_cp, live.journal_image());
    FAIL() << "corrupt checkpoint recovered";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), Errc::kBadCheckpoint);
  }
  try {
    RuntimeHost::recover(small_opts(), live.checkpoint_image(), "garbage!");
    FAIL() << "corrupt journal recovered";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), Errc::kBadJournal);
  }
}

// --- Journal record format ------------------------------------------------
// The record grammar (docs/ROBUSTNESS.md Section 10) is an on-disk
// format: these pin the exact payload bytes each journaled path writes.

std::vector<std::string> payloads(const RuntimeHost& h) {
  std::vector<std::string> out;
  for (const JournalRecord& r : h.journal().records_after(0)) {
    out.push_back(r.payload);
  }
  return out;
}

TEST(JournalFormat, DirectRecordPayloadsArePinned) {
  RuntimeHost h(small_opts());
  const ClassId org = h.add_class(
      kRootClass, ClassConfig::link_share_only(ServiceCurve::linear(mbps(8))));
  const ClassConfig leaf_cfg{ServiceCurve{mbps(2), msec(5), mbps(1)},
                             ServiceCurve::linear(mbps(2)),
                             ServiceCurve::linear(mbps(4))};
  const ClassId leaf = h.add_class(org, leaf_cfg);
  h.change_class(msec(3), leaf,
                 ClassConfig::both(ServiceCurve::linear(mbps(1))));
  h.set_queue_limit(leaf, 32);
  h.delete_class(leaf);
  EXPECT_EQ(payloads(h),
            (std::vector<std::string>{
                "add 0 0 0 0 1000000 0 1000000 0 0 0",
                "add 1 250000 5000000 125000 250000 0 250000 500000 0 500000",
                "chg 3000000 2 125000 0 125000 125000 0 125000 0 0 0",
                "qlim 2 32",
                "del 2",
            }));
}

TEST(JournalFormat, BatchRecordPayloadIsPinned) {
  RuntimeHost h(small_opts());
  const ClassId org = h.add_class(
      kRootClass, ClassConfig::link_share_only(ServiceCurve::linear(mbps(8))));
  const ClassId leaf = h.add_class(
      org, ClassConfig::link_share_only(ServiceCurve::linear(mbps(2))));
  using Kind = RuntimeHost::BatchOp::Kind;
  std::vector<RuntimeHost::BatchOp> batch(4);
  batch[0].kind = Kind::kAdd;
  batch[0].parent = org;
  batch[0].cfg = ClassConfig::link_share_only(ServiceCurve::linear(mbps(1)));
  batch[1].kind = Kind::kChange;
  batch[1].now = msec(4);
  batch[1].cls = leaf;
  batch[1].cfg = ClassConfig::both(ServiceCurve::linear(mbps(1)));
  batch[2].kind = Kind::kDelete;
  batch[2].cls = leaf;
  batch[3].kind = Kind::kQueueLimit;
  batch[3].cls = leaf + 1;  // the batch's own add
  batch[3].limit = 16;
  h.commit_batch(batch);
  const std::vector<std::string> p = payloads(h);
  ASSERT_EQ(p.size(), 3u);
  EXPECT_EQ(p[2],
            "txn 4\n"
            "add 1 0 0 0 125000 0 125000 0 0 0\n"
            "chg 4000000 2 125000 0 125000 125000 0 125000 0 0 0\n"
            "del 2\n"
            "qlim 3 16\n");
}

// A governor that climbs one level per 1 ms sample once a single bulk
// leaf queues 1500 B per sample with no service (1 at 3000 B, 2 at
// 4500 B, 3 at 6000 B).
RuntimeOptions ladder_opts() {
  RuntimeOptions o;
  o.link_rate = mbps(10);
  o.admission_rate = mbps(10);
  o.sample_interval = msec(1);
  GovernorConfig& g = o.governor;
  for (int i = 0; i < 3; ++i) {
    g.enter_backlog[i] = 2000 * static_cast<Bytes>(i + 1);
    g.exit_backlog[i] = 1000 * static_cast<Bytes>(i + 1);
  }
  g.class_threshold = 8000;  // flagged at >= 4000 B queued
  g.up_samples = 1;
  g.down_samples = 100;
  g.quarantine_after = 2;
  g.quarantine_qlimit = 4;
  g.headroom = 0.5;
  return o;
}

TEST(JournalFormat, GovernorRecordPayloadsArePinned) {
  const RuntimeOptions o = ladder_opts();
  RuntimeHost h(o);
  const ClassId bulk = h.add_class(
      kRootClass, ClassConfig::link_share_only(ServiceCurve::linear(mbps(5))));
  h.add_class(kRootClass, ClassConfig::both(ServiceCurve::linear(mbps(2))));
  // One 1500 B arrival per sample and no service: the backlog walks the
  // ladder one level per sample (1 at 3000 B, 2 at 4500 B, 3 at 6000 B).
  for (std::uint64_t k = 0; k < 4; ++k) {
    h.enqueue(msec(k), Packet{bulk, 1500, msec(k), k});
  }
  ASSERT_EQ(h.gov_level(), 3);
  const std::vector<std::string> p = payloads(h);
  ASSERT_EQ(p.size(), 5u);
  EXPECT_EQ(p[2],
            "gov 0\n"
            "gov-state 1\nlevel 1 0\nclamped 0\nquarantined 0\nend\n");
  EXPECT_EQ(p[3],
            "gov 1\n"
            "chg 2000000 1 0 0 0 156250 0 156250 0 0 0\n"
            "gov-state 1\nlevel 2 0\nclamped 1\n"
            "1 0 0 0 625000 0 625000 0 0 0\nquarantined 0\nend\n");
  EXPECT_EQ(p[4],
            "gov 2\n"
            "qlim 1 4\n"
            "adm 625000\n"
            "gov-state 1\nlevel 3 1\nclamped 1\n"
            "1 0 0 0 625000 0 625000 0 0 0\nquarantined 1\n1 0\nend\n");
  RuntimeHost back = RuntimeHost::recover(o, "", h.journal_image());
  EXPECT_EQ(back.governor().serialize(), h.governor().serialize());
  EXPECT_EQ(back.sched().queue_limit_of(bulk), 4u);
}

TEST(JournalFormat, GovRecordRejectsStructuralSubOps) {
  // A gov record may only re-shape (chg), re-limit (qlim) and retune
  // admission (adm); the other sub-ops and misplaced adm are malformed.
  const std::string blob = OverloadGovernor{GovernorConfig{}}.serialize();
  for (const std::string& bad :
       {"gov 1\nadd 0 0 0 0 125000 0 125000 0 0 0\n" + blob,
        "gov 1\ndel 1\n" + blob, std::string("txn 1\nadm 1000\n"),
        std::string("adm 1000")}) {
    RuntimeHost h(small_opts());
    h.add_class(kRootClass,
                ClassConfig::link_share_only(ServiceCurve::linear(mbps(1))));
    Journal j = Journal::parse(h.journal_image());
    j.append(bad);
    try {
      RuntimeHost::recover(small_opts(), "", j.image());
      FAIL() << "recovered a journal holding: " << bad;
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), Errc::kBadJournal) << bad;
    }
  }
}

TEST(RuntimeHost, BatchedDeleteForgetsGovernorState) {
  // The governor clamps and then quarantines the bulk leaf; a batch that
  // deletes it must drop both, live and on replay of its `txn` record.
  const RuntimeOptions o = ladder_opts();
  RuntimeHost h(o);
  const ClassId bulk = h.add_class(
      kRootClass, ClassConfig::link_share_only(ServiceCurve::linear(mbps(5))));
  h.add_class(kRootClass, ClassConfig::both(ServiceCurve::linear(mbps(2))));
  for (std::uint64_t k = 0; k < 4; ++k) {
    h.enqueue(msec(k), Packet{bulk, 1500, msec(k), k});
  }
  ASSERT_EQ(h.gov_level(), 3);
  ASSERT_EQ(h.governor().clamped().count(bulk), 1u);
  ASSERT_EQ(h.governor().quarantined().count(bulk), 1u);

  h.commit_batch({{.kind = ClassOp::Kind::kDelete, .cls = bulk}});
  EXPECT_TRUE(h.governor().clamped().empty());
  EXPECT_TRUE(h.governor().quarantined().empty());
  const AuditReport live = h.audit_runtime();
  EXPECT_TRUE(live.ok()) << live.to_string();

  // recover() audits what it rebuilt and throws kInvariantViolation on a
  // governor entry for a deleted class.
  RuntimeHost back = RuntimeHost::recover(o, "", h.journal_image());
  EXPECT_EQ(back.governor().serialize(), h.governor().serialize());
  EXPECT_TRUE(back.sched().is_deleted(bulk));

  // Relief unclamps nothing: the deleted leaf left the saved state with
  // its delete, not on the governor's way down.
  (void)h.drain_events();
  TimeNs now = msec(4);
  for (int k = 0; k < 400; ++k, now += msec(1)) (void)h.dequeue(now);
  EXPECT_EQ(h.gov_level(), 0);
  for (const GovEvent& e : h.drain_events()) {
    EXPECT_NE(e.kind, GovEventKind::kUnclamp) << e.to_string();
    EXPECT_NE(e.kind, GovEventKind::kRelease) << e.to_string();
  }
}

}  // namespace
}  // namespace hfsc
