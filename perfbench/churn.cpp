// ctl_churn_4k: the control plane, single thread, through RuntimeHost.
//
// Admission on, SyncPolicy::kOnCommit, a 16-tenant 4,096-leaf base
// hierarchy loaded in one commit_batch.  Every millisecond of simulated
// time carries light data traffic (about half the link) followed by one
// seeded commit_batch: a call set-up (add an rt leaf), a renegotiation
// (change_class), queue limits, or a teardown.  Every 64th batch is a
// flash crowd that admission must reject.  A checkpoint is saved every
// 32 steps; every 128 steps a maintenance window saves a checkpoint,
// commits the next 8 batches back to back and recovers from (checkpoint
// image, durable journal image), which must reproduce the live digest.
#include <fstream>
#include <optional>
#include <sstream>

#include "core/checkpoint.hpp"
#include "runtime/host.hpp"
#include "workloads.hpp"

namespace pb {

namespace {

LayoutParams churn_params(bool quick) {
  LayoutParams p;
  p.fanout = quick ? std::vector<int>{4, 64} : std::vector<int>{16, 256};
  p.link = hfsc::gbps(1);
  p.rt_every = 8;
  p.rt_load = 0.1;
  p.total_load = 0.5;
  p.ul_caps = false;
  p.qlimit = 128;
  return p;
}

constexpr TimeNs kStep = hfsc::msec(1);
constexpr int kSetupRuns = 31;  // set-up repetitions; setup_s is their median
constexpr std::uint64_t kCheckpointEvery = 32;
constexpr std::uint64_t kRecoverEvery = 128;
constexpr std::uint64_t kRecoverAt = 64;   // step within the period
constexpr int kWindowBatches = 8;          // batches in a maintenance window
constexpr std::uint64_t kTraceBlock = 128;  // steps per traced/untraced block
std::uint64_t prefix_steps(bool quick) { return quick ? 256 : 4096; }

// The base hierarchy as one batch: every class, then the queue limits.
CtlBatch base_batch(const Layout& L) {
  CtlBatch b;
  for (const ClassDef& c : L.classes) {
    CtlOp op;
    op.kind = CtlOp::Kind::kAdd;
    op.parent = c.parent < 0 ? 0 : static_cast<std::uint32_t>(c.parent + 1);
    op.cfg = c.cfg;
    b.ops.push_back(op);
  }
  for (std::size_t i = 0; i < L.classes.size(); ++i) {
    if (L.classes[i].qlimit == 0) continue;
    CtlOp op;
    op.kind = CtlOp::Kind::kQueueLimit;
    op.cls = static_cast<std::uint32_t>(i + 1);
    op.limit = L.classes[i].qlimit;
    b.ops.push_back(op);
  }
  return b;
}

std::vector<hfsc::RuntimeHost::BatchOp> host_ops(const CtlBatch& b, TimeNs now) {
  using K = hfsc::RuntimeHost::BatchOp::Kind;
  std::vector<hfsc::RuntimeHost::BatchOp> out;
  for (const CtlOp& op : b.ops) {
    hfsc::RuntimeHost::BatchOp x;
    switch (op.kind) {
      case CtlOp::Kind::kAdd: x.kind = K::kAdd; x.parent = op.parent; x.cfg = op.cfg; break;
      case CtlOp::Kind::kChange: x.kind = K::kChange; x.cls = op.cls; x.cfg = op.cfg; break;
      case CtlOp::Kind::kDelete: x.kind = K::kDelete; x.cls = op.cls; break;
      case CtlOp::Kind::kQueueLimit: x.kind = K::kQueueLimit; x.cls = op.cls; x.limit = op.limit; break;
    }
    x.now = now;
    out.push_back(x);
  }
  return out;
}

// Applies a batch through a bare Hfsc::Txn (the traced run's twin).
void txn_commit(hfsc::Hfsc& s, const CtlBatch& b, TimeNs now) {
  hfsc::Hfsc::Txn t = s.begin();
  for (const CtlOp& op : b.ops) {
    switch (op.kind) {
      case CtlOp::Kind::kAdd: t.add_class(op.parent, op.cfg); break;
      case CtlOp::Kind::kChange: t.change_class(now, op.cls, op.cfg); break;
      case CtlOp::Kind::kDelete: t.delete_class(op.cls); break;
      case CtlOp::Kind::kQueueLimit: t.set_queue_limit(op.cls, op.limit); break;
    }
  }
  t.commit();
}

// The seeded step sequence: each step's arrivals and its batch(es).
// Call sources start and stop only when their batch commits.
class Steps {
 public:
  Steps(const Layout& L, std::uint64_t seed) : gen_(L, seed), plan_(L, seed) {}

  // Generates step k's arrivals (before its end instant).
  const std::vector<Arrival>& arrivals(std::uint64_t k) {
    arr_.clear();
    gen_.fill_until(arr_, (k + 1) * kStep);
    return arr_;
  }
  CtlBatch batch() { return plan_.next(); }
  std::uint64_t batches() const noexcept { return plan_.batches(); }

  // A committed batch: stop and (re)start its call sources at `now`.
  void committed(const CtlBatch& b, TimeNs now, RtDelays& rt, TimeNs lmax) {
    for (std::uint32_t c : b.stop_calls) {
      gen_.remove_rt_source(c);
      rt.unwatch(c);
    }
    for (const auto& [c, q] : b.start_calls) {
      gen_.add_rt_source(c, q.u, q.r, now);
      const bool renegotiated =
          std::find(b.stop_calls.begin(), b.stop_calls.end(), c) != b.stop_calls.end();
      // A renegotiated call's queued packets were admitted under its old
      // curve: record its delays without the Theorem 2 bound.
      rt.watch(c, renegotiated ? 0 : q.d + lmax + kRoundingSlack);
    }
  }

 private:
  TrafficGen gen_;
  ChurnPlan plan_;
  std::vector<Arrival> arr_;
};

void watch_base(const Layout& L, RtDelays& rt, TimeNs lmax) {
  for (std::uint32_t cls : L.rt_leaves) {
    rt.watch(cls, L.classes[cls - 1].req.d + lmax + kRoundingSlack);
  }
}

}  // namespace

std::uint64_t churn_inputs(std::uint64_t seed, bool quick) {
  const Layout L = make_layout(churn_params(quick), seed);
  Steps st(L, seed);
  RtDelays rt;
  std::uint64_t h = 1469598103934665603ULL;
  for (std::uint64_t k = 0; k < 256; ++k) {
    const std::vector<Arrival>& a = st.arrivals(k);
    h = fnv1a(a.data(), a.size() * sizeof(Arrival), h);
    const CtlBatch b = st.batch();
    for (const CtlOp& op : b.ops) {
      h = fnv1a(&op.kind, sizeof op.kind, h);
      h = fnv1a(&op.parent, sizeof op.parent, h);
      h = fnv1a(&op.cls, sizeof op.cls, h);
      h = fnv1a(&op.cfg, sizeof op.cfg, h);
      h = fnv1a(&op.limit, sizeof op.limit, h);
    }
    if (!b.expect_reject) st.committed(b, (k + 1) * kStep, rt, 0);
  }
  return h;
}

Result run_churn(const Options& o) {
  Result R;
  const Layout L = make_layout(churn_params(o.quick), o.seed);
  const TimeNs lmax = lmax_time(L.link);
  const std::uint64_t prefix = prefix_steps(o.quick);
  hfsc::RuntimeOptions ro;
  ro.link_rate = L.link;
  ro.admission_rate = L.link;
  ro.sync_policy = hfsc::SyncPolicy::kOnCommit;
  const CtlBatch base = base_batch(L);

  // Set-up: the base hierarchy in one commit, kSetupRuns times.
  std::optional<hfsc::RuntimeHost> host;
  AtRefSpeed setup;
  for (int k = 0; k < kSetupRuns; ++k) {
    host.reset();
    const std::vector<hfsc::RuntimeHost::BatchOp> ops = host_ops(base, 0);
    setup.probe();
    const std::uint64_t t0 = now_ns();
    host.emplace(ro);
    host->commit_batch(ops);
    setup.time(static_cast<double>(now_ns() - t0) / 1e9);
  }
  R.ops(1);
  setup.report(R, "setup_s", "s");

  SpanRecorder rec;
  const std::uint32_t commit_name = rec.intern("runtime.host.commit_batch");
  const std::uint32_t ckpt_name = rec.intern("runtime.host.save_checkpoint");
  const std::uint32_t recover_name = rec.intern("runtime.host.recover");
  const std::uint32_t txn_name = rec.intern("core.txn_commit");
  const std::uint32_t step_name = rec.intern("churn.step");

  // The run is a sequence of identical episodes of `prefix` steps, each
  // from a freshly loaded base hierarchy, so the class count (and with
  // it the commit cost) stays the same however long the run is.  Every
  // episode must end in the first one's digest.
  std::optional<Steps> st;
  std::optional<Link<hfsc::RuntimeHost>> link;
  RtDelays rt;  // first episode only
  watch_base(L, rt, lmax);
  auto observe = [&](const hfsc::Packet& p, TimeNs s, TimeNs e) { rt.on_departure(p, s, e); };
  auto ignore = [](const hfsc::Packet&, TimeNs, TimeNs) {};

  // The traced run's bare twin: the same steps on an Hfsc driven through
  // Hfsc::Txn, interleaved step by step with the host.
  std::optional<hfsc::Hfsc> twin;
  std::optional<Steps> st2;
  std::optional<Link<hfsc::Hfsc>> tlink;
  RtDelays rt2;
  auto start_episode = [&] {
    if (link) R.ops(link->offered());
    link.reset();
    host.reset();
    host.emplace(ro);
    host->commit_batch(host_ops(base, 0));
    st.emplace(L, o.seed);
    link.emplace(*host, L.link);
    if (!o.trace) return;
    tlink.reset();
    twin.reset();
    twin.emplace(L.link);
    twin->enable_admission_control(L.link);
    txn_commit(*twin, base, 0);
    st2.emplace(L, o.seed);
    tlink.emplace(*twin, L.link);
  };
  start_episode();

  Samples commit_us, ckpt_ms, recover_ms, journal_bytes, replayed;
  Samples txn_us, core_ckpt_ms, core_restore_ms, ckpt_bytes;
  std::uint64_t commits = 0, rejections = 0, gov_events = 0;
  std::uint64_t first_digest = 0;
  int gov_max = 0;
  std::uint32_t step_span = 0;  // parent of the control-plane spans
  bool traced = false;

  // Commits one batch at `now`; source bookkeeping time goes into gen_ns.
  auto commit = [&](const CtlBatch& b, TimeNs now, std::uint64_t& gen_ns) {
    const std::vector<hfsc::RuntimeHost::BatchOp> ops = host_ops(b, now);
    const std::size_t jbytes = host->journal_image().size();
    bool ok = true;
    const std::uint64_t t0 = now_ns();
    try {
      host->commit_batch(ops);
    } catch (const hfsc::Error& e) {
      ok = false;
      if (!b.expect_reject || e.code() != hfsc::Errc::kAdmissionRejected) {
        R.fail(std::string("churn: commit failed: ") + e.what());
      }
    }
    const std::uint64_t t1 = now_ns();
    if (traced) rec.add(commit_name, step_span, t0, t1, commits);
    ++commits;
    commit_us.add(static_cast<double>(t1 - t0) / 1e3);
    R.ops(1);
    if (!ok) {
      ++rejections;
      return;
    }
    if (b.expect_reject) R.fail("churn: admission accepted an infeasible flash crowd");
    journal_bytes.add(static_cast<double>(host->journal_image().size() - jbytes));
    const std::uint64_t g0 = now_ns();
    st->committed(b, now, rt, lmax);
    gen_ns += now_ns() - g0;
  };
  auto checkpoint_now = [&] {
    const std::uint64_t t0 = now_ns();
    host->save_checkpoint();
    const std::uint64_t t1 = now_ns();
    if (traced) rec.add(ckpt_name, step_span, t0, t1, commits);
    ckpt_ms.add(static_cast<double>(t1 - t0) / 1e6);
  };
  auto twin_commit = [&](const CtlBatch& b, TimeNs now) {
    bool ok = true;
    const std::uint64_t t0 = now_ns();
    try {
      txn_commit(*twin, b, now);
    } catch (const hfsc::Error&) {
      ok = false;
    }
    const std::uint64_t t1 = now_ns();
    rec.add(txn_name, 0, t0, t1, txn_us.size());
    txn_us.add(static_cast<double>(t1 - t0) / 1e3);
    if (ok) st2->committed(b, now, rt2, lmax);
  };
  auto twin_checkpoint = [&] {
    std::ostringstream out;
    const std::uint64_t t0 = now_ns();
    hfsc::checkpoint(*twin, out);
    const std::uint64_t t1 = now_ns();
    core_ckpt_ms.add(static_cast<double>(t1 - t0) / 1e6);
    const std::string img = out.str();
    ckpt_bytes.add(static_cast<double>(img.size()));
    std::istringstream in(img);
    const std::uint64_t r0 = now_ns();
    const hfsc::Hfsc back = hfsc::restore_checkpoint(in);
    core_restore_ms.add(static_cast<double>(now_ns() - r0) / 1e6);
    R.check(hfsc::state_digest(back) == hfsc::state_digest(*twin),
            "churn twin: restored checkpoint differs from the live core");
  };
  auto next_batches = [](Steps& s, bool maintenance) {
    std::vector<CtlBatch> out;
    for (int b = 0; b < (maintenance ? kWindowBatches : 1); ++b) out.push_back(s.batch());
    return out;
  };

  // The traced run gives the host half the budget; the twin takes the
  // other half.
  const double budget_ns = o.seconds * 1e9 * (o.trace ? 0.5 : 1.0);
  double timed_ns = 0;
  Samples plain_step, traced_step;
  AtRefSpeed block_rate;  // departures per second, per block of steps
  double block_ns = 0;
  std::uint64_t block_dep = 0;
  double rss_mb = 0;
  std::uint64_t k = 0;
  for (;; ++k) {
    const std::uint64_t j = k % prefix;  // step within the episode
    if (j == 0 && k > 0) {
      start_episode();
      rejections = 0;
    }
    if (k % kTraceBlock == 0) {
      traced = o.trace && (k / kTraceBlock) % 2 == 1;
      block_ns = 0;
      block_dep = link->departures();
      block_rate.probe();
    }
    const bool maintenance = j % kRecoverEvery == kRecoverAt;
    const TimeNs end = (j + 1) * kStep;
    const std::vector<Arrival>& arr = st->arrivals(j);
    const std::vector<CtlBatch> batches = next_batches(*st, maintenance);

    const std::uint64_t t0 = now_ns();
    std::uint64_t gen_ns = 0;  // generator bookkeeping inside the step
    if (traced) step_span = rec.open(step_name, 0, t0, k);
    if (k < prefix) {
      for (const Arrival& a : arr) link->arrive(a, link->offered(), observe);
      link->serve_before(end, observe);
    } else {
      for (const Arrival& a : arr) link->arrive(a, link->offered(), ignore);
      link->serve_before(end, ignore);
    }
    if (maintenance) {
      checkpoint_now();
      for (const CtlBatch& b : batches) commit(b, end, gen_ns);
      const std::string ckpt = host->checkpoint_image();
      const std::string journal = host->durable_journal_image();
      const std::uint64_t r0 = now_ns();
      const hfsc::RuntimeHost back = hfsc::RuntimeHost::recover(ro, ckpt, journal);
      const std::uint64_t r1 = now_ns();
      if (traced) rec.add(recover_name, step_span, r0, r1, commits);
      recover_ms.add(static_cast<double>(r1 - r0) / 1e6);
      replayed.add(static_cast<double>(host->journal().num_records()));
      R.check(back.digest() == host->digest(),
              "churn: recovered digest differs from the live one at step " + std::to_string(k));
    } else {
      commit(batches.front(), end, gen_ns);
      if (j % kCheckpointEvery == kCheckpointEvery - 1) checkpoint_now();
    }
    gov_max = std::max(gov_max, host->gov_level());
    gov_events += host->drain_events().size();
    const std::uint64_t t1 = now_ns();
    if (traced) rec.close(step_span, t1);
    const double step_ns = static_cast<double>(t1 - t0 - gen_ns);
    timed_ns += step_ns;
    block_ns += step_ns;

    if (twin) {
      const std::vector<Arrival>& arr2 = st2->arrivals(j);
      const std::vector<CtlBatch> batches2 = next_batches(*st2, maintenance);
      for (const Arrival& a : arr2) tlink->arrive(a, tlink->offered(), ignore);
      tlink->serve_before(end, ignore);
      if (maintenance) {
        twin_checkpoint();
        for (const CtlBatch& b : batches2) twin_commit(b, end);
      } else {
        twin_commit(batches2.front(), end);
        if (j % kCheckpointEvery == kCheckpointEvery - 1) twin_checkpoint();
      }
      if (k + 1 == prefix) {
        R.check(hfsc::state_digest(*twin) == host->digest(),
                "churn: RuntimeHost and the bare core made different decisions");
      }
    }

    if (k % kTraceBlock == kTraceBlock - 1) {
      (traced ? traced_step : plain_step).add(block_ns / kTraceBlock);
      block_rate.rate(static_cast<double>(link->departures() - block_dep) / (block_ns / 1e9));
    }
    if (j + 1 == prefix) {
      const hfsc::Hfsc& s = host->sched();
      const std::uint64_t digest = host->digest();
      if (k + 1 == prefix) {
        // Peak memory of set-up plus the first episode.  Later episodes
        // raise the peak by a few percent, so a faster run, which
        // completes more of them, would read higher.
        rss_mb = peak_rss_mb();
        first_digest = digest;
        R.fp("digest", digest);
        R.fp("departures", link->departures());
        R.fp("drops", total_drops(s));
        R.fp("admission_rejections", s.admission_rejections());
        R.fp("rejected_batches", rejections);
        R.fp("gov_events", gov_events);
        R.fp("journal_seq", host->journal().last_seq());
      }
      R.check(digest == first_digest, "churn: a repeated episode ended in another state");
      R.check(conserved(s, link->offered(), link->departures()),
              "churn: conservation broken at an episode end");
      R.check(rejections == st->batches() / 64,
              "churn: admission verdicts differ from the plan's");
    }
    if (k + 1 >= prefix && k % kTraceBlock == kTraceBlock - 1 && timed_ns >= budget_ns) break;
  }
  R.ops(link->offered());
  block_rate.report(R, "pkts_per_s", "pkt/s");
  const hfsc::Hfsc& s = host->sched();
  R.check(conserved(s, link->offered(), link->departures()),
          "churn: conservation broken at run end");
  const hfsc::AuditReport audit = host->audit_runtime();
  R.check(audit.ok(), "churn: audit: " + audit.to_string());
  R.check(rejections == st->batches() / 64, "churn: admission verdicts differ from the plan's");
  R.check(rt.violations() == 0,
          "churn: " + std::to_string(rt.violations()) + " rt packets over their Theorem 2 bound");
  R.check(!rt.delays_ms().empty(), "churn: no rt packet was transmitted");
  R.metric("rt_delay_p99_ms", percentile(rt.delays_ms(), 0.99), "ms");
  R.samples["rt_delay_p99_ms"] = rt.delays_ms().size();
  R.metric("rss_mb", rss_mb, "MB");
  if (!o.trace) return R;

  R.ops(tlink->offered() + txn_us.size());
  const double host_commit = commit_us.p(0.5);
  const double core_commit = txn_us.p(0.5);
  R.metric("runtime.host.commit_us_p50", host_commit, "us");
  R.metric("runtime.host.commit_us_p99", commit_us.p(0.99), "us");
  R.samples["runtime.host.commit_us"] = commit_us.size();
  R.metric("core.txn_commit_us", core_commit, "us");
  R.samples["core.txn_commit_us"] = txn_us.size();
  R.metric("runtime.host.commit_self_us", host_commit - core_commit, "us");
  R.metric("runtime.host.checkpoint_ms", ckpt_ms.p(0.5), "ms");
  R.metric("runtime.host.recover_ms", recover_ms.p(0.5), "ms");
  R.samples["runtime.host.recover_ms"] = recover_ms.size();
  R.metric("core.checkpoint_ms", core_ckpt_ms.p(0.5), "ms");
  R.metric("core.restore_ms", core_restore_ms.p(0.5), "ms");
  R.metric("core.checkpoint_bytes", ckpt_bytes.p(0.5), "B");
  R.metric("runtime.host.replay_ms", recover_ms.p(0.5) - core_restore_ms.p(0.5), "ms");
  R.metric("runtime.journal.bytes_per_commit", journal_bytes.p(0.5), "B");
  R.metric("runtime.journal.records_replayed", replayed.p(0.5), "count");
  R.metric("runtime.governor.level_max", gov_max, "count");
  R.metric("runtime.governor.events", static_cast<double>(gov_events), "count");
  R.metric("core.rt_delay_p99_ms", percentile(rt.delays_ms(), 0.99), "ms");
  // A traced step's self time is its time outside commit_batch,
  // save_checkpoint and recover: the data path and the link (with the
  // source bookkeeping, which the timed phase excludes).
  const SpanTotals steps = totals_by_name(rec)["churn.step"];
  R.metric("runtime.host.ctl_share",
           steps.total_ns ? 1 - static_cast<double>(steps.self_ns) /
                                    static_cast<double>(steps.total_ns)
                          : 0,
           "1");
  const double plain = plain_step.p(0.5), tr = traced_step.p(0.5);
  R.metric("trace.overhead_ratio", plain > 0 ? tr / plain - 1 : 0, "1");
  R.metric("trace.spans", static_cast<double>(rec.spans().size()), "count");
  if (!o.trace_out.empty()) {
    std::ofstream out(o.trace_out);
    rec.write(out);
  }
  return R;
}

}  // namespace pb
