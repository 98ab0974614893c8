#include "runtime/host.hpp"

#include <algorithm>
#include <iterator>
#include <sstream>

namespace hfsc {

namespace {

[[noreturn]] void bad_record(const std::string& payload) {
  throw Error(Errc::kBadJournal,
              "malformed journal record: '" + payload.substr(0, 48) + "'");
}

// The journal's op codec, shared by the direct, `txn` and `gov` records
// (the record grammar is stated once, in docs/ROBUSTNESS.md Section 10).
// put_op appends one op line without its terminator.
void put_op(std::string& out, const ClassOp& op) {
  auto num = [&out](std::uint64_t v) {
    out += ' ';
    out += std::to_string(v);
  };
  switch (op.kind) {
    case ClassOp::Kind::kAdd:
      out += "add";
      num(op.parent);
      out += ' ';
      put_config(out, op.cfg);
      return;
    case ClassOp::Kind::kChange:
      out += "chg";
      num(op.now);
      num(op.cls);
      out += ' ';
      put_config(out, op.cfg);
      return;
    case ClassOp::Kind::kDelete:
      out += "del";
      num(op.cls);
      return;
    case ClassOp::Kind::kQueueLimit:
      out += "qlim";
      num(op.cls);
      num(op.limit);
      return;
  }
}

// Reads the fields of the op whose tag was just read; an unknown tag or
// a short or malformed field list is Error{kBadJournal}.
ClassOp read_op(std::istream& in, const std::string& tag,
                const std::string& payload) {
  ClassOp op;
  bool ok = false;
  if (tag == "add") {
    op.kind = ClassOp::Kind::kAdd;
    ok = (in >> op.parent) && read_config(in, op.cfg);
  } else if (tag == "chg") {
    op.kind = ClassOp::Kind::kChange;
    ok = (in >> op.now >> op.cls) && read_config(in, op.cfg);
  } else if (tag == "del") {
    op.kind = ClassOp::Kind::kDelete;
    ok = static_cast<bool>(in >> op.cls);
  } else if (tag == "qlim") {
    op.kind = ClassOp::Kind::kQueueLimit;
    ok = static_cast<bool>(in >> op.cls >> op.limit);
  }
  if (!ok) bad_record(payload);
  return op;
}

bool live_leaf(const Hfsc& s, ClassId cls) {
  return cls != kRootClass && cls < s.num_classes() && !s.is_deleted(cls) &&
         s.is_leaf(cls);
}

}  // namespace

const char* to_string(CrashPoint p) noexcept {
  switch (p) {
    case CrashPoint::kNone: return "none";
    case CrashPoint::kAfterApply: return "after-apply";
    case CrashPoint::kAfterJournalAppend: return "after-journal-append";
    case CrashPoint::kBeforeCheckpoint: return "before-checkpoint";
    case CrashPoint::kAfterCheckpoint: return "after-checkpoint";
    case CrashPoint::kAfterCompact: return "after-compact";
  }
  return "?";
}

RuntimeHost::RuntimeHost(const RuntimeOptions& opts)
    : opts_(opts),
      sched_(opts.link_rate, opts.es_kind, opts.vt_policy),
      gov_(opts.governor) {
  if (opts_.admission_rate > 0) {
    sched_.enable_admission_control(opts_.admission_rate);
  }
  if (opts_.watchdog_horizon > 0) {
    sched_.enable_starvation_watchdog(opts_.watchdog_horizon);
  }
}

RuntimeHost::RuntimeHost(const RuntimeOptions& opts, Hfsc&& restored,
                         RecoverTag)
    : opts_(opts), sched_(std::move(restored)), gov_(opts.governor) {
  // Admission and watchdog configuration travel inside the checkpoint;
  // re-enabling them here would overwrite the recovered state.
}

// --- Journaled control plane -----------------------------------------------

ClassId RuntimeHost::apply(const ClassOp& op) {
  const ClassId id = sched_.apply(op);
  forget_deleted({&op, 1});
  return id;
}

void RuntimeHost::forget_deleted(std::span<const ClassOp> ops) {
  for (const ClassOp& op : ops) {
    if (op.kind != ClassOp::Kind::kDelete) continue;
    gov_.forget_clamp(op.cls);
    gov_.forget_quarantine(op.cls);
  }
}

ClassId RuntimeHost::journaled(const ClassOp& op) {
  const ClassId id = apply(op);
  std::string payload;
  put_op(payload, op);
  journal_append(payload);
  return id;
}

ClassId RuntimeHost::add_class(ClassId parent, ClassConfig cfg) {
  return journaled(
      {.kind = ClassOp::Kind::kAdd, .parent = parent, .cfg = cfg});
}

void RuntimeHost::change_class(TimeNs now, ClassId cls, ClassConfig cfg) {
  journaled(
      {.kind = ClassOp::Kind::kChange, .cls = cls, .cfg = cfg, .now = now});
}

void RuntimeHost::delete_class(ClassId cls) {
  journaled({.kind = ClassOp::Kind::kDelete, .cls = cls});
}

void RuntimeHost::set_queue_limit(ClassId cls, std::size_t max_packets) {
  journaled(
      {.kind = ClassOp::Kind::kQueueLimit, .cls = cls, .limit = max_packets});
}

void RuntimeHost::commit_batch(const std::vector<BatchOp>& ops) {
  Hfsc::Txn txn = sched_.begin();
  for (const ClassOp& op : ops) txn.stage(op);
  txn.commit();  // throws without journaling on a failed batch
  forget_deleted(ops);
  std::string payload = "txn " + std::to_string(ops.size()) + '\n';
  for (const ClassOp& op : ops) {
    put_op(payload, op);
    payload += '\n';
  }
  journal_append(payload);
}

// --- Data path ---------------------------------------------------------------

bool RuntimeHost::rt_leaf(ClassId cls) const {
  return live_leaf(sched_, cls) && !sched_.config_of(cls).rt.is_zero();
}

bool RuntimeHost::governable(ClassId cls) const {
  return live_leaf(sched_, cls) && sched_.config_of(cls).rt.is_zero();
}

void RuntimeHost::enqueue(TimeNs now, Packet pkt) {
  sched_.enqueue(now, pkt);
  if (!opts_.governor_enabled) return;
  if (gov_.level() >= 1 && pkt.cls != kRootClass &&
      pkt.cls < sched_.num_classes() &&
      gov_.should_push_out(sched_.queued_bytes(pkt.cls), rt_leaf(pkt.cls))) {
    // Early drop: push the arrival straight back out of the tail rather
    // than letting the class ride to its queue-limit cliff.
    if (sched_.drop_tail(pkt.cls)) gov_.count_push_out();
  }
  maybe_sample(now);
}

std::optional<Packet> RuntimeHost::dequeue(TimeNs now) {
  std::optional<Packet> p = sched_.dequeue(now);
  // Sampling on the dequeue path too lets the ladder decay while the
  // backlog drains with no fresh arrivals.
  if (opts_.governor_enabled) maybe_sample(now);
  return p;
}

std::uint64_t RuntimeHost::total_drops() const {
  std::uint64_t n = 0;
  for (ClassId c = 1; c < sched_.num_classes(); ++c) {
    n += sched_.packets_dropped(c);
  }
  return n;
}

void RuntimeHost::maybe_sample(TimeNs now) {
  if (replaying_ || now < next_sample_) return;
  next_sample_ = now + opts_.sample_interval;
  GovSignals sig;
  sig.backlog_bytes = sched_.backlog_bytes();
  sig.drops = total_drops();
  sig.starved_leaves = sched_.starvation_horizon() > 0
                           ? sched_.starved_classes(now).size()
                           : 0;
  const int prev_level = gov_.level();
  const GovActions actions = gov_.sample(sig, now, sched_);
  // Any level movement is durable governor state, so it is journaled
  // even when the plan carries no mutations.
  if (!actions.empty() || gov_.level() != prev_level) execute(actions, now);
}

bool RuntimeHost::retune_admission(RateBps rate) {
  if (rate == 0 || !sched_.admission_enabled()) return false;
  // Pre-check against a probe so enable_admission_control can never
  // throw (it would leave admission DISABLED on an infeasible
  // hierarchy, which is the opposite of tightening).
  AdmissionControl probe(rate);
  for (ClassId c = 1; c < sched_.num_classes(); ++c) {
    if (sched_.is_deleted(c) || !sched_.is_leaf(c)) continue;
    const ServiceCurve& rt = sched_.config_of(c).rt;
    if (rt.is_zero()) continue;
    if (!probe.admit(rt)) return false;
  }
  sched_.enable_admission_control(rate);
  return true;
}

void RuntimeHost::execute(const GovActions& actions, TimeNs now) {
  // The intervention's sub-op lines, each applied as it is written.
  std::string body;
  std::size_t n = 0;
  auto run = [&](const ClassOp& op) {
    sched_.apply(op);
    put_op(body, op);
    body += '\n';
    ++n;
  };
  auto retune = [&](RateBps rate, bool tightened) {
    if (!retune_admission(rate)) return;
    gov_.note_admission(tightened);
    body += "adm " + std::to_string(rate) + '\n';
    ++n;
  };

  for (const ClassId cls : actions.clamp) {
    if (!governable(cls)) continue;  // the rt invariant, enforced twice
    const ClassConfig original = sched_.config_of(cls);
    ClassConfig clamped = original;
    const double f = opts_.governor.clamp_fraction;
    clamped.ls.m1 = std::max<RateBps>(
        1, static_cast<RateBps>(static_cast<double>(original.ls.m1) * f));
    clamped.ls.m2 = std::max<RateBps>(
        1, static_cast<RateBps>(static_cast<double>(original.ls.m2) * f));
    run({.kind = ClassOp::Kind::kChange, .cls = cls, .cfg = clamped,
         .now = now});
    gov_.note_clamped(cls, original);
  }
  for (const ClassId cls : actions.unclamp) {
    const ClassConfig original = gov_.saved_config(cls);
    if (governable(cls)) {
      run({.kind = ClassOp::Kind::kChange, .cls = cls, .cfg = original,
           .now = now});
    }
    gov_.forget_clamp(cls);
  }
  for (const ClassId cls : actions.quarantine) {
    if (!governable(cls)) continue;
    const std::size_t saved = sched_.queue_limit_of(cls);
    run({.kind = ClassOp::Kind::kQueueLimit, .cls = cls,
         .limit = opts_.governor.quarantine_qlimit});
    gov_.note_quarantined(cls, saved);
  }
  for (const ClassId cls : actions.release) {
    const std::size_t saved = gov_.saved_qlimit(cls);
    if (governable(cls)) {
      run({.kind = ClassOp::Kind::kQueueLimit, .cls = cls, .limit = saved});
    }
    gov_.forget_quarantine(cls);
  }
  if (actions.tighten_admission) retune(tightened_rate(), true);
  if (actions.restore_admission) retune(opts_.admission_rate, false);

  // The whole intervention — mutations plus the governor state they
  // produced — is one atomic journal record: a crash can lose it
  // entirely (the governor re-detects after recovery) but can never
  // leave a clamp without the saved original needed to undo it.
  journal_append("gov " + std::to_string(n) + '\n' + body + gov_.serialize());
}

// --- Persistence -------------------------------------------------------------

void RuntimeHost::journal_append(const std::string& payload) {
  maybe_crash(CrashPoint::kAfterApply);
  journal_.append(payload);
  // An armed tear models a crash DURING this append: the write is
  // chopped and the sync below never happens, so the record is outside
  // the durable prefix whatever the policy.
  if (tear_bytes_ > 0) {
    const std::size_t n = tear_bytes_;
    tear_bytes_ = 0;
    journal_.tear_tail(n);
    throw CrashSignal{CrashPoint::kAfterJournalAppend};
  }
  if (opts_.sync_policy == SyncPolicy::kOnCommit) journal_.sync();
  maybe_crash(CrashPoint::kAfterJournalAppend);
}

void RuntimeHost::save_checkpoint() {
  maybe_crash(CrashPoint::kBeforeCheckpoint);
  // A snapshot must never reference journal state weaker than itself:
  // flush the WAL before writing the checkpoint, whatever the policy.
  journal_.sync();
  std::ostringstream os;
  const std::string ext = "jseq " + std::to_string(journal_.last_seq()) +
                          '\n' + gov_.serialize();
  checkpoint(sched_, os, ext);
  checkpoint_image_ = os.str();
  checkpoint_seq_ = journal_.last_seq();
  maybe_crash(CrashPoint::kAfterCheckpoint);
  journal_.compact(checkpoint_seq_);
  maybe_crash(CrashPoint::kAfterCompact);
}

void RuntimeHost::apply_record(const std::string& payload) {
  std::istringstream in(payload);
  std::string tag;
  if (!(in >> tag)) bad_record(payload);
  std::size_t n = 0;
  if (tag == "txn") {
    if (!(in >> n)) bad_record(payload);
    std::vector<ClassOp> ops;
    Hfsc::Txn txn = sched_.begin();
    for (std::size_t i = 0; i < n; ++i) {
      if (!(in >> tag)) bad_record(payload);
      ops.push_back(read_op(in, tag, payload));
      txn.stage(ops.back());
    }
    txn.commit();
    forget_deleted(ops);
  } else if (tag == "gov") {
    if (!(in >> n)) bad_record(payload);
    for (std::size_t i = 0; i < n; ++i) {
      if (!(in >> tag)) bad_record(payload);
      if (tag == "adm") {
        RateBps rate = 0;
        if (!(in >> rate)) bad_record(payload);
        sched_.enable_admission_control(rate);
        continue;
      }
      // The governor only re-shapes and re-limits leaves; a structural
      // sub-op in its record is malformed input.
      const ClassOp op = read_op(in, tag, payload);
      if (op.kind != ClassOp::Kind::kChange &&
          op.kind != ClassOp::Kind::kQueueLimit) {
        bad_record(payload);
      }
      sched_.apply(op);
    }
    gov_.restore(std::string{std::istreambuf_iterator<char>(in),
                             std::istreambuf_iterator<char>()});
  } else {
    apply(read_op(in, tag, payload));
  }
}

RuntimeHost RuntimeHost::recover(const RuntimeOptions& opts,
                                 const std::string& checkpoint_image,
                                 const std::string& journal_image) {
  Journal j = Journal::parse(journal_image);  // throws Error{kBadJournal}

  // An empty checkpoint image means never checkpointed: recovery is a
  // full journal replay onto a fresh scheduler built exactly like the
  // original was.
  std::uint64_t watermark = 0;
  RuntimeHost h = [&] {
    if (checkpoint_image.empty()) return RuntimeHost(opts);
    std::istringstream in(checkpoint_image);
    std::string ext;
    RuntimeHost restored(opts, restore_checkpoint(in, &ext), RecoverTag{});
    std::istringstream ei(ext);
    std::string tok;
    if (!(ei >> tok >> watermark) || tok != "jseq") {
      throw Error(Errc::kBadCheckpoint,
                  "runtime checkpoint ext is missing the journal watermark");
    }
    restored.gov_.restore(std::string{std::istreambuf_iterator<char>(ei),
                                      std::istreambuf_iterator<char>()});
    return restored;
  }();

  h.replaying_ = true;
  for (const JournalRecord& r : j.records_after(watermark)) {
    h.apply_record(r.payload);
  }
  h.replaying_ = false;
  h.journal_ = std::move(j);
  h.checkpoint_image_ = checkpoint_image;
  h.checkpoint_seq_ = watermark;

  const AuditReport rep = h.audit_runtime();
  if (!rep.ok()) {
    throw Error(Errc::kInvariantViolation,
                "recovered state fails the audit: " + rep.to_string());
  }
  return h;
}

AuditReport RuntimeHost::audit_runtime() const {
  AuditReport r = audit(sched_);
  auto fail = [&](const std::string& what) {
    r.failures.push_back("governor: " + what);
  };
  for (const auto& [cls, saved] : gov_.clamped()) {
    (void)saved;
    if (!governable(cls)) {
      fail("clamped class " + std::to_string(cls) +
           " is not a live non-rt leaf");
    }
  }
  for (const auto& [cls, saved] : gov_.quarantined()) {
    (void)saved;
    if (!governable(cls)) {
      fail("quarantined class " + std::to_string(cls) +
           " is not a live non-rt leaf");
    }
  }
  if (gov_.level() < 2 &&
      (!gov_.clamped().empty() || !gov_.quarantined().empty())) {
    fail("clamps or quarantines outlive degradation level 2");
  }
  if (opts_.admission_rate > 0 && sched_.admission_enabled()) {
    const RateBps want =
        gov_.admission_tightened() ? tightened_rate() : opts_.admission_rate;
    if (sched_.admission_control()->link_rate() != want) {
      fail("admission link rate disagrees with the governor's headroom "
           "state");
    }
  }
  return r;
}

}  // namespace hfsc
