// Hfsc::Txn — transactional live reconfiguration.
//
// A Txn records mutations without touching the scheduler.  commit()
// replays the whole batch onto a Shadow — a copy-on-write overlay of the
// hierarchy's structural model (parent links, rt curves, ls presence,
// child counts, backlog flags) that reads through to the live tree and
// stores only the classes the batch touches plus the classes it appends
// — enforcing exactly the rules the live mutators enforce.  With
// admission control on, the leaf rt curves the batch retires and
// activates (deletes, renegotiations, parents turning interior or back
// into leaves) are then applied to the live admission ledger as one
// delta and checked once; a rejection undoes the delta.  Only after
// every op validates does commit() apply the batch through the live
// mutators, so any hfsc::Error leaves the scheduler bit-for-bit
// untouched (tests/test_txn_atomicity_fuzz.cpp proves this by state
// digest over >= 10k failing batches).  A commit costs O(batch) overlay
// and ledger updates plus one O(D) feasibility check for D distinct rt
// knees, independent of the number of classes; only the rejection path
// scans the classes in id order, to name the offender.
//
// Ids for staged add_class calls are predicted: the live scheduler
// assigns ids densely (nodes are never erased from the vector, only
// tombstoned), so the k-th staged add gets num_classes() + k.  The
// prediction is checked at commit; direct adds made while the Txn was
// open make it stale and commit throws Error{kTxnInvalid}.

#include <unordered_map>
#include <utility>

#include "core/hfsc.hpp"

namespace hfsc {

struct Hfsc::Txn::Shadow {
  // What validation reads of a class: its rt curve (admission) and
  // whether it has an ls curve (interior classes need one).
  struct SNode {
    ClassId parent = kRootClass;
    ServiceCurve rt{};
    std::uint32_t children = 0;
    bool has_ls = false;
    bool deleted = false;
    bool backlogged = false;

    // The rt curve the admission check counts for this class, if any.
    const ServiceCurve* leaf_rt() const noexcept {
      return !deleted && children == 0 && !rt.is_zero() ? &rt : nullptr;
    }
  };

  const Hfsc& s;
  std::size_t base;                             // live nodes_.size()
  std::unordered_map<ClassId, SNode> touched;   // staged live classes
  std::vector<SNode> added;                     // ids base, base + 1, ...

  Shadow(const Hfsc& sched, std::size_t adds)
      : s(sched), base(sched.nodes_.size()) {
    added.reserve(adds);
  }

  SNode live_node(ClassId c) const {
    const Node& n = s.nodes_[c];
    return SNode{s.hot_[c].parent, n.cfg.rt,
                 static_cast<std::uint32_t>(n.children.size()),
                 s.hot_[c].has_ls(), n.deleted, s.queues_.has(c)};
  }
  std::size_t size() const noexcept { return base + added.size(); }
  // The class as the batch has left it so far (c < size()).
  SNode get(ClassId c) const {
    if (c >= base) return added[c - base];
    const auto it = touched.find(c);
    return it != touched.end() ? it->second : live_node(c);
  }
  // Copy-on-write access for a staged mutation (c < size()).
  SNode& mut(ClassId c) {
    if (c >= base) return added[c - base];
    auto it = touched.find(c);
    if (it == touched.end()) it = touched.emplace(c, live_node(c)).first;
    return it->second;
  }
  bool live(ClassId c) const {
    return c > 0 && c < size() && !get(c).deleted;
  }

  // Phase 2: swap the batch's retired leaf rt curves for its activated
  // ones in the live ledger and check the aggregate once.  On rejection
  // the ledger is restored and the first class (in id order) whose curve
  // pushes the running aggregate over the link is named.
  void admit(AdmissionControl& ac, std::uint64_t& rejections) const {
    swap(ac, /*forward=*/true);
    if (ac.fits()) return;
    swap(ac, /*forward=*/false);
    ++rejections;
    AdmissionControl scan(ac.link_rate());
    for (ClassId c = 1; c < size(); ++c) {
      const SNode sn = get(c);
      const ServiceCurve* rt = sn.leaf_rt();
      if (rt == nullptr || scan.admit(*rt)) continue;
      throw Error(Errc::kAdmissionRejected,
                  "committing this batch would put real-time curve " +
                      to_string(*rt) + " (class " + std::to_string(c) +
                      ") above the link curve; shrink the batch's rt "
                      "curves or raise the admission link rate");
    }
    throw Error(Errc::kInvariantViolation,
                "admission ledger rejected a batch whose classes fit");
  }
  // Replaces, in the ledger, each staged class's live leaf rt curve (if
  // any) with its final one (if any); forward = false undoes that.
  // Touched and appended classes are the only ones whose leaf rt curve
  // can differ from the live tree's.
  void swap(AdmissionControl& ac, bool forward) const {
    auto one = [&](const ServiceCurve* was, const ServiceCurve* now) {
      if (was && now && *was == *now) return;
      if (!forward) std::swap(was, now);
      if (was) ac.release(*was);
      if (now) ac.add(*now);
    };
    for (const auto& [c, sn] : touched) {
      if (c == kRootClass) continue;
      const SNode was = live_node(c);
      one(was.leaf_rt(), sn.leaf_rt());
    }
    for (const SNode& sn : added) one(nullptr, sn.leaf_rt());
  }
};

Hfsc::Txn::Txn(Hfsc& sched) : s_(&sched), base_classes_(sched.num_classes()) {}

Hfsc::Txn::~Txn() {
  if (open_) rollback();
}

Hfsc::Txn::Txn(Txn&& other) noexcept
    : s_(other.s_), ops_(std::move(other.ops_)),
      base_classes_(other.base_classes_), adds_(other.adds_),
      open_(other.open_) {
  other.open_ = false;
}

ClassId Hfsc::Txn::replay(Shadow& sh, const ClassOp& op) {
  switch (op.kind) {
    case ClassOp::Kind::kAdd: {
      ensure(op.parent < sh.size() &&
                 (op.parent == kRootClass || sh.live(op.parent)),
             Errc::kInvalidClass, "unknown or deleted parent class");
      const Shadow::SNode parent = sh.get(op.parent);
      ensure(!parent.backlogged, Errc::kHasBacklog,
             "cannot add children under a class that queues packets");
      ensure(op.parent == kRootClass || parent.has_ls, Errc::kMissingCurve,
             "interior classes need a link-sharing curve");
      check_config(op.cfg, /*leaf=*/true);
      sh.added.push_back(Shadow::SNode{op.parent, op.cfg.rt, 0,
                                       !op.cfg.ls.is_zero(), false, false});
      ++sh.mut(op.parent).children;
      return static_cast<ClassId>(sh.size() - 1);
    }
    case ClassOp::Kind::kChange: {
      ensure(sh.live(op.cls), Errc::kInvalidClass, "unknown or deleted class");
      Shadow::SNode& sn = sh.mut(op.cls);
      check_config(op.cfg, /*leaf=*/sn.children == 0);
      sn.rt = op.cfg.rt;
      sn.has_ls = !op.cfg.ls.is_zero();
      return op.cls;
    }
    case ClassOp::Kind::kDelete: {
      ensure(sh.live(op.cls), Errc::kInvalidClass, "unknown or deleted class");
      Shadow::SNode& sn = sh.mut(op.cls);
      ensure(sn.children == 0, Errc::kHasChildren, "delete children first");
      sn.deleted = true;
      sn.backlogged = false;
      const ClassId parent = sn.parent;
      --sh.mut(parent).children;
      return op.cls;
    }
    case ClassOp::Kind::kQueueLimit: {
      ensure(sh.live(op.cls), Errc::kInvalidClass, "unknown or deleted class");
      return op.cls;
    }
  }
  throw Error(Errc::kTxnInvalid, "corrupt staged op");
}

ClassId Hfsc::Txn::stage(const ClassOp& op) {
  ensure(open_, Errc::kTxnInvalid, "transaction already closed");
  ops_.push_back(op);
  return op.kind == ClassOp::Kind::kAdd
             ? static_cast<ClassId>(base_classes_ + adds_++)
             : op.cls;
}

std::size_t Hfsc::Txn::num_ops() const noexcept { return ops_.size(); }

void Hfsc::Txn::rollback() noexcept {
  ops_.clear();
  adds_ = 0;
  open_ = false;
}

void Hfsc::Txn::commit() {
  ensure(open_, Errc::kTxnInvalid, "transaction already closed");
  ensure(s_->num_classes() == base_classes_ || adds_ == 0, Errc::kTxnInvalid,
         "classes were added outside the transaction since begin(); the "
         "staged ids are stale — rollback and re-stage");

  // Phase 1: validate the whole batch against an overlay of the live
  // tree.  Any throw here (or in the admission check below) leaves the
  // scheduler untouched and the transaction open.
  Shadow sh(*s_, adds_);
  for (const ClassOp& op : ops_) replay(sh, op);

  // Phase 2: admission over the final state — the sum of the surviving
  // leaves' rt curves must stay below the link curve (Section II).  On
  // success the live ledger already holds the final state's curves.
  if (s_->admission_) sh.admit(*s_->admission_, s_->admission_rejections_);

  // Phase 3: apply.  Validation mirrored every rule the live mutators
  // enforce, so none of these calls can throw; per-op admission gating
  // and self-checks are suspended for the batch (the final state was
  // validated above, and intermediate states are transient).
  s_->in_txn_apply_ = true;
  try {
    for (const ClassOp& op : ops_) s_->apply(op);
  } catch (...) {
    s_->in_txn_apply_ = false;
    throw;  // unreachable unless the scheduler was already corrupt
  }
  s_->in_txn_apply_ = false;
  open_ = false;
  ops_.clear();
  adds_ = 0;
  s_->maybe_self_check();
}

}  // namespace hfsc
