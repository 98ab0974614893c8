// Differential fuzzing of the exact admission ledger
// (curve/piecewise.hpp AdmissionControl) and of Hfsc::Txn's delta
// admission (core/txn.cpp).
//
//  1. Ledger: random supported two-piece curves — concave, m1 = 0
//     convex, linear, on shared and distinct knees, with values large
//     enough to need 128-bit products — admitted in shuffled orders give
//     equal ledgers; fits() equals a brute-force 128-bit evaluation of
//     sum_i S_i(t) <= C * t at every knee plus the tail slope, down to
//     the tightest link that fits; admitting
//     one at a time succeeds throughout exactly when the whole set fits;
//     and admit/release cycles return to the empty ledger.
//
//  2. Txn: random batches (adds, renegotiations, deletes, queue limits,
//     leaf <-> interior transitions) are committed on a live scheduler
//     with admission on and, for reference, on a clone restored from its
//     checkpoint with admission off.  The live verdict must equal a
//     from-scratch brute-force check of the clone's final leaf rt curves;
//     a rejected batch must leave state_digest untouched; an accepted one
//     must leave the live scheduler equal to the clone; audit() stays
//     clean throughout.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <sstream>
#include <vector>

#include "core/auditor.hpp"
#include "core/checkpoint.hpp"
#include "core/hfsc.hpp"
#include "curve/piecewise.hpp"
#include "util/rng.hpp"

namespace hfsc {
namespace {

using u128 = unsigned __int128;

// S(t) in nanobytes (bytes * 1e9), exactly: m1 * min(t, d) + m2 * the rest.
u128 exact_nb(const ServiceCurve& sc, TimeNs t) {
  const TimeNs head = t < sc.d ? t : sc.d;
  return static_cast<u128>(sc.m1) * head +
         static_cast<u128>(sc.m2) * (t - head);
}

// Section II's condition by brute force: the aggregate minus C * t is
// piecewise linear with breakpoints at the knees, so it is checked at
// every curve's knee and on the tail slope.
bool brute_fits(const std::vector<ServiceCurve>& cs, RateBps link) {
  u128 tail = 0;
  for (const ServiceCurve& sc : cs) tail += sc.m2;
  if (tail > link) return false;
  for (const ServiceCurve& knee : cs) {
    u128 sum = 0;
    for (const ServiceCurve& sc : cs) sum += exact_nb(sc, knee.d);
    if (sum > static_cast<u128>(link) * knee.d) return false;
  }
  return true;
}

// The smallest link rate brute_fits accepts: the tail sum or the
// steepest average slope A(d) / d up to some knee, rounded up.
RateBps tightest_link(const std::vector<ServiceCurve>& cs) {
  u128 need = 0;
  for (const ServiceCurve& sc : cs) need += sc.m2;
  for (const ServiceCurve& knee : cs) {
    if (knee.d == 0) continue;
    u128 sum = 0;
    for (const ServiceCurve& sc : cs) sum += exact_nb(sc, knee.d);
    need = std::max(need, (sum + knee.d - 1) / knee.d);
  }
  return static_cast<RateBps>(need);
}

template <typename T>
void shuffle(std::vector<T>& v, Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.uniform(0, i - 1)]);
  }
}

// A random supported curve whose long-term rate averages `mean_rate`.
// Knees come from a small shared pool half the time so curves collide on
// them; `big` draws knees up to ~2^40 ns so products overflow 64 bits.
ServiceCurve random_curve(Rng& rng, RateBps mean_rate, bool big) {
  static constexpr TimeNs kPool[] = {msec(1), msec(5), msec(20), msec(50)};
  const TimeNs d = rng.chance(0.5)
                       ? kPool[rng.uniform(0, 3)]
                       : rng.uniform(1, big ? (TimeNs{1} << 40) : sec(1));
  const RateBps r = rng.uniform(1, 2 * mean_rate);
  switch (rng.uniform(0, 3)) {
    case 0:
      return ServiceCurve::linear(r);
    case 1:
      return ServiceCurve{r, d, r};  // linear, written with a knee
    case 2:
      return ServiceCurve{0, d, r};  // convex, m1 = 0
    default:
      return ServiceCurve{r + rng.uniform(1, 3 * mean_rate), d,
                          rng.chance(0.1) ? 0 : r};  // concave
  }
}

TEST(AdmissionLedgerFuzz, ExactOrderIndependentAndReversible) {
  Rng rng(0x1ED6E4);
  int fit = 0, unfit = 0;
  for (int iter = 0; iter < 2000; ++iter) {
    const bool big = iter % 4 == 0;
    const RateBps link = rng.uniform(mbps(1), gbps(10));
    const std::size_t n = rng.uniform(1, 16);
    std::vector<ServiceCurve> cs;
    for (std::size_t i = 0; i < n; ++i) {
      cs.push_back(random_curve(rng, link / n, big));
    }
    const bool expect = brute_fits(cs, link);
    (expect ? fit : unfit) += 1;

    AdmissionControl ref(link);
    for (const ServiceCurve& sc : cs) ref.add(sc);
    ASSERT_EQ(ref.fits(), expect) << "iter " << iter;
    ASSERT_EQ(ref.admitted(), n);

    // At the boundary: the tightest link fits (equality allowed, at a
    // knee or on the tail) and one byte per second less does not.
    const RateBps tight = tightest_link(cs);
    if (tight > 1) {
      AdmissionControl at(tight), below(tight - 1);
      for (const ServiceCurve& sc : cs) {
        at.add(sc);
        below.add(sc);
      }
      ASSERT_TRUE(at.fits()) << "iter " << iter;
      ASSERT_FALSE(below.fits()) << "iter " << iter;
    }

    for (int order = 0; order < 3; ++order) {
      std::vector<ServiceCurve> perm = cs;
      shuffle(perm, rng);
      AdmissionControl other(link);
      for (const ServiceCurve& sc : perm) other.add(sc);
      ASSERT_TRUE(other == ref) << "iter " << iter << ": order-dependent";

      // Admitting one at a time: every admit succeeds iff the set fits
      // (the aggregate only grows, so a failing prefix means a failing
      // whole), and a refused admit changes nothing.
      AdmissionControl seq(link);
      bool all = true;
      for (const ServiceCurve& sc : perm) {
        const AdmissionControl before = seq;
        if (!seq.admit(sc)) {
          all = false;
          ASSERT_TRUE(seq == before) << "iter " << iter;
        }
        ASSERT_TRUE(seq.fits()) << "iter " << iter;
      }
      ASSERT_EQ(all, expect) << "iter " << iter;

      // Release in yet another order back to the empty ledger, checking
      // the remaining prefix against brute force on the way.
      shuffle(perm, rng);
      std::vector<ServiceCurve> left = cs;
      while (!perm.empty()) {
        other.release(perm.back());
        left.erase(std::find(left.begin(), left.end(), perm.back()));
        perm.pop_back();
        ASSERT_EQ(other.fits(), brute_fits(left, link)) << "iter " << iter;
      }
      ASSERT_TRUE(other == AdmissionControl(link)) << "iter " << iter;
      ASSERT_EQ(other.utilization(), 0.0);
    }
  }
  // The generator must exercise both verdicts.
  EXPECT_GT(fit, 300);
  EXPECT_GT(unfit, 300);
}

// ------------------------------------------------------------ Txn delta

std::vector<ServiceCurve> leaf_rts(const Hfsc& s) {
  std::vector<ServiceCurve> out;
  for (ClassId c = 1; c < s.num_classes(); ++c) {
    if (!s.is_deleted(c) && s.is_leaf(c) && !s.config_of(c).rt.is_zero()) {
      out.push_back(s.config_of(c).rt);
    }
  }
  return out;
}

Hfsc clone_without_admission(const Hfsc& s) {
  std::stringstream img;
  checkpoint(s, img);
  Hfsc c = restore_checkpoint(img);
  c.disable_admission_control();
  return c;
}

struct Staged {
  enum Kind { kAdd, kChange, kDelete, kLimit } kind;
  ClassId cls;
  ClassConfig cfg;
};

void stage(Hfsc::Txn& txn, const std::vector<Staged>& ops) {
  for (const Staged& op : ops) {
    switch (op.kind) {
      case Staged::kAdd:
        txn.add_class(op.cls, op.cfg);
        break;
      case Staged::kChange:
        txn.change_class(0, op.cls, op.cfg);
        break;
      case Staged::kDelete:
        txn.delete_class(op.cls);
        break;
      case Staged::kLimit:
        txn.set_queue_limit(op.cls, 8);
        break;
    }
  }
}

TEST(TxnAdmissionFuzz, DeltaVerdictMatchesFromScratchCheck) {
  const RateBps link = mbps(100);
  Hfsc live(link);
  live.enable_admission_control();
  Rng rng(0xD17A);
  const RateBps mean = link / 12;  // ~12 rt leaves fill the link

  auto leaf_cfg = [&] {
    // rt + ls so the class can later take children; sometimes ls only.
    const ServiceCurve rt = random_curve(rng, mean, false);
    return rng.chance(0.15)
               ? ClassConfig::link_share_only(ServiceCurve::linear(mean))
               : ClassConfig{rt, ServiceCurve::linear(mean), ServiceCurve{}};
  };

  // transitions: adds under an rt leaf (it turns interior); reverts:
  // deletes under an rt parent (its last child leaving re-activates it).
  int accepted = 0, rejected = 0, structural = 0, transitions = 0,
      reverts = 0;
  for (int round = 0; round < 1500; ++round) {
    // Live classes the batch may target, plus the ids it stages.
    std::vector<ClassId> classes;
    for (ClassId c = 1; c < live.num_classes(); ++c) {
      if (!live.is_deleted(c)) classes.push_back(c);
    }
    std::vector<Staged> ops;
    std::size_t next_id = live.num_classes();
    const std::size_t n_ops = rng.uniform(1, 6);
    for (std::size_t i = 0; i < n_ops; ++i) {
      const std::uint64_t pick = rng.uniform(0, 9);
      const bool have = !classes.empty();
      // Past ~40 live classes, adds yield to renegotiations so the tree
      // stays small enough to clone every round.
      if (!have || pick < (classes.size() < 40 ? 4u : 2u)) {
        // Add under the root or under an existing class (a leaf with an
        // rt curve turns interior).
        const ClassId parent =
            have && rng.chance(0.6) ? classes[rng.uniform(0, classes.size() - 1)]
                                    : kRootClass;
        if (parent != kRootClass && parent < live.num_classes() &&
            live.is_leaf(parent) && !live.config_of(parent).rt.is_zero()) {
          ++transitions;
        }
        ops.push_back({Staged::kAdd, parent, leaf_cfg()});
        classes.push_back(static_cast<ClassId>(next_id++));
      } else if (pick < 7) {
        ops.push_back({Staged::kChange,
                       classes[rng.uniform(0, classes.size() - 1)],
                       leaf_cfg()});
      } else if (pick < 9) {
        // Delete (may be interior -> structural error, or the last child
        // of an rt parent -> the parent's curve re-activates).
        const std::size_t k = rng.uniform(0, classes.size() - 1);
        if (classes[k] < live.num_classes()) {
          const ClassId parent = live.parent_of(classes[k]);
          if (parent != kRootClass && !live.config_of(parent).rt.is_zero()) {
            ++reverts;
          }
        }
        ops.push_back({Staged::kDelete, classes[k], ClassConfig{}});
        classes.erase(classes.begin() + static_cast<std::ptrdiff_t>(k));
      } else {
        ops.push_back({Staged::kLimit,
                       classes[rng.uniform(0, classes.size() - 1)],
                       ClassConfig{}});
      }
    }

    // Reference: the same batch on a clone with admission off.
    Hfsc ref = clone_without_admission(live);
    std::optional<Errc> ref_err;
    {
      Hfsc::Txn txn = ref.begin();
      stage(txn, ops);
      try {
        txn.commit();
      } catch (const Error& e) {
        ref_err = e.code();
      }
    }

    const std::uint64_t digest = state_digest(live);
    const std::uint64_t rejections = live.admission_rejections();
    std::optional<Errc> err;
    {
      Hfsc::Txn txn = live.begin();
      stage(txn, ops);
      try {
        txn.commit();
      } catch (const Error& e) {
        err = e.code();
      }
    }

    if (ref_err) {
      // Structure is validated before admission: same verdict.
      ++structural;
      ASSERT_EQ(err, ref_err) << "round " << round;
      ASSERT_EQ(state_digest(live), digest) << "round " << round;
    } else if (brute_fits(leaf_rts(ref), link)) {
      ++accepted;
      ASSERT_FALSE(err.has_value()) << "round " << round << ": code "
                                    << static_cast<int>(*err);
      ref.enable_admission_control(link);
      ASSERT_EQ(state_digest(live), state_digest(ref)) << "round " << round;
    } else {
      ++rejected;
      ASSERT_EQ(err, Errc::kAdmissionRejected) << "round " << round;
      ASSERT_EQ(state_digest(live), digest) << "round " << round;
      ASSERT_EQ(live.admission_rejections(), rejections + 1);
    }
    const AuditReport report = audit(live);
    ASSERT_TRUE(report.ok()) << "round " << round << "\n"
                             << report.to_string();
    ASSERT_TRUE(brute_fits(leaf_rts(live), link)) << "round " << round;
  }
  // The generator must reach every verdict and both kinds of transition.
  EXPECT_GT(accepted, 200);
  EXPECT_GT(rejected, 200);
  EXPECT_GT(structural, 100);
  EXPECT_GT(transitions, 100);
  EXPECT_GT(reverts, 100);
}

}  // namespace
}  // namespace hfsc
