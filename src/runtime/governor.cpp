#include "runtime/governor.hpp"

#include <iterator>
#include <sstream>

#include "util/errors.hpp"

namespace hfsc {

void put_config(std::string& out, const ClassConfig& cfg) {
  const std::uint64_t v[] = {cfg.rt.m1, cfg.rt.d, cfg.rt.m2,
                             cfg.ls.m1, cfg.ls.d, cfg.ls.m2,
                             cfg.ul.m1, cfg.ul.d, cfg.ul.m2};
  for (std::size_t i = 0; i < std::size(v); ++i) {
    if (i > 0) out += ' ';
    out += std::to_string(v[i]);
  }
}

bool read_config(std::istream& in, ClassConfig& cfg) {
  return static_cast<bool>(in >> cfg.rt.m1 >> cfg.rt.d >> cfg.rt.m2 >>
                           cfg.ls.m1 >> cfg.ls.d >> cfg.ls.m2 >> cfg.ul.m1 >>
                           cfg.ul.d >> cfg.ul.m2);
}

const char* to_string(GovEventKind k) noexcept {
  switch (k) {
    case GovEventKind::kLevelUp: return "level-up";
    case GovEventKind::kLevelDown: return "level-down";
    case GovEventKind::kClamp: return "clamp";
    case GovEventKind::kUnclamp: return "unclamp";
    case GovEventKind::kQuarantine: return "quarantine";
    case GovEventKind::kRelease: return "release";
    case GovEventKind::kTightenAdmission: return "tighten-admission";
    case GovEventKind::kRestoreAdmission: return "restore-admission";
  }
  return "?";
}

std::string GovEvent::to_string() const {
  std::ostringstream os;
  os << hfsc::to_string(kind) << " @" << when;
  if (kind == GovEventKind::kLevelUp || kind == GovEventKind::kLevelDown) {
    os << " level " << from_level << "->" << to_level;
  } else if (cls != kRootClass) {
    os << " class " << cls;
  }
  return os.str();
}

int OverloadGovernor::target_level(const GovSignals& sig) const noexcept {
  int t = 0;
  for (int i = 0; i < 3; ++i) {
    if (sig.backlog_bytes >= cfg_.enter_backlog[i]) t = i + 1;
  }
  // A starving leaf under real pressure is direct evidence the current
  // response is not enough; starvation with an idle link is legal
  // (upper limits, rt-only curves) and escalates nothing.
  if (t > 0 && t < 3 && sig.starved_leaves > 0) ++t;
  return t;
}

GovActions OverloadGovernor::sample(const GovSignals& sig, TimeNs now,
                                    const Hfsc& sched) {
  GovActions out;

  const int target = target_level(sig);
  const bool wants_up = target > level_;
  const bool wants_down =
      level_ > 0 && target < level_ &&
      sig.backlog_bytes < cfg_.exit_backlog[level_ - 1] &&
      sig.starved_leaves == 0;

  if (wants_up) {
    ++up_streak_;
    down_streak_ = 0;
  } else if (wants_down) {
    ++down_streak_;
    up_streak_ = 0;
  } else {
    up_streak_ = 0;
    down_streak_ = 0;
  }

  if (wants_up && up_streak_ >= cfg_.up_samples) {
    const int from = level_;
    ++level_;  // one rung at a time; the ladder is walked, not jumped
    up_streak_ = 0;
    emit(GovEvent{GovEventKind::kLevelUp, now, from, level_});
    if (level_ >= 3) {
      emit(GovEvent{GovEventKind::kTightenAdmission, now, from, level_});
    }
  } else if (wants_down && down_streak_ >= cfg_.down_samples) {
    const int from = level_;
    --level_;
    down_streak_ = 0;
    emit(GovEvent{GovEventKind::kLevelDown, now, from, level_});
    if (level_ < 3 && tightened_) {
      emit(GovEvent{GovEventKind::kRestoreAdmission, now, from, level_});
    }
    if (level_ < 2) {
      // Full reversal: every clamp and quarantine is undone from the
      // saved originals the moment the clamping level is left.
      for (const auto& [cls, saved] : clamped_) {
        (void)saved;
        out.unclamp.push_back(cls);
        emit(GovEvent{GovEventKind::kUnclamp, now, from, level_, cls});
      }
      for (const auto& [cls, saved] : quarantined_) {
        (void)saved;
        out.release.push_back(cls);
        emit(GovEvent{GovEventKind::kRelease, now, from, level_, cls});
      }
      flagged_streak_.clear();
    }
  }

  // Admission headroom is requested as long as the ladder sits at level
  // 3 (and released below it), not only on the transition edge: if the
  // host could not tighten — the admitted aggregate would not fit the
  // reduced link — it retries at the next sample.
  if (level_ >= 3 && !tightened_) out.tighten_admission = true;
  if (level_ < 3 && tightened_) out.restore_admission = true;

  if (level_ >= 2) {
    // Offender scan: live non-rt leaves persistently holding at least
    // half the push-out cap.  The level-1 early drop pins a flooding
    // class at or just below class_threshold, so the clamping level
    // must flag below the cap or a capped flooder would never be seen.
    // rt-bearing leaves are constitutionally exempt — their guarantees
    // are the thing the ladder exists to protect.
    for (ClassId c = 1; c < sched.num_classes(); ++c) {
      if (sched.is_deleted(c) || !sched.is_leaf(c)) continue;
      const ClassConfig& cfg = sched.config_of(c);
      if (!cfg.rt.is_zero()) continue;
      if (sched.queued_bytes(c) >= cfg_.class_threshold / 2) {
        const int streak = ++flagged_streak_[c];
        if (clamped_.find(c) == clamped_.end()) {
          out.clamp.push_back(c);
          emit(GovEvent{GovEventKind::kClamp, now, level_, level_, c});
        } else if (streak >= cfg_.quarantine_after &&
                   quarantined_.find(c) == quarantined_.end()) {
          out.quarantine.push_back(c);
          emit(GovEvent{GovEventKind::kQuarantine, now, level_, level_, c});
        }
      } else {
        flagged_streak_.erase(c);
      }
    }
  }

  return out;
}

std::string OverloadGovernor::serialize() const {
  std::ostringstream os;
  os << "gov-state 1\n";
  os << "level " << level_ << ' ' << (tightened_ ? 1 : 0) << '\n';
  os << "clamped " << clamped_.size() << '\n';
  for (const auto& [cls, cfg] : clamped_) {
    std::string line = std::to_string(cls) + ' ';
    put_config(line, cfg);
    os << line << '\n';
  }
  os << "quarantined " << quarantined_.size() << '\n';
  for (const auto& [cls, limit] : quarantined_) {
    os << cls << ' ' << limit << '\n';
  }
  os << "end\n";
  return os.str();
}

void OverloadGovernor::restore(const std::string& blob) {
  std::istringstream in(blob);
  auto bad = [](const std::string& what) -> void {
    throw Error(Errc::kBadCheckpoint, "governor state: " + what);
  };
  std::string tok;
  int version = 0;
  if (!(in >> tok >> version) || tok != "gov-state" || version != 1) {
    bad("bad header");
  }
  int level = 0, tight = 0;
  if (!(in >> tok >> level >> tight) || tok != "level" || level < 0 ||
      level > 3 || (tight != 0 && tight != 1)) {
    bad("bad level record");
  }
  std::size_t n = 0;
  if (!(in >> tok >> n) || tok != "clamped") bad("bad clamped record");
  std::map<ClassId, ClassConfig> clamped;
  for (std::size_t i = 0; i < n; ++i) {
    ClassId cls = 0;
    ClassConfig cfg;
    if (!(in >> cls) || !read_config(in, cfg)) bad("truncated clamped entry");
    clamped[cls] = cfg;
  }
  if (!(in >> tok >> n) || tok != "quarantined") bad("bad quarantined record");
  std::map<ClassId, std::size_t> quarantined;
  for (std::size_t i = 0; i < n; ++i) {
    ClassId cls = 0;
    std::size_t limit = 0;
    if (!(in >> cls >> limit)) bad("truncated quarantined entry");
    quarantined[cls] = limit;
  }
  if (!(in >> tok) || tok != "end") bad("missing end");

  level_ = level;
  tightened_ = tight == 1;
  clamped_ = std::move(clamped);
  quarantined_ = std::move(quarantined);
  // Hysteresis evidence does not survive recovery (see header).
  up_streak_ = down_streak_ = 0;
  flagged_streak_.clear();
}

}  // namespace hfsc
