// Record-level mutation fuzz of the runtime journal's payload surface
// (runtime/host.hpp recovery; record grammar in docs/ROBUSTNESS.md
// Section 10).
//
// A scripted host run writes every record kind: direct add / chg / del /
// qlim, a `txn` batch, and `gov` interventions carrying chg, qlim and
// adm sub-ops plus the governor blob.  Each round mutates ONE payload —
// drops, duplicates or swaps a token, changes a digit, or replaces a
// number with 0, 2^63, 2^64 - 1 or -1 — re-frames the records through
// Journal::append so every checksum passes, and recovers from the
// result.  A round passes when recovery yields an audit-clean host or
// throws a typed hfsc::Error; anything else (another exception type, a
// crash, a sanitizer report) fails the suite.  The journal's byte-level
// framing (length, sequence, checksum) is not mutated here.
#include <gtest/gtest.h>

#include <cctype>
#include <string>
#include <utility>
#include <vector>

#include "runtime/host.hpp"
#include "runtime/journal.hpp"
#include "util/errors.hpp"
#include "util/rng.hpp"

namespace hfsc {
namespace {

RuntimeOptions fuzz_opts() {
  RuntimeOptions o;
  o.link_rate = mbps(10);
  o.admission_rate = mbps(10);
  o.watchdog_horizon = msec(50);
  o.sample_interval = msec(1);
  GovernorConfig& g = o.governor;
  for (int i = 0; i < 3; ++i) {
    g.enter_backlog[i] = 2000 * static_cast<Bytes>(i + 1);
    g.exit_backlog[i] = 1000 * static_cast<Bytes>(i + 1);
  }
  g.class_threshold = 8000;
  g.up_samples = 1;
  g.down_samples = 1;
  g.quarantine_after = 2;
  g.quarantine_qlimit = 4;
  g.headroom = 0.5;
  return o;
}

// The payloads of a run that writes every record kind.
std::vector<std::string> scripted_payloads() {
  RuntimeHost h(fuzz_opts());
  const ClassId bulk = h.add_class(
      kRootClass, ClassConfig::link_share_only(ServiceCurve::linear(mbps(5))));
  h.add_class(kRootClass, ClassConfig::both(ServiceCurve::linear(mbps(1))));
  const ClassId org = h.add_class(
      kRootClass, ClassConfig::link_share_only(ServiceCurve::linear(mbps(2))));
  const ClassId leaf = h.add_class(
      org, ClassConfig{ServiceCurve{mbps(2), msec(5), mbps(1)},
                       ServiceCurve::linear(mbps(1)),
                       ServiceCurve::linear(mbps(2))});
  h.change_class(msec(1), leaf,
                 ClassConfig::both(ServiceCurve{0, msec(2), mbps(1)}));
  h.set_queue_limit(leaf, 32);

  using Kind = RuntimeHost::BatchOp::Kind;
  std::vector<RuntimeHost::BatchOp> batch(4);
  batch[0].kind = Kind::kAdd;
  batch[0].parent = org;
  batch[0].cfg = ClassConfig::link_share_only(ServiceCurve::linear(mbps(1)));
  batch[1].kind = Kind::kChange;
  batch[1].now = msec(2);
  batch[1].cls = leaf;
  batch[1].cfg = ClassConfig::link_share_only(ServiceCurve::linear(mbps(1)));
  batch[2].kind = Kind::kQueueLimit;
  batch[2].cls = leaf + 1;
  batch[2].limit = 8;
  batch[3].kind = Kind::kDelete;
  batch[3].cls = leaf;
  h.commit_batch(batch);
  h.delete_class(leaf + 1);

  // Walk the governor up to level 3 (chg clamp, qlim quarantine, adm
  // tighten) and, once the backlog drains, back down (the undo records).
  std::uint64_t seq = 0;
  for (std::uint64_t k = 0; k < 4; ++k) {
    h.enqueue(msec(k), Packet{bulk, 1500, msec(k), seq++});
  }
  for (std::uint64_t k = 4; k < 40; ++k) (void)h.dequeue(msec(k));

  std::vector<std::string> out;
  for (const JournalRecord& r : h.journal().records_after(0)) {
    out.push_back(r.payload);
  }
  return out;
}

// A payload as whitespace-separated tokens, each with the whitespace run
// that follows it, so a mutated payload keeps its line structure.
struct Piece {
  std::string tok;
  std::string sep;
};

std::vector<Piece> split(const std::string& s) {
  std::vector<Piece> out;
  std::size_t i = 0;
  while (i < s.size()) {
    Piece p;
    while (i < s.size() && !std::isspace(static_cast<unsigned char>(s[i]))) {
      p.tok += s[i++];
    }
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) {
      p.sep += s[i++];
    }
    out.push_back(std::move(p));
  }
  return out;
}

std::string join(const std::vector<Piece>& ps) {
  std::string out;
  for (const Piece& p : ps) out += p.tok + p.sep;
  return out;
}

bool is_number(const std::string& t) {
  if (t.empty()) return false;
  for (const char c : t) {
    if (!std::isdigit(static_cast<unsigned char>(c))) return false;
  }
  return true;
}

std::string mutate(const std::string& payload, Rng& rng) {
  std::vector<Piece> ps = split(payload);
  if (ps.empty()) return payload;
  const std::size_t i = rng.uniform(0, ps.size() - 1);
  switch (rng.uniform(0, 4)) {
    case 0:  // drop a token
      ps.erase(ps.begin() + static_cast<std::ptrdiff_t>(i));
      return join(ps);
    case 1:  // duplicate a token
      ps.insert(ps.begin() + static_cast<std::ptrdiff_t>(i),
                Piece{ps[i].tok, " "});
      return join(ps);
    case 2:  // swap two tokens
      std::swap(ps[i].tok, ps[rng.uniform(0, ps.size() - 1)].tok);
      return join(ps);
    case 3: {  // change one digit
      std::vector<std::size_t> digits;
      for (std::size_t k = 0; k < payload.size(); ++k) {
        if (std::isdigit(static_cast<unsigned char>(payload[k]))) {
          digits.push_back(k);
        }
      }
      if (digits.empty()) return payload;
      std::string out = payload;
      out[digits[rng.uniform(0, digits.size() - 1)]] =
          static_cast<char>('0' + rng.uniform(0, 9));
      return out;
    }
    default: {  // replace a number with an extreme value
      static const char* const kExtremes[] = {
          "0", "9223372036854775808", "18446744073709551615", "-1"};
      std::vector<std::size_t> nums;
      for (std::size_t k = 0; k < ps.size(); ++k) {
        if (is_number(ps[k].tok)) nums.push_back(k);
      }
      if (nums.empty()) return payload;
      ps[nums[rng.uniform(0, nums.size() - 1)]].tok =
          kExtremes[rng.uniform(0, 3)];
      return join(ps);
    }
  }
}

TEST(JournalRecordFuzz, MutatedPayloadsRecoverCleanOrFailTyped) {
  const std::vector<std::string> script = scripted_payloads();
  // The script must cover every record kind, or the fuzz is narrower
  // than it claims.
  for (const char* kind : {"add ", "chg ", "del ", "qlim ", "txn ", "gov "}) {
    bool seen = false;
    for (const std::string& p : script) seen = seen || p.rfind(kind, 0) == 0;
    ASSERT_TRUE(seen) << "script writes no '" << kind << "' record";
  }
  bool adm_seen = false;
  for (const std::string& p : script) {
    adm_seen = adm_seen || p.find("\nadm ") != std::string::npos;
  }
  ASSERT_TRUE(adm_seen);

  const RuntimeOptions opts = fuzz_opts();
  Rng rng(0x5EEDF00DULL);
  int clean = 0;
  int typed = 0;
  for (int round = 0; round < 4000; ++round) {
    const std::size_t victim = rng.uniform(0, script.size() - 1);
    const std::string mutant = mutate(script[victim], rng);
    Journal j;
    for (std::size_t r = 0; r < script.size(); ++r) {
      j.append(r == victim ? mutant : script[r]);
    }
    try {
      const RuntimeHost back = RuntimeHost::recover(opts, "", j.image());
      EXPECT_TRUE(back.audit_runtime().ok())
          << "round " << round << " record " << victim << ": " << mutant;
      (void)back.digest();
      ++clean;
    } catch (const Error&) {
      ++typed;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "round " << round << " record " << victim
                    << " raised an untyped " << e.what() << " for: "
                    << mutant;
    }
  }
  // Both outcomes occur, so the mutations reach past the parser.
  EXPECT_GT(clean, 0);
  EXPECT_GT(typed, 0);
}

}  // namespace
}  // namespace hfsc
