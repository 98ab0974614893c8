// Shared pieces of the benchmark workloads: options, the result record,
// clocks and statistics, and the simulated link every single-threaded
// data-path replay runs through.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "gen.hpp"
#include "sched/packet.hpp"
#include "spans.hpp"

namespace pb {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;  // where the traced run writes its spans
  bool quick = false;     // self-test size: smaller inputs, same code paths
};

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Process CPU time (user + system), seconds.
double cpu_seconds();
// Peak resident set size of the process, MiB.
double peak_rss_mb();
// Current resident set size, bytes.
std::uint64_t current_rss_bytes();

// Nearest-rank percentile (q in [0, 1]); 0 for an empty sample.
double percentile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

// Everything one run reports.  Metrics are keyed by the names listed in
// BENCHMARK.json; run.py selects the end-to-end or per-layer set.
struct Result {
  struct Metric {
    double value = 0;
    std::string unit;
  };
  std::map<std::string, Metric> metrics;
  std::map<std::string, std::uint64_t> samples;  // per-percentile counts
  std::map<std::string, std::string> fingerprint;
  std::vector<std::string> failures;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  // One output check: counts as an attempted operation, and as a failed
  // one when it does not hold.
  bool check(bool ok, const std::string& what);
  void fp(const std::string& key, std::uint64_t v) {
    fingerprint[key] = std::to_string(v);
  }
  void ops(std::uint64_t n) { attempted += n; }
  void fail(const std::string& what) {
    ++attempted;
    ++failed;
    failures.push_back(what);
  }
  std::string to_json(const Options& o) const;
};

// Wall-time distribution of a sampled call, in the given unit.
struct Samples {
  std::vector<double> v;
  void add(double x) { v.push_back(x); }
  std::size_t size() const { return v.size(); }
  double p(double q) const { return percentile(v, q); }
};

// The machine's speed relative to a fixed reference, from a probe of
// about a millisecond: a dependent multiply-add chain in the benchmark's
// own code, so no library change can move it.  On the reference machine
// (README.md, "Clock speed") its reading moved between 1.0 and 1.7 with
// the turbo clock that other tenants' load sets, in phases of seconds to
// tens of minutes, and a run's wall rate moved with it.
double clock_speed();

// Times or rates at the reference speed: probe() right before each timed
// interval, then add the interval's wall seconds (time) or its rate
// (rate).  An interval's time is multiplied by the speed its probe read,
// a rate divided by it.  The reported value is the median over intervals.
class AtRefSpeed {
 public:
  void probe() {
    speed_ = clock_speed();
    speeds_.add(speed_);
  }
  void time(double s) {
    wall_.add(s);
    scaled_.add(s * speed_);
  }
  void rate(double r) {
    wall_.add(r);
    scaled_.add(r / speed_);
  }
  // Reports `name` (median at the reference speed) with its sample
  // count, plus `name.wall` (median as measured) and `name.speed` (median
  // probe reading), which only the run's full record keeps.
  void report(Result& R, const std::string& name, const std::string& unit) const;

 private:
  double speed_ = 1;
  Samples speeds_, wall_, scaled_;
};

// Timing probe for Link: times every stride-th call and records it as a
// span.
struct StrideProbe {
  SpanRecorder* rec = nullptr;
  std::uint32_t deq_name = 0;
  std::uint32_t enq_name = 0;
  std::uint32_t parent = 0;
  std::uint32_t stride = 16;
  std::uint64_t n_deq = 0;
  std::uint64_t n_enq = 0;
  Samples deq_ns;
  Samples enq_ns;

  template <class F>
  auto deq(F&& f, std::uint64_t id) {
    if (++n_deq % stride != 0) return f();
    const std::uint64_t t0 = now_ns();
    auto r = f();
    const std::uint64_t t1 = now_ns();
    rec->add(deq_name, parent, t0, t1, id);
    deq_ns.add(static_cast<double>(t1 - t0));
    return r;
  }
  template <class F>
  void enq(F&& f, std::uint64_t id) {
    if (++n_enq % stride != 0) {
      f();
      return;
    }
    const std::uint64_t t0 = now_ns();
    f();
    const std::uint64_t t1 = now_ns();
    rec->add(enq_name, parent, t0, t1, id);
    enq_ns.add(static_cast<double>(t1 - t0));
  }
};

// Backlog of a bare Hfsc or of a RuntimeHost's scheduler.
template <class S>
std::size_t backlog_of(const S& s) {
  if constexpr (requires { s.backlog_packets(); }) {
    return s.backlog_packets();
  } else {
    return s.sched().backlog_packets();
  }
}

// The simulated output link in front of a scheduler: arrivals are fed in
// time order; while the scheduler is backlogged and the link would free
// up strictly before the next arrival, the link dequeues and transmits.
// An arrival that ties a transmission completion is fed first, and an
// arrival behind the link clock is enqueued at the clock, keeping its
// true arrival stamp — the same merge rule as the sharded runtime's
// worker loop, so a single-threaded replay of one shard's input makes
// the decisions that shard makes.
template <class S>
class Link {
 public:
  Link(S& s, RateBps rate) : s_(s), rate_(rate) {}

  // on_dep(packet, start, last_bit) for every transmitted packet.
  template <class OnDep>
  void arrive(const Arrival& a, std::uint64_t seq, OnDep&& on_dep) {
    serve_before(a.t, on_dep);
    if (backlog_of(s_) == 0 && clock_ < a.t) clock_ = a.t;
    ++offered_;
    const hfsc::Packet pkt{a.cls, a.len, a.t, seq};
    const TimeNs at = std::max(clock_, a.t);
    if (probe_) {
      probe_->enq([&] { s_.enqueue(at, pkt); }, seq);
    } else {
      s_.enqueue(at, pkt);
    }
  }

  template <class OnDep>
  void serve_before(TimeNs t, OnDep&& on_dep) {
    while (clock_ < t && backlog_of(s_) > 0) {
      ++deq_calls_;
      std::optional<hfsc::Packet> p =
          probe_ ? probe_->deq([&] { return s_.dequeue(clock_); }, deq_calls_)
                 : s_.dequeue(clock_);
      if (!p) {
        // Backlogged but nothing may be sent (upper limits): the link
        // idles until the next arrival.
        ++empty_;
        clock_ = t;
        return;
      }
      const TimeNs start = clock_;
      clock_ += hfsc::tx_time(p->len, rate_);
      ++departures_;
      on_dep(*p, start, clock_);
    }
  }

  // nullptr = untimed.
  void set_probe(StrideProbe* p) noexcept { probe_ = p; }
  TimeNs clock() const noexcept { return clock_; }
  std::uint64_t offered() const noexcept { return offered_; }
  std::uint64_t departures() const noexcept { return departures_; }
  std::uint64_t deq_calls() const noexcept { return deq_calls_; }
  std::uint64_t empty() const noexcept { return empty_; }

 private:
  S& s_;
  RateBps rate_;
  StrideProbe* probe_ = nullptr;
  TimeNs clock_ = 0;
  std::uint64_t offered_ = 0;
  std::uint64_t departures_ = 0;
  std::uint64_t deq_calls_ = 0;
  std::uint64_t empty_ = 0;
};

// Packets dropped over every class (queue limits, deletions, push-outs).
std::uint64_t total_drops(const hfsc::Hfsc& s);
// The conservation identity offered == sent + dropped + rejected + backlog.
bool conserved(const hfsc::Hfsc& s, std::uint64_t offered, std::uint64_t sent);

// Lmax / C: Theorem 2's non-preemption term.
inline TimeNs lmax_time(RateBps rate) { return hfsc::tx_time(kMaxPkt, rate); }
// Slack for the library's fixed-point curve rounding (util/types.hpp
// rounds each curve operation by at most a byte or a nanosecond).
inline constexpr TimeNs kRoundingSlack = 2000;

// Per-packet rt-leaf delay bookkeeping.  A leaf fed through the token
// bucket (u, r) with curve udr(u, d, r) has Theorem 2 delay bound
// d + Lmax/C; every transmitted packet of such a leaf is checked
// against it.
class RtDelays {
 public:
  // Marks `cls` as an rt leaf whose packets must leave within `bound`
  // of arrival (0 = record the delay without a bound).
  void watch(std::uint32_t cls, TimeNs bound);
  void unwatch(std::uint32_t cls);

  void on_departure(const hfsc::Packet& p, TimeNs start, TimeNs last_bit) {
    if (p.cls >= state_.size() || state_[p.cls] == 0) return;
    const TimeNs d = last_bit - p.arrival;
    delays_.push_back(static_cast<double>(d) / 1e6);
    max_start_ = std::max(max_start_, start >= p.arrival ? start - p.arrival : 0);
    if (state_[p.cls] == 2 && d > bound_[p.cls]) ++violations_;
  }

  const std::vector<double>& delays_ms() const noexcept { return delays_; }
  TimeNs max_start_delay() const noexcept { return max_start_; }
  std::uint64_t violations() const noexcept { return violations_; }

 private:
  std::vector<std::uint8_t> state_;  // 0 none, 1 record, 2 record + bound
  std::vector<TimeNs> bound_;
  std::vector<double> delays_;
  TimeNs max_start_ = 0;
  std::uint64_t violations_ = 0;
};

// Theorem 2 service-curve check (sim/guarantee_checker.hpp) on a fixed
// subset of rt leaves: arrivals and last-bit departures are recorded
// during the replay and checked afterwards, in time order.
class GuaranteeSubset {
 public:
  void watch(std::uint32_t cls, const hfsc::ServiceCurve& sc);
  void arrival(std::uint32_t cls, TimeNs t, Bytes len) { record(cls, t, len, 1); }
  void departure(std::uint32_t cls, TimeNs t, Bytes len) { record(cls, t, len, 0); }
  // Number of watched leaves whose service fell short of the curve by
  // more than `allowance`.
  std::size_t failing_leaves(TimeNs allowance) const;
  std::size_t watched() const noexcept { return curves_.size(); }

 private:
  struct Ev {
    TimeNs t;
    int arrival;  // departures sort first at a tie
    Bytes len;
  };
  void record(std::uint32_t cls, TimeNs t, Bytes len, int arrival) {
    if (cls < slot_.size() && slot_[cls] >= 0) {
      events_[static_cast<std::size_t>(slot_[cls])].push_back(Ev{t, arrival, len});
    }
  }
  std::vector<int> slot_;
  std::vector<hfsc::ServiceCurve> curves_;
  std::vector<std::vector<Ev>> events_;
};

}  // namespace pb
