// edge_64k: the data path at scale, single thread, through RuntimeHost.
//
// 64 x 32 x 32 = 65,536 leaves under 2,112 interior classes on a
// 10 Gb/s link at 0.97 load.  Hot leaves stay backlogged while the Zipf
// tail flips active and passive almost every packet, so activation,
// passivation and eligible-set insert/erase run on most packets, and the
// per-class state does not fit in cache.
#include <fstream>
#include <optional>

#include "core/auditor.hpp"
#include "core/checkpoint.hpp"
#include "runtime/host.hpp"
#include "workloads.hpp"

namespace pb {

namespace {

LayoutParams edge_params(bool quick) {
  LayoutParams p;
  p.fanout = quick ? std::vector<int>{8, 8, 8} : std::vector<int>{64, 32, 32};
  p.link = hfsc::gbps(10);
  p.rt_every = 8;
  p.rt_load = 0.11;
  p.total_load = 0.97;
  p.ul_caps = true;
  p.qlimit = 256;
  return p;
}

std::size_t cycle_len(bool quick) { return quick ? (1u << 17) : (1u << 21); }
constexpr std::size_t kSegment = 1u << 16;  // arrivals per timing segment
constexpr std::size_t kGuaranteeLeaves = 16;
constexpr int kSetupRuns = 7;  // set-up repetitions; setup_s is their median

// Builds the layout into a RuntimeHost or a bare Hfsc; false if the
// library assigned an id other than the predicted one.
template <class S>
bool build(S& s, const Layout& L, Samples* add_us = nullptr) {
  bool ok = true;
  for (std::size_t i = 0; i < L.classes.size(); ++i) {
    const ClassDef& c = L.classes[i];
    const auto parent = static_cast<hfsc::ClassId>(c.parent < 0 ? 0 : c.parent + 1);
    const std::uint64_t t0 = add_us ? now_ns() : 0;
    const hfsc::ClassId id = s.add_class(parent, c.cfg);
    if (add_us) add_us->add(static_cast<double>(now_ns() - t0) / 1e3);
    ok = ok && id == i + 1;
    if (c.qlimit != 0) s.set_queue_limit(id, c.qlimit);
  }
  return ok;
}

}  // namespace

std::uint64_t edge_inputs(std::uint64_t seed, bool quick) {
  const Layout L = make_layout(edge_params(quick), seed);
  TrafficGen gen(L, seed);
  const ArrivalCycle cyc = make_cycle(gen, 1u << 16);
  std::uint64_t h = fnv1a(cyc.arrivals.data(), cyc.arrivals.size() * sizeof(Arrival));
  for (const ClassDef& c : L.classes) {
    h = fnv1a(&c.cfg, sizeof c.cfg, h);
    h = fnv1a(&c.qlimit, sizeof c.qlimit, h);
  }
  return h;
}

Result run_edge(const Options& o) {
  Result R;
  const Layout L = make_layout(edge_params(o.quick), o.seed);
  TrafficGen gen(L, o.seed);
  const ArrivalCycle cyc = make_cycle(gen, cycle_len(o.quick));
  const std::uint64_t prefix = cyc.arrivals.size();

  hfsc::RuntimeOptions ro;
  ro.link_rate = L.link;  // governor, journal and sampling at defaults

  // Set-up: build the hierarchy kSetupRuns times, report the median.
  std::optional<hfsc::RuntimeHost> host;
  AtRefSpeed setup;
  for (int k = 0; k < kSetupRuns; ++k) {
    host.reset();
    setup.probe();
    const std::uint64_t t0 = now_ns();
    host.emplace(ro);
    const bool ok = build(*host, L);
    setup.time(static_cast<double>(now_ns() - t0) / 1e9);
    R.check(ok, "edge: class ids differ from the declaration order");
  }
  R.ops(L.classes.size());
  setup.report(R, "setup_s", "s");

  // Output checks on the first cycle: every rt packet within its
  // Theorem 2 bound, and the service curve itself on a subset of leaves.
  RtDelays rt;
  GuaranteeSubset gsub;
  const TimeNs lmax = lmax_time(L.link);
  for (std::size_t j = 0; j < L.rt_leaves.size(); ++j) {
    const std::uint32_t cls = L.rt_leaves[j];
    const ClassDef& c = L.classes[cls - 1];
    rt.watch(cls, c.req.d + lmax + kRoundingSlack);
    if (j % std::max<std::size_t>(1, L.rt_leaves.size() / kGuaranteeLeaves) == 0 &&
        gsub.watched() < kGuaranteeLeaves) {
      gsub.watch(cls, c.req.curve());
    }
  }

  SpanRecorder rec;
  const std::uint32_t seg_name = rec.intern("edge.segment");
  StrideProbe host_probe;
  host_probe.rec = &rec;
  host_probe.deq_name = rec.intern("runtime.host.dequeue");
  host_probe.enq_name = rec.intern("runtime.host.enqueue");
  Link<hfsc::RuntimeHost> link(*host, L.link);
  auto observe = [&](const hfsc::Packet& p, TimeNs start, TimeNs last) {
    rt.on_departure(p, start, last);
    gsub.departure(p.cls, last, p.len);
  };
  auto ignore = [](const hfsc::Packet&, TimeNs, TimeNs) {};

  // The traced run's bare twin: the same arrivals on an Hfsc, segment by
  // segment right after the host, so both see the same traffic under the
  // same machine conditions.
  std::optional<hfsc::Hfsc> twin;
  StrideProbe core_probe;
  core_probe.rec = &rec;
  core_probe.deq_name = rec.intern("core.dequeue");
  core_probe.enq_name = rec.intern("core.enqueue");
  std::optional<Link<hfsc::Hfsc>> tlink;
  Samples add_us;
  std::uint64_t rss0 = 0, rss1 = 0;
  std::vector<std::uint64_t> backlog_hist;
  if (o.trace) {
    rss0 = current_rss_bytes();
    twin.emplace(L.link);
    R.check(build(*twin, L, &add_us), "edge twin: class ids differ");
    rss1 = current_rss_bytes();
    tlink.emplace(*twin, L.link);
    backlog_hist.assign(1u << 16, 0);
  }
  auto sample_backlog = [&](const hfsc::Packet&, TimeNs, TimeNs) {
    ++backlog_hist[std::min<std::size_t>(twin->backlog_packets(), backlog_hist.size() - 1)];
  };

  // The traced run gives the host half the budget; the twin takes the
  // other half.
  const double budget_ns = o.seconds * 1e9 * (o.trace ? 0.5 : 1.0);
  std::uint64_t i = 0;
  double timed_ns = 0;
  double rss_mb = 0;
  std::uint64_t gov_events = 0;
  int gov_max = 0;
  Samples plain_seg_ns, traced_seg_ns;  // host ns per arrival
  AtRefSpeed seg_rate;                  // departures per second, per segment
  std::vector<double> self_seg;         // host - core dequeue, per segment
  for (std::uint64_t seg = 0;; ++seg) {
    const bool traced = o.trace && seg % 2 == 1;
    link.set_probe(traced ? &host_probe : nullptr);
    const std::size_t host_before = host_probe.deq_ns.size();
    const std::uint64_t first = i;
    const std::uint64_t end = i + kSegment;
    const std::uint64_t dep0 = link.departures();
    seg_rate.probe();
    const std::uint64_t t0 = now_ns();
    std::uint32_t span = 0;
    if (traced) host_probe.parent = span = rec.open(seg_name, 0, t0, seg);
    if (i < prefix) {
      for (; i < end; ++i) {
        const Arrival a = cyc.at(i);
        gsub.arrival(a.cls, a.t, a.len);
        link.arrive(a, i, observe);
      }
    } else {
      for (; i < end; ++i) link.arrive(cyc.at(i), i, ignore);
    }
    const std::uint64_t t1 = now_ns();
    if (traced) rec.close(span, t1);
    timed_ns += static_cast<double>(t1 - t0);
    (traced ? traced_seg_ns : plain_seg_ns).add(static_cast<double>(t1 - t0) / kSegment);
    seg_rate.rate(static_cast<double>(link.departures() - dep0) /
                  (static_cast<double>(t1 - t0) / 1e9));
    gov_max = std::max(gov_max, host->gov_level());
    gov_events += host->drain_events().size();
    // Peak memory of set-up plus one full arrival cycle, taken before the
    // first state_digest: that serializes a full checkpoint (tens of MB
    // here), and where its transient buffer lands would decide the peak.
    if (i == prefix) rss_mb = peak_rss_mb();

    if (twin) {
      tlink->set_probe(traced ? &core_probe : nullptr);
      const std::size_t core_before = core_probe.deq_ns.size();
      if (traced) core_probe.parent = span = rec.open(seg_name, 0, now_ns(), seg);
      for (std::uint64_t j = first; j < end; ++j) tlink->arrive(cyc.at(j), j, sample_backlog);
      if (traced) {
        rec.close(span, now_ns());
        const auto tail = [](const Samples& s, std::size_t from) {
          return median(std::vector<double>(s.v.begin() + static_cast<long>(from), s.v.end()));
        };
        self_seg.push_back(tail(host_probe.deq_ns, host_before) -
                           tail(core_probe.deq_ns, core_before));
      }
      if (i == prefix) {
        R.check(state_digest(*twin) == host->digest(),
                "edge: RuntimeHost at level 0 and the bare core made different decisions");
      }
    }

    if (i == prefix) {
      const hfsc::Hfsc& s = host->sched();
      R.fp("digest", host->digest());
      R.fp("departures", link.departures());
      R.fp("drops", total_drops(s));
      R.fp("rejected", s.counters().rejected_packets());
      R.fp("admission_rejections", s.admission_rejections());
      R.fp("gov_events", gov_events);
      R.check(conserved(s, link.offered(), link.departures()),
              "edge: conservation broken after the first cycle");
    }
    if (i >= prefix && timed_ns >= budget_ns) break;
  }
  R.ops(link.offered());
  seg_rate.report(R, "pkts_per_s", "pkt/s");

  // Output checks.
  const hfsc::Hfsc& s = host->sched();
  R.check(conserved(s, link.offered(), link.departures()), "edge: conservation broken at run end");
  const hfsc::AuditReport audit = host->audit_runtime();
  R.check(audit.ok(), "edge: audit: " + audit.to_string());
  R.check(gov_max == 0 && gov_events == 0, "edge: governor left level 0");
  R.check(rt.violations() == 0,
          "edge: " + std::to_string(rt.violations()) + " rt packets over their Theorem 2 bound");
  R.check(gsub.failing_leaves(lmax + kRoundingSlack) == 0,
          "edge: GuaranteeChecker found an rt curve not met");
  R.check(!rt.delays_ms().empty(), "edge: no rt packet was transmitted");
  R.metric("rt_delay_p99_ms", percentile(rt.delays_ms(), 0.99), "ms");
  R.samples["rt_delay_p99_ms"] = rt.delays_ms().size();
  R.metric("rss_mb", rss_mb, "MB");
  if (!o.trace) return R;

  R.ops(tlink->offered());
  std::uint64_t seen = 0, p99 = 0;
  for (std::size_t b = 0; b < backlog_hist.size(); ++b) {
    seen += backlog_hist[b];
    if (static_cast<double>(seen) >= 0.99 * static_cast<double>(tlink->departures())) {
      p99 = b;
      break;
    }
  }
  const double host_enq = host_probe.enq_ns.p(0.5);
  const double core_enq = core_probe.enq_ns.p(0.5);
  const double sel = static_cast<double>(twin->rt_selections() + twin->ls_selections());
  R.metric("core.enqueue_ns", core_enq, "ns");
  R.metric("core.dequeue_ns", core_probe.deq_ns.p(0.5), "ns");
  R.metric("core.dequeue_ns_p99", core_probe.deq_ns.p(0.99), "ns");
  R.samples["core.dequeue_ns"] = core_probe.deq_ns.size();
  R.metric("core.empty_dequeue_ratio",
           static_cast<double>(tlink->empty()) / static_cast<double>(tlink->deq_calls()), "1");
  R.metric("core.rt_share", sel > 0 ? static_cast<double>(twin->rt_selections()) / sel : 0, "1");
  R.metric("core.backlog_pkts_p99", static_cast<double>(p99), "pkt");
  R.metric("core.drop_ratio",
           static_cast<double>(total_drops(*twin)) / static_cast<double>(tlink->offered()), "1");
  R.metric("core.add_class_us", add_us.p(0.5), "us");
  R.metric("core.bytes_per_class",
           static_cast<double>(rss1 > rss0 ? rss1 - rss0 : 0) /
               static_cast<double>(L.classes.size()),
           "B");
  R.metric("core.rt_delay_p99_ms", percentile(rt.delays_ms(), 0.99), "ms");
  R.metric("runtime.host.enqueue_ns", host_enq, "ns");
  R.metric("runtime.host.dequeue_ns", host_probe.deq_ns.p(0.5), "ns");
  R.metric("runtime.host.dequeue_ns_p99", host_probe.deq_ns.p(0.99), "ns");
  R.samples["runtime.host.dequeue_ns"] = host_probe.deq_ns.size();
  R.metric("runtime.host.enqueue_ns.self", host_enq - core_enq, "ns");
  R.metric("runtime.host.dequeue_ns.self", median(self_seg), "ns");
  R.metric("runtime.host.dequeue_ns.self_iqr",
           percentile(self_seg, 0.75) - percentile(self_seg, 0.25), "ns");
  R.samples["runtime.host.dequeue_ns.self"] = self_seg.size();
  R.metric("runtime.governor.level_max", gov_max, "count");
  R.metric("runtime.governor.events", static_cast<double>(gov_events), "count");
  const double plain = plain_seg_ns.p(0.5), traced = traced_seg_ns.p(0.5);
  R.metric("trace.overhead_ratio", plain > 0 ? traced / plain - 1 : 0, "1");
  R.metric("trace.spans", static_cast<double>(rec.spans().size()), "count");
  if (!o.trace_out.empty()) {
    std::ofstream out(o.trace_out);
    rec.write(out);
  }
  return R;
}

}  // namespace pb
