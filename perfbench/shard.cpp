// shard_2x1k: the edge leaf mix and traffic shape through ShardedRuntime.
//
// Two shards of 1,024 leaves each (top-level subtrees pinned evenly),
// the supervisor, and this thread as the only producer: four threads.
// The producer registers a frontier, pushes stamped arrivals through
// ShardedRuntime::enqueue, publishes its frontier on a fixed cadence and
// retries refused pushes within a budget.  Shards run their shipped
// config: frontier gate on, a checkpoint every 8,192 pops.
//
// The shard hierarchies carry no upper limits: a shard that finds its
// backlog blocked jumps its clock to the current frontier, whose value
// depends on thread timing.  Without that path each shard's decisions
// are a function of its input alone, so a single-threaded twin replay
// of the first cycle must reproduce the shard's state digest exactly.
#include <fstream>
#include <memory>
#include <thread>

#include "config/hierarchy_spec.hpp"
#include "runtime/supervisor.hpp"
#include "workloads.hpp"

namespace pb {

namespace {

LayoutParams shard_params(bool quick) {
  LayoutParams p;
  p.fanout = quick ? std::vector<int>{4, 4, 8} : std::vector<int>{16, 8, 16};
  p.link = hfsc::gbps(10);  // per shard
  p.rt_every = 8;
  p.rt_load = 0.11;
  p.total_load = 0.97;
  p.ul_caps = false;
  p.qlimit = 256;
  p.shards = 2;
  return p;
}

std::size_t cycle_len(bool quick) { return quick ? (1u << 17) : (1u << 21); }
constexpr std::uint64_t kFrontierEvery = 64;
constexpr std::uint64_t kSegment = 1u << 16;
constexpr std::uint64_t kRetryBudgetNs = 2'000'000'000;
constexpr std::uint64_t kWaitBudgetNs = 30'000'000'000;
constexpr int kSetupRuns = 5;  // set-up repetitions; setup_s is their median

hfsc::HierarchySpec spec_of(const Layout& L) {
  hfsc::HierarchySpec spec;
  for (const ClassDef& c : L.classes) {
    hfsc::HierarchySpec::ClassSpec cs;
    cs.name = c.name;
    cs.parent = c.parent < 0 ? "root" : L.classes[static_cast<std::size_t>(c.parent)].name;
    cs.rt = c.cfg.rt;
    cs.ls = c.cfg.ls;
    cs.ul = c.cfg.ul;
    cs.qlimit = c.qlimit;
    cs.shard = c.parent < 0 ? c.shard : -1;
    spec.add(cs);
  }
  return spec;
}

hfsc::ShardedOptions sharded_options(const Layout& L) {
  hfsc::ShardedOptions so;
  so.shards = 2;
  so.shard.runtime.link_rate = L.link;
  return so;
}

// One shard's first-cycle replay on a single thread: the same host
// construction as ShardedRuntime's and the worker's merge rule.
struct Twin {
  hfsc::RuntimeHost host;
  Link<hfsc::RuntimeHost> link;
  RtDelays rt;
  Twin(const hfsc::RuntimeOptions& ro, RateBps rate) : host(ro), link(host, rate) {}
};

}  // namespace

std::uint64_t shard_inputs(std::uint64_t seed, bool quick) {
  const Layout L = make_layout(shard_params(quick), seed);
  TrafficGen gen(L, seed);
  const ArrivalCycle cyc = make_cycle(gen, 1u << 16);
  std::uint64_t h = fnv1a(cyc.arrivals.data(), cyc.arrivals.size() * sizeof(Arrival));
  for (const ClassDef& c : L.classes) {
    h = fnv1a(c.name.data(), c.name.size(), h);
    h = fnv1a(&c.cfg, sizeof c.cfg, h);
    h = fnv1a(&c.shard, sizeof c.shard, h);
  }
  return h;
}

Result run_shard(const Options& o) {
  Result R;
  const Layout L = make_layout(shard_params(o.quick), o.seed);
  TrafficGen gen(L, o.seed);
  const ArrivalCycle cyc = make_cycle(gen, cycle_len(o.quick));
  const std::uint64_t prefix = cyc.arrivals.size();
  const hfsc::ShardedOptions so = sharded_options(L);

  // Set-up: spec, runtime construction, producer registration, start.
  std::unique_ptr<hfsc::ShardedRuntime> rt;
  int prod = -1;
  AtRefSpeed setup;
  Samples compile_ms;
  for (int k = 0; k < kSetupRuns; ++k) {
    rt.reset();
    setup.probe();
    const std::uint64_t t0 = now_ns();
    const hfsc::HierarchySpec spec = spec_of(L);
    rt = std::make_unique<hfsc::ShardedRuntime>(so, spec);
    compile_ms.add(static_cast<double>(now_ns() - t0) / 1e6);
    prod = rt->register_producer();
    rt->start();
    setup.time(static_cast<double>(now_ns() - t0) / 1e9);
  }
  R.ops(L.classes.size());
  setup.report(R, "setup_s", "s");
  R.metric("config.compile_ms", compile_ms.p(0.5), "ms");

  // Global -> (shard, local) routing, and each shard's Theorem 2 bound.
  const TimeNs lmax = lmax_time(L.link);
  std::vector<int> shard_of(L.classes.size() + 1, -1);
  std::vector<std::uint32_t> local_of(L.classes.size() + 1, 0);
  for (std::uint32_t g = 1; g <= L.classes.size(); ++g) {
    shard_of[g] = rt->shard_of(g);
    local_of[g] = rt->local_id(g);
  }
  // Every rt leaf has the same d (make_layout), so each shard's bound
  // is each of its rt leaves' own bound.
  std::vector<TimeNs> shard_bound(2, 0);

  // Twins: same construction order as ShardedRuntime's constructor.
  hfsc::RuntimeOptions ro = so.shard.runtime;
  std::vector<std::unique_ptr<Twin>> twins;
  for (int s = 0; s < 2; ++s) twins.push_back(std::make_unique<Twin>(ro, L.link));
  for (std::uint32_t g = 1; g <= L.classes.size(); ++g) {
    const ClassDef& c = L.classes[g - 1];
    Twin& t = *twins[static_cast<std::size_t>(shard_of[g])];
    const hfsc::ClassId parent =
        c.parent < 0 ? 0 : local_of[static_cast<std::size_t>(c.parent + 1)];
    const hfsc::ClassId id = t.host.add_class(parent, c.cfg);
    R.check(id == local_of[g], "shard twin: local ids differ from the runtime's");
    if (c.qlimit != 0) t.host.set_queue_limit(id, c.qlimit);
    if (c.rt) {
      const TimeNs b = c.req.d + lmax + kRoundingSlack;
      t.rt.watch(id, b);
      shard_bound[static_cast<std::size_t>(shard_of[g])] =
          std::max(shard_bound[static_cast<std::size_t>(shard_of[g])], b);
    }
  }
  for (auto& t : twins) t->host.save_checkpoint();

  // First cycle on the twins (untimed): the expected per-shard state at
  // the frontier that ends the cycle.
  const TimeNs frontier_end = cyc.at(prefix).t;
  for (std::uint64_t i = 0; i < prefix; ++i) {
    const Arrival& a = cyc.arrivals[i];
    Twin& t = *twins[static_cast<std::size_t>(shard_of[a.cls])];
    const Arrival la{a.t, local_of[a.cls], a.len};
    t.link.arrive(la, i, [&t](const hfsc::Packet& p, TimeNs s, TimeNs e) {
      t.rt.on_departure(p, s, e);
    });
  }
  std::vector<double> rt_delays;
  for (auto& t : twins) {
    t->link.serve_before(frontier_end, [&t](const hfsc::Packet& p, TimeNs s, TimeNs e) {
      t->rt.on_departure(p, s, e);
    });
    R.check(t->rt.violations() == 0, "shard twin: rt packets over their Theorem 2 bound");
    rt_delays.insert(rt_delays.end(), t->rt.delays_ms().begin(), t->rt.delays_ms().end());
  }

  // ---- producer ------------------------------------------------------------
  SpanRecorder rec;
  const std::uint32_t enq_name = rec.intern("runtime.sharded.enqueue");
  const std::uint32_t seg_name = rec.intern("shard.segment");
  std::uint64_t attempts = 0, refused = 0;
  Samples enq_ns;
  std::vector<double> ring_depth;
  std::uint32_t seg_span = 0;
  bool traced = false;
  bool gave_up = false;
  auto push = [&](std::uint64_t i) {
    const Arrival a = cyc.at(i);
    const hfsc::Packet pkt{a.cls, a.len, a.t, i};
    ++attempts;
    const bool timed = traced && i % 16 == 0;
    const std::uint64_t t0 = timed ? now_ns() : 0;
    bool ok = rt->enqueue(a.t, pkt);
    if (timed) {
      const std::uint64_t t1 = now_ns();
      rec.add(enq_name, seg_span, t0, t1, i);
      enq_ns.add(static_cast<double>(t1 - t0));
    }
    if (!ok) {
      // Everything pushed so far is stamped <= a.t: let the shards serve
      // up to it while this push waits for ring space.
      rt->publish_frontier(prod, a.t);
      const std::uint64_t deadline = now_ns() + kRetryBudgetNs;
      while (!ok) {
        ++refused;
        ++attempts;
        if (now_ns() > deadline) {
          gave_up = true;
          return;
        }
        std::this_thread::yield();
        ok = rt->enqueue(a.t, pkt);
      }
    }
    if (i % kFrontierEvery == kFrontierEvery - 1) {
      rt->publish_frontier(prod, cyc.at(i + 1).t);
    }
    if (traced && i % 256 == 0) {
      for (int s = 0; s < 2; ++s) {
        ring_depth.push_back(static_cast<double>(rt->shard(s).ring().size_approx()));
      }
    }
  };
  auto sent = [&](int s) { return rt->shard(s).sent_total(); };

  // First cycle (untimed warm-up), then wait until each shard has served
  // exactly what its twin served up to the frontier.
  std::uint64_t i = 0;
  for (; i < prefix && !gave_up; ++i) push(i);
  rt->publish_frontier(prod, frontier_end);
  const std::uint64_t wait_end = now_ns() + kWaitBudgetNs;
  while (!gave_up && now_ns() < wait_end &&
         (sent(0) < twins[0]->link.departures() || sent(1) < twins[1]->link.departures())) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  for (int s = 0; s < 2; ++s) {
    const Twin& t = *twins[static_cast<std::size_t>(s)];
    hfsc::Shard& sh = rt->shard(s);
    sh.pause();
    const std::string tag = "shard" + std::to_string(s) + ".";
    R.check(sh.sent_total() == t.link.departures(),
            "shard " + std::to_string(s) + ": sent " + std::to_string(sh.sent_total()) +
                " packets by the first frontier, its twin " +
                std::to_string(t.link.departures()));
    R.check(sh.host().digest() == t.host.digest(),
            "shard " + std::to_string(s) + ": state differs from its single-threaded twin");
    R.check(sh.max_rt_delay() == t.rt.max_start_delay(),
            "shard " + std::to_string(s) + ": max rt delay differs from its twin");
    R.fp(tag + "digest", sh.host().digest());
    R.fp(tag + "sent", sh.sent_total());
    R.fp(tag + "drops", total_drops(sh.host().sched()));
    R.fp(tag + "backlog", sh.host().sched().backlog_packets());
    R.fp(tag + "gov_level", static_cast<std::uint64_t>(sh.host().gov_level()));
    sh.resume();
  }
  R.metric("rt_delay_p99_ms", percentile(rt_delays, 0.99), "ms");
  R.samples["rt_delay_p99_ms"] = rt_delays.size();

  // ---- timed phase ---------------------------------------------------------
  const double budget_ns = o.seconds * 1e9;
  const double cpu0 = cpu_seconds();
  const std::uint64_t s0[2] = {sent(0), sent(1)};
  const std::uint64_t t_start = now_ns();
  Samples plain_seg, traced_seg;  // ns per push
  AtRefSpeed seg_rate;            // packets the shards sent per second, per segment
  for (std::uint64_t seg = 0; !gave_up; ++seg) {
    traced = o.trace && seg % 2 == 1;
    seg_rate.probe();
    const std::uint64_t sent0 = sent(0) + sent(1);
    const std::uint64_t t0 = now_ns();
    if (traced) seg_span = rec.open(seg_name, 0, t0, seg);
    const std::uint64_t end = i + kSegment;
    for (; i < end && !gave_up; ++i) push(i);
    const std::uint64_t t1 = now_ns();
    if (traced) rec.close(seg_span, t1);
    (traced ? traced_seg : plain_seg).add(static_cast<double>(t1 - t0) / kSegment);
    seg_rate.rate(static_cast<double>(sent(0) + sent(1) - sent0) /
                  (static_cast<double>(t1 - t0) / 1e9));
    if (static_cast<double>(t1 - t_start) >= budget_ns) break;
  }
  traced = false;
  const std::uint64_t t_end = now_ns();
  const double wall = static_cast<double>(t_end - t_start) / 1e9;
  const double cpu = cpu_seconds() - cpu0;
  const std::uint64_t d0 = sent(0) - s0[0], d1 = sent(1) - s0[1];
  R.ops(i);
  if (gave_up) R.fail("shard: an enqueue was still refused after the retry budget");
  seg_rate.report(R, "pkts_per_s", "pkt/s");

  // Output checks at run end.
  const hfsc::ShardedRuntime::Totals tot = rt->quiesce_totals();
  R.check(tot.conserved(), "shard: conservation broken: " + tot.to_string());
  std::string why;
  R.check(rt->audit_all(&why), "shard: audit: " + why);
  R.check(tot.restarts == 0, "shard: a shard restarted");
  for (int s = 0; s < 2; ++s) {
    R.check(rt->shard(s).max_rt_delay() <= shard_bound[static_cast<std::size_t>(s)],
            "shard " + std::to_string(s) + ": max rt delay over its Theorem 2 bound");
  }
  rt->stop();
  R.metric("rss_mb", peak_rss_mb(), "MB");

  if (!o.trace) return R;
  R.metric("runtime.sharded.enqueue_ns", enq_ns.p(0.5), "ns");
  R.samples["runtime.sharded.enqueue_ns"] = enq_ns.size();
  R.metric("runtime.sharded.refused_ratio",
           attempts ? static_cast<double>(refused) / static_cast<double>(attempts) : 0, "1");
  R.metric("runtime.sharded.ring_depth_p99", percentile(ring_depth, 0.99), "count");
  R.metric("runtime.sharded.cores_busy", cpu / wall, "1");
  R.metric("runtime.shard.sent.0", static_cast<double>(d0), "count");
  R.metric("runtime.shard.sent.1", static_cast<double>(d1), "count");
  std::uint64_t events = 0;
  int level_max = 0;
  for (int s = 0; s < 2; ++s) {
    events += rt->shard(s).host().drain_events().size();
    level_max = std::max(level_max, rt->shard(s).host().gov_level());
  }
  R.metric("runtime.governor.level_max", level_max, "count");
  R.metric("runtime.governor.events", static_cast<double>(events), "count");
  const double plain = plain_seg.p(0.5), tr = traced_seg.p(0.5);
  R.metric("trace.overhead_ratio", plain > 0 ? tr / plain - 1 : 0, "1");
  R.metric("trace.spans", static_cast<double>(rec.spans().size()), "count");
  if (!o.trace_out.empty()) {
    std::ofstream out(o.trace_out);
    rec.write(out);
  }
  return R;
}

}  // namespace pb
