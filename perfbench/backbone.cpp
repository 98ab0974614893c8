// sim_backbone: the scenario engine end to end, single thread.
//
// A generated routed scenario — access, core and egress nodes, a few
// hundred classes per node, 2- and 3-hop routes, cbr / poisson / pareto
// / tcpish / video sources, rt flows with `envelope` and `deadline`,
// and timed `at` churn — goes through Scenario::parse, analyze,
// run_scenario and ScenarioResult::to_json.  The timed phase repeats
// run_scenario + to_json on the parsed scenario; every repetition must
// reproduce the first one's report.
#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "analysis/analyzer.hpp"
#include "sim/scenario.hpp"
#include "workloads.hpp"

namespace pb {

namespace {

double duration_s(bool quick) { return quick ? 0.02 : 0.25; }
constexpr int kSetupRuns = 31;  // set-up repetitions; setup_s is their median

std::uint64_t deliveries(const hfsc::Scenario& sc, const hfsc::ScenarioResult& r) {
  std::uint64_t n = 0;
  for (const auto& e : r.e2e) n += e.delivered;
  for (const auto& c : r.per_class) {
    if (sc.find_route(c.name) == nullptr) n += c.packets;
  }
  return n;
}

}  // namespace

std::uint64_t backbone_inputs(std::uint64_t seed, bool quick) {
  const BackboneText bt = make_backbone(seed, duration_s(quick));
  return fnv1a(bt.text.data(), bt.text.size());
}

Result run_backbone(const Options& o) {
  Result R;
  const BackboneText bt = make_backbone(o.seed, duration_s(o.quick));

  SpanRecorder rec;
  const std::uint32_t parse_name = rec.intern("sim.parse");
  const std::uint32_t analyze_name = rec.intern("analysis.analyze");
  const std::uint32_t run_name = rec.intern("sim.run_scenario");
  const std::uint32_t report_name = rec.intern("sim.to_json");
  const std::uint32_t rep_name = rec.intern("backbone.repetition");

  // Set-up: parse the scenario text, kSetupRuns times.
  hfsc::Scenario sc;
  Samples parse_ms;
  AtRefSpeed setup;
  for (int k = 0; k < kSetupRuns; ++k) {
    std::istringstream in(bt.text);
    setup.probe();
    const std::uint64_t t0 = now_ns();
    sc = hfsc::Scenario::parse(in, "sim_backbone.hfsc");
    const std::uint64_t t1 = now_ns();
    if (o.trace) rec.add(parse_name, 0, t0, t1, k);
    parse_ms.add(static_cast<double>(t1 - t0) / 1e6);
    setup.time(static_cast<double>(t1 - t0) / 1e9);
  }
  R.ops(1);
  setup.report(R, "setup_s", "s");
  R.check(sc.classes.size() == bt.classes, "backbone: parsed class count differs");

  // Static analysis (outside the timed phase).
  const std::uint64_t a0 = now_ns();
  const hfsc::AnalysisReport rep = hfsc::analyze(sc);
  const std::uint64_t a1 = now_ns();
  if (o.trace) rec.add(analyze_name, 0, a0, a1, 0);
  const double analyze_ms = static_cast<double>(a1 - a0) / 1e6;
  R.ops(1);
  R.check(rep.errors() == 0, "backbone: analyzer errors: " + std::to_string(rep.errors()));
  std::map<std::string, TimeNs> bound;
  for (const hfsc::FlowBudget& f : rep.flows) {
    if (f.e2e_delay) bound[f.cls] = *f.e2e_delay;
  }
  R.check(bound.size() == bt.rt_routes, "backbone: not every rt route has an e2e bound");

  // Timed phase: run_scenario + to_json, repeated.
  const double budget_ns = o.seconds * 1e9;
  double timed_ns = 0;
  std::uint64_t delivered = 0, departures = 0, reps = 0;
  Samples run_ms, report_ms, plain_rep, traced_rep;
  AtRefSpeed rep_rate;
  std::uint64_t first_digest = 0, first_report = 0;
  std::vector<double> rt_p99;
  do {
    const bool traced = o.trace && reps % 2 == 1;
    rep_rate.probe();
    const std::uint64_t t0 = now_ns();
    const hfsc::ScenarioResult res = hfsc::run_scenario(sc);
    const std::uint64_t t1 = now_ns();
    const std::string json = res.to_json();
    const std::uint64_t t2 = now_ns();
    if (traced) {
      const std::uint32_t span = rec.add(rep_name, 0, t0, t2, reps);
      rec.add(run_name, span, t0, t1, reps);
      rec.add(report_name, span, t1, t2, reps);
    }
    timed_ns += static_cast<double>(t2 - t0);
    run_ms.add(static_cast<double>(t1 - t0) / 1e6);
    report_ms.add(static_cast<double>(t2 - t1) / 1e6);
    (traced ? traced_rep : plain_rep).add(static_cast<double>(t2 - t0));
    const std::uint64_t got = deliveries(sc, res);
    delivered += got;
    rep_rate.rate(static_cast<double>(got) / (static_cast<double>(t2 - t0) / 1e9));
    departures += res.sent();
    R.ops(res.offered());
    const std::uint64_t report_hash = fnv1a(json.data(), json.size());
    if (reps == 0) {
      first_digest = res.state_digest;
      first_report = report_hash;
      R.fp("digest", res.state_digest);
      R.fp("report", report_hash);
      R.fp("departures", res.sent());
      R.fp("drops", res.dropped());
      R.fp("classes_rejected", res.classes_rejected);
      R.check(res.conserved(), "backbone: conservation broken");
      for (const auto& n : res.nodes) {
        R.check(n.conserved(), "backbone: node " + n.name + " does not conserve packets");
      }
      std::set<std::string> seen;
      for (const auto& e : res.e2e) {
        auto it = bound.find(e.cls);
        if (it == bound.end()) continue;
        seen.insert(e.cls);
        R.check(e.delivered > 0, "backbone: rt flow " + e.cls + " delivered nothing");
        R.check(e.max_delay_ms * 1e6 <= static_cast<double>(it->second) + 1000,
                "backbone: flow " + e.cls + " measured " + std::to_string(e.max_delay_ms) +
                    " ms over its bound " + std::to_string(it->second / 1e6) + " ms");
        rt_p99.push_back(e.p99_delay_ms);
      }
      R.check(seen.size() == bound.size(), "backbone: a bounded route reported no e2e row");
    } else {
      R.check(res.state_digest == first_digest && report_hash == first_report,
              "backbone: a repeated run produced a different report");
    }
    ++reps;
  } while (timed_ns < budget_ns);

  rep_rate.report(R, "pkts_per_s", "pkt/s");
  // Routed rt flows' end-to-end p99, averaged over the flows.
  double mean_p99 = 0;
  for (double v : rt_p99) mean_p99 += v / static_cast<double>(rt_p99.size());
  R.metric("rt_delay_p99_ms", mean_p99, "ms");
  R.samples["rt_delay_p99_ms"] = rt_p99.size();
  R.metric("rss_mb", peak_rss_mb(), "MB");
  if (!o.trace) return R;

  R.metric("sim.parse_ms", parse_ms.p(0.5), "ms");
  R.metric("sim.run_ns_per_pkt", run_ms.p(0.5) * 1e6 / static_cast<double>(departures / reps),
           "ns");
  R.metric("sim.report_ms", report_ms.p(0.5), "ms");
  R.metric("sim.hops_per_pkt", static_cast<double>(departures) / static_cast<double>(delivered),
           "1");
  R.metric("sim.rt_delay_p99_ms", mean_p99, "ms");
  R.metric("analysis.analyze_ms", analyze_ms, "ms");
  R.metric("analysis.flows", static_cast<double>(rep.flows.size()), "count");
  R.metric("analysis.ms_per_flow",
           rep.flows.empty() ? 0 : analyze_ms / static_cast<double>(rep.flows.size()), "ms");
  const double plain = plain_rep.p(0.5), tr = traced_rep.p(0.5);
  R.metric("trace.overhead_ratio", plain > 0 && tr > 0 ? tr / plain - 1 : 0, "1");
  R.metric("trace.spans", static_cast<double>(rec.spans().size()), "count");
  if (!o.trace_out.empty()) {
    std::ofstream out(o.trace_out);
    rec.write(out);
  }
  return R;
}

}  // namespace pb
