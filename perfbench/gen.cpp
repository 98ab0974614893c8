#include "gen.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace pb {

namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  std::uint64_t z = (x += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

TimeNs to_ns(double t) { return static_cast<TimeNs>(std::llround(t)); }

RateBps to_rate(double bytes_per_s) {
  return static_cast<RateBps>(std::max(1.0, std::floor(bytes_per_s)));
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  for (auto& w : s_) w = splitmix64(seed);
}

std::uint64_t Rng::next() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

std::uint64_t Rng::below(std::uint64_t n) { return n == 0 ? 0 : next() % n; }

double Rng::exponential(double mean) {
  return -mean * std::log1p(-uniform());
}

std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t x = seed ^ (stream * 0xd1b54a32d192ed03ULL);
  splitmix64(x);
  return splitmix64(x);
}

Bytes imix_len(Rng& rng) {
  const std::uint64_t k = rng.below(12);
  return k < 7 ? 64 : (k < 11 ? 576 : 1500);
}

hfsc::ServiceCurve RtReq::curve() const { return hfsc::from_udr(u, d, r); }

// ---- hierarchies -----------------------------------------------------------

namespace {

// The j-th rt leaf's requirement: burst u of 1500 or 3000 bytes, token
// rate `base` times 1, 2 or 4, and one delay d for every leaf, the one
// that gives the tightest mix (1500 bytes at 4x base) a first slope u/d
// of 2x its rate.  Every curve is concave, with a first slope 2x to 16x
// its rate, and a hierarchy's rt leaves share one Theorem 2 bound, so a
// check of the largest delay among them bounds each leaf.  The mix
// cycles with j, so it is the same for every seed.
double rt_weight(std::size_t j) { return static_cast<double>(1u << ((j / 4) % 3)); }

RtReq make_req(std::size_t j, double base) {
  RtReq q;
  q.u = j % 2 == 0 ? 1500 : 3000;
  q.r = to_rate(rt_weight(j) * base);
  q.d = to_ns(0.5 * 1500 / (4 * base) * 1e9);
  return q;
}

}  // namespace

Layout make_layout(const LayoutParams& p, std::uint64_t seed) {
  Rng rng(sub_seed(seed, 1));
  Layout L;
  L.link = p.link;
  const int nodes = std::max(p.shards, 1);
  const double C = static_cast<double>(p.link);

  // Declare the tree depth-first: parent before child.
  struct Frame {
    int parent;
    int level;
    double ls_rate;
    std::string prefix;
  };
  const int depth = static_cast<int>(p.fanout.size());
  std::vector<Frame> stack;
  const double top_rate = C * nodes / p.fanout[0];
  for (int i = p.fanout[0] - 1; i >= 0; --i) {
    stack.push_back(Frame{-1, 0, top_rate, "t" + std::to_string(i)});
  }
  const std::uint64_t rt_offset = rng.below(static_cast<std::uint64_t>(p.rt_every));
  std::uint64_t leaf_no = 0;
  int top_no = 0;
  std::vector<int> leaf_idx;
  while (!stack.empty()) {
    Frame f = stack.back();
    stack.pop_back();
    ClassDef c;
    c.parent = f.parent;
    c.name = f.prefix;
    c.leaf = f.level == depth - 1;
    if (f.parent < 0) {
      if (p.shards > 0) c.shard = top_no % p.shards;
      ++top_no;
    }
    const int idx = static_cast<int>(L.classes.size());
    if (c.leaf) {
      c.rt = (leaf_no++ % static_cast<std::uint64_t>(p.rt_every)) == rt_offset;
      c.qlimit = p.qlimit;
      c.cfg = hfsc::ClassConfig::link_share_only(
          hfsc::ServiceCurve::linear(to_rate(f.ls_rate)));
      leaf_idx.push_back(idx);
    } else {
      c.cfg = hfsc::ClassConfig::link_share_only(
          hfsc::ServiceCurve::linear(to_rate(f.ls_rate)));
      const int n = p.fanout[static_cast<std::size_t>(f.level + 1)];
      const char tag = f.level + 1 == depth - 1 ? 'l' : 'm';
      for (int j = n - 1; j >= 0; --j) {
        stack.push_back(Frame{idx, f.level + 1, f.ls_rate / n,
                              f.prefix + "." + tag + std::to_string(j)});
      }
    }
    L.classes.push_back(std::move(c));
  }

  // Shard (node) of every class: the pin of its top-level ancestor.
  std::vector<int> node_of(L.classes.size(), 0);
  for (std::size_t i = 0; i < L.classes.size(); ++i) {
    const ClassDef& c = L.classes[i];
    node_of[i] = c.parent < 0 ? std::max(c.shard, 0)
                              : node_of[static_cast<std::size_t>(c.parent)];
  }

  // rt requirements: token rates sum (times the fill) to rt_load of
  // every node's link.
  std::size_t n_rt = 0;
  double wsum = 0;
  for (int i : leaf_idx) {
    if (L.classes[static_cast<std::size_t>(i)].rt) wsum += rt_weight(n_rt++);
  }
  const double base = wsum > 0 ? p.rt_load * C * nodes / (kRtFill * wsum) : 0;
  std::vector<double> node_rt(static_cast<std::size_t>(nodes), 0.0);
  std::size_t j = 0;
  for (int i : leaf_idx) {
    ClassDef& c = L.classes[static_cast<std::size_t>(i)];
    if (!c.rt) continue;
    c.req = make_req(j++, base);
    c.cfg = hfsc::ClassConfig::both(c.req.curve());
    node_rt[static_cast<std::size_t>(node_of[static_cast<std::size_t>(i)])] +=
        kRtFill * static_cast<double>(c.req.r);
    L.rt_leaves.push_back(static_cast<std::uint32_t>(i + 1));
  }

  // ls-only leaves: Zipf(1.0) weights over a seeded shuffle.  With
  // several nodes the ranks are dealt round-robin across nodes (each
  // node's leaves shuffled), so every node carries nearly the same load
  // whatever the seed.
  std::vector<std::vector<int>> per_node(static_cast<std::size_t>(nodes));
  for (int i : leaf_idx) {
    if (!L.classes[static_cast<std::size_t>(i)].rt) {
      per_node[static_cast<std::size_t>(node_of[static_cast<std::size_t>(i)])].push_back(i);
    }
  }
  for (auto& v : per_node) {
    for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[rng.below(i)]);
  }
  std::vector<int> ls;
  for (std::size_t k = 0; ls.size() < leaf_idx.size(); ++k) {
    bool any = false;
    for (auto& v : per_node) {
      if (k < v.size()) {
        ls.push_back(v[k]);
        any = true;
      }
    }
    if (!any) break;
  }
  double h = 0;
  for (std::size_t k = 0; k < ls.size(); ++k) h += 1.0 / static_cast<double>(k + 1);
  std::vector<double> node_w(static_cast<std::size_t>(nodes), 0.0);
  for (std::size_t k = 0; k < ls.size(); ++k) {
    const double w = 1.0 / static_cast<double>(k + 1) / h;
    L.ls_leaves.push_back(static_cast<std::uint32_t>(ls[k] + 1));
    L.ls_weight.push_back(w);
    node_w[static_cast<std::size_t>(node_of[static_cast<std::size_t>(ls[k])])] += w;
  }
  // Aggregate ls rate: the busiest node sits at total_load.
  double ls_rate = -1;
  for (int n = 0; n < nodes; ++n) {
    const auto u = static_cast<std::size_t>(n);
    if (node_w[u] <= 0) continue;
    const double cap = (p.total_load * C - node_rt[u]) / node_w[u];
    if (ls_rate < 0 || cap < ls_rate) ls_rate = cap;
  }
  L.ls_rate = std::max(ls_rate, 0.0);

  // Every 4th top-level class is capped at 90% of the link: with any ul
  // curve present the ls criterion takes its fit-time path on every
  // dequeue and at every level.  Tighter caps idle the link at this
  // load: an activated class's ul curve starts without credit, so after
  // each packet a capped class waits about L/ul, and the link-sharing
  // descent does not backtrack out of a subtree whose active children
  // are all blocked.
  if (p.ul_caps) {
    int top = 0;
    for (ClassDef& c : L.classes) {
      if (c.parent < 0 && top++ % 4 == 1) {
        c.cfg.ul = hfsc::ServiceCurve::linear(to_rate(0.9 * C));
      }
    }
  }
  return L;
}

// ---- traffic ---------------------------------------------------------------

namespace {

bool heap_after(const auto& a, const auto& b) {
  return a.t > b.t || (a.t == b.t && a.src > b.src);
}

}  // namespace

TrafficGen::TrafficGen(const Layout& layout, std::uint64_t seed)
    : rng_(sub_seed(seed, 2)), ls_leaves_(layout.ls_leaves) {
  double acc = 0;
  for (double w : layout.ls_weight) {
    acc += w;
    ls_cdf_.push_back(acc);
  }
  if (layout.ls_rate > 0 && !ls_leaves_.empty()) {
    ls_gap_ = 1e9 * kImixMean / layout.ls_rate;
    ls_next_ = rng_.exponential(ls_gap_);
  }
  // Each rt source starts at a random phase within one bucket refill
  // time: sources with equal rates started together would stay
  // phase-locked by their token-limited emissions and arrive in bursts.
  for (std::uint32_t cls : layout.rt_leaves) {
    const RtReq& q = layout.classes[cls - 1].req;
    const double refill_ns = 1e9 * static_cast<double>(q.u) / static_cast<double>(q.r);
    add_rt_source(cls, q.u, q.r, to_ns(rng_.uniform() * refill_ns));
  }
}

void TrafficGen::add_rt_source(std::uint32_t cls, Bytes u, RateBps r,
                               TimeNs start) {
  if (rt_index_.size() <= cls) rt_index_.resize(cls + 1, -1);
  RtSource s;
  s.cls = cls;
  s.r = static_cast<double>(r) / 1e9;
  s.u = static_cast<double>(u);
  s.gap = 1e9 * kImixMean / (kRtFill * static_cast<double>(r));
  s.cand = static_cast<double>(start) + rng_.exponential(s.gap);
  // The bucket starts empty, so concatenated arrival cycles (and calls
  // restarted mid-run) still conform to (u, r): more starting tokens
  // could only ever have allowed more.
  s.tokens = 0;
  s.tok_t = static_cast<double>(start);
  s.last = static_cast<double>(start);
  s.live = true;
  rt_index_[cls] = static_cast<std::int64_t>(rt_.size());
  rt_.push_back(s);
  schedule(static_cast<std::uint32_t>(rt_.size() - 1));
}

void TrafficGen::remove_rt_source(std::uint32_t cls) {
  if (cls >= rt_index_.size() || rt_index_[cls] < 0) return;
  rt_[static_cast<std::size_t>(rt_index_[cls])].live = false;
  rt_index_[cls] = -1;
}

// Token-bucket shaper in front of a Poisson candidate process: the next
// packet leaves at the earliest instant after its candidate arrival, the
// previous emission (FIFO) and the moment the bucket holds its length.
void TrafficGen::schedule(std::uint32_t src) {
  RtSource& s = rt_[src];
  const auto len = static_cast<std::uint32_t>(imix_len(rng_));
  double e = std::max(s.cand, s.last);
  double tok = std::min(s.u, s.tokens + (e - s.tok_t) * s.r);
  if (tok < len) {
    e += (len - tok) / s.r;
    tok = len;
  }
  s.tokens = tok - len;
  s.tok_t = e;
  s.last = e;
  s.cand += rng_.exponential(s.gap);
  heap_.push_back(HeapEntry{e, src, len});
  std::push_heap(heap_.begin(), heap_.end(),
                 [](const HeapEntry& a, const HeapEntry& b) { return heap_after(a, b); });
}

double TrafficGen::peek() const {
  const double rt = heap_.empty() ? HUGE_VAL : heap_.front().t;
  const double ls = ls_gap_ > 0 ? ls_next_ : HUGE_VAL;
  return std::min(rt, ls);
}

Arrival TrafficGen::pop() {
  for (;;) {
    const double rt = heap_.empty() ? HUGE_VAL : heap_.front().t;
    if (ls_gap_ > 0 && ls_next_ <= rt) {
      const double u = rng_.uniform() * ls_cdf_.back();
      auto k = static_cast<std::size_t>(
          std::upper_bound(ls_cdf_.begin(), ls_cdf_.end(), u) - ls_cdf_.begin());
      k = std::min(k, ls_leaves_.size() - 1);
      Arrival a{to_ns(ls_next_), ls_leaves_[k],
                static_cast<std::uint32_t>(imix_len(rng_))};
      ls_next_ += rng_.exponential(ls_gap_);
      return a;
    }
    std::pop_heap(heap_.begin(), heap_.end(),
                  [](const HeapEntry& a, const HeapEntry& b) { return heap_after(a, b); });
    const HeapEntry e = heap_.back();
    heap_.pop_back();
    if (!rt_[e.src].live) continue;
    schedule(e.src);
    return Arrival{to_ns(e.t), rt_[e.src].cls, e.len};
  }
}

void TrafficGen::fill_until(std::vector<Arrival>& out, TimeNs t_end) {
  for (;;) {
    // Discard removed sources' pending draws before comparing times.
    while (!heap_.empty() && !rt_[heap_.front().src].live) {
      std::pop_heap(heap_.begin(), heap_.end(),
                    [](const HeapEntry& a, const HeapEntry& b) { return heap_after(a, b); });
      heap_.pop_back();
    }
    const double t = peek();
    if (t == HUGE_VAL || to_ns(t) >= t_end) return;
    out.push_back(pop());
  }
}

void TrafficGen::fill(std::vector<Arrival>& out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out.push_back(pop());
}

ArrivalCycle make_cycle(TrafficGen& gen, std::size_t n) {
  ArrivalCycle c;
  c.arrivals.reserve(n);
  gen.fill(c.arrivals, n);
  const TimeNs last = c.arrivals.back().t;
  c.period = last + last / n + 1;
  return c;
}

// ---- ctl_churn_4k ----------------------------------------------------------

namespace {

constexpr std::size_t kMaxCalls = 512;
constexpr std::uint64_t kFlashEvery = 64;
constexpr int kFlashSize = 32;

}  // namespace

ChurnPlan::ChurnPlan(const Layout& base, std::uint64_t seed)
    : rng_(sub_seed(seed, 3)),
      link_(base.link),
      next_id_(static_cast<std::uint32_t>(base.classes.size() + 1)) {
  for (std::size_t i = 0; i < base.classes.size(); ++i) {
    const ClassDef& c = base.classes[i];
    const auto id = static_cast<std::uint32_t>(i + 1);
    if (c.parent < 0) tenants_.push_back(id);
    if (c.leaf && !c.rt) ls_leaves_.push_back(id);
    if (c.rt) rt_m1_sum_ += static_cast<double>(c.cfg.rt.m1);
  }
}

CtlBatch ChurnPlan::next() {
  ++n_;
  CtlBatch b;
  const double C = static_cast<double>(link_);
  if (n_ % kFlashEvery == 0) {
    // Flash crowd: rt rates alone sum to twice the link.
    const hfsc::ServiceCurve big = hfsc::ServiceCurve::linear(link_ / 16);
    for (int i = 0; i < kFlashSize; ++i) {
      CtlOp op;
      op.kind = CtlOp::Kind::kAdd;
      op.parent = tenants_[rng_.below(tenants_.size())];
      op.cfg = hfsc::ClassConfig::both(big);
      b.ops.push_back(op);
    }
    b.expect_reject = true;
    return b;
  }
  auto new_req = [&] {
    RtReq q;
    q.u = 1500;
    const double r = 8000.0 * static_cast<double>(1u << rng_.below(3));
    const double f = rng_.below(2) == 0 ? 0.25 : 0.5;
    q.r = static_cast<RateBps>(r);
    q.d = static_cast<TimeNs>(std::llround(f * 1500.0 / r * 1e9));
    return q;
  };
  auto queue_limit_op = [&] {
    const int k = 1 + static_cast<int>(rng_.below(4));
    for (int i = 0; i < k; ++i) {
      CtlOp op;
      op.kind = CtlOp::Kind::kQueueLimit;
      const bool call = !calls_.empty() && rng_.below(4) == 0;
      op.cls = call ? calls_[rng_.below(calls_.size())].first
                    : ls_leaves_[rng_.below(ls_leaves_.size())];
      op.limit = 32 + rng_.below(225);
      b.ops.push_back(op);
    }
  };
  auto teardown = [&] {
    const int k = 1 + static_cast<int>(rng_.below(2));
    for (int i = 0; i < k && !calls_.empty(); ++i) {
      const std::size_t j = rng_.below(calls_.size());
      CtlOp op;
      op.kind = CtlOp::Kind::kDelete;
      op.cls = calls_[j].first;
      b.ops.push_back(op);
      b.stop_calls.push_back(calls_[j].first);
      rt_m1_sum_ -= static_cast<double>(calls_[j].second.curve().m1);
      calls_[j] = calls_.back();
      calls_.pop_back();
    }
  };

  const double u = rng_.uniform();
  if (u < 0.40) {
    const RtReq q = new_req();
    const double m1 = static_cast<double>(q.curve().m1);
    if (calls_.size() >= kMaxCalls || rt_m1_sum_ + m1 > 0.9 * C) {
      teardown();
      return b;
    }
    CtlOp add;
    add.kind = CtlOp::Kind::kAdd;
    add.parent = tenants_[rng_.below(tenants_.size())];
    add.cfg = hfsc::ClassConfig::both(q.curve());
    b.ops.push_back(add);
    CtlOp ql;
    ql.kind = CtlOp::Kind::kQueueLimit;
    ql.cls = next_id_;
    ql.limit = 64;
    b.ops.push_back(ql);
    calls_.emplace_back(next_id_, q);
    b.start_calls.emplace_back(next_id_, q);
    rt_m1_sum_ += m1;
    ++next_id_;
  } else if (u < 0.70) {
    // Renegotiate: a sibling ls leaf's share (half the time) or a live
    // call's rt curve, restarting its source at the new token rate.
    CtlOp op;
    op.kind = CtlOp::Kind::kChange;
    if (calls_.empty() || rng_.below(2) == 0) {
      op.cls = ls_leaves_[rng_.below(ls_leaves_.size())];
      const double share = C / (16.0 * 256.0);
      op.cfg = hfsc::ClassConfig::link_share_only(hfsc::ServiceCurve::linear(
          static_cast<RateBps>(share * static_cast<double>(1u << rng_.below(3)) / 2)));
      b.ops.push_back(op);
    } else {
      const std::size_t j = rng_.below(calls_.size());
      const RtReq q = new_req();
      const double old_m1 = static_cast<double>(calls_[j].second.curve().m1);
      const double m1 = static_cast<double>(q.curve().m1);
      if (rt_m1_sum_ - old_m1 + m1 > 0.9 * C) {
        queue_limit_op();
        return b;
      }
      op.cls = calls_[j].first;
      op.cfg = hfsc::ClassConfig::both(q.curve());
      b.ops.push_back(op);
      rt_m1_sum_ += m1 - old_m1;
      calls_[j].second = q;
      b.stop_calls.push_back(op.cls);
      b.start_calls.emplace_back(op.cls, q);
    }
  } else if (u < 0.85 || calls_.empty()) {
    queue_limit_op();
  } else {
    teardown();
  }
  return b;
}

// ---- sim_backbone ----------------------------------------------------------

namespace {

std::string rate_str(double bytes_per_s) {
  std::ostringstream os;
  os << static_cast<std::uint64_t>(std::floor(bytes_per_s * 8)) << "bps";
  return os.str();
}

std::string ms_str(double ms) {
  std::ostringstream os;
  os << static_cast<std::uint64_t>(std::llround(ms * 1000)) << "us";
  return os.str();
}

}  // namespace

// Topology: four 1 Gb/s access nodes, two 2.5 Gb/s core nodes and two
// 1 Gb/s egress nodes.  Every routed flow enters at an access node,
// crosses one core node and, for two thirds of the flows, leaves through
// an egress node (2- and 3-hop routes).  Each node also carries local
// cross traffic, and each access node takes a few timed calls.
BackboneText make_backbone(std::uint64_t seed, double duration_s) {
  Rng rng(sub_seed(seed, 4));
  constexpr int kAccess = 4, kCore = 2, kEgress = 2;
  constexpr int kFlowsPerAccess = 96;
  constexpr int kLocal = 24;
  constexpr double kAccessRate = 125e6;  // bytes/s
  constexpr double kCoreRate = 312.5e6;
  constexpr double kEgressRate = 125e6;

  struct Flow {
    std::string name;
    int access, core, egress;  // egress -1 = 2-hop route
    bool rt;
    double rate;  // bytes/s offered
    Bytes pkt;
    std::string kind;
  };
  std::vector<Flow> flows;
  static const char* kKinds[] = {"poisson", "pareto", "tcpish", "video"};
  for (int a = 0; a < kAccess; ++a) {
    for (int i = 0; i < kFlowsPerAccess; ++i) {
      Flow f;
      f.name = "f" + std::to_string(a) + "_" + std::to_string(i);
      // The topology is fixed (routes, kinds, rt rates by index); the
      // seed draws the ls rates and every source's random stream.
      f.access = a;
      f.core = (a + i) % kCore;
      f.egress = i % 3 == 0 ? -1 : (a + i / 3) % kEgress;
      f.rt = i % 8 == 0;
      if (f.rt) {
        f.pkt = 200;
        f.rate = 32000.0 * static_cast<double>(1u << ((i / 8) % 3));  // 256k-1M bps
        f.kind = "cbr";
      } else {
        f.pkt = 1500;
        f.kind = kKinds[i % 4];
        // 0.55 of an access link spread over its ls flows.
        f.rate = 0.55 * kAccessRate / (kFlowsPerAccess * 7 / 8) *
                 (0.75 + 0.5 * rng.uniform());
      }
      flows.push_back(f);
    }
  }

  std::ostringstream os;
  os << "# generated backbone scenario (perfbench sim_backbone)\n";
  os << "duration " << ms_str(duration_s * 1000) << "\n";
  BackboneText out;

  auto rt_curve = [](const Flow& f) {
    // Burst of two packets within 1 ms, then twice the flow's rate.
    std::ostringstream c;
    c << "rt udr " << 2 * f.pkt << " 1ms " << rate_str(2 * f.rate) << " ls linear "
      << rate_str(2 * f.rate);
    return c.str();
  };
  auto emit_flow_class = [&](std::ostream& o, const Flow& f, double share) {
    o << "  class " << f.name << " root ";
    if (f.rt) {
      o << rt_curve(f);
    } else {
      o << "ls linear " << rate_str(share) << " qlimit 200";
    }
    o << "\n";
    if (f.rt) o << "  envelope " << f.name << " " << f.pkt << " " << rate_str(f.rate) << "\n";
    ++out.classes;
  };

  auto node_block = [&](const std::string& name, double rate,
                        const std::vector<const Flow*>& members, double local_load,
                        bool calls) {
    os << "node " << name << " " << rate_str(rate) << "\n";
    double ls_members = 0;
    for (const Flow* f : members) ls_members += f->rt ? 0 : 1;
    const double share = 0.6 * rate / std::max(1.0, ls_members);
    for (const Flow* f : members) emit_flow_class(os, *f, share);
    for (int l = 0; l < kLocal; ++l) {
      const std::string cls = name + "_x" + std::to_string(l);
      os << "  class " << cls << " root ls linear " << rate_str(0.3 * rate / kLocal)
         << " qlimit 100\n";
      ++out.classes;
      const double r = local_load * rate / kLocal;
      const std::uint64_t sd = rng.below(1u << 30);
      os << "  source poisson " << cls << " " << rate_str(r) << " 1000 0s "
         << ms_str(duration_s * 1000) << " " << sd << "\n";
    }
    if (calls) {
      // Timed churn: calls set up and torn down mid-run (local classes).
      for (int k = 0; k < 4; ++k) {
        const std::string cls = name + "_call" + std::to_string(k);
        const double t0 = duration_s * 1000 * (0.1 + 0.2 * k);
        os << "  at " << ms_str(t0) << " class " << cls
           << " root rt udr 400 5ms 64kbps ls linear 64kbps\n";
        os << "  at " << ms_str(t0) << " source cbr " << cls << " 64kbps 200\n";
        os << "  at " << ms_str(t0 + duration_s * 1000 * 0.3) << " delete " << cls << "\n";
      }
    }
    os << "end\n";
  };

  for (int a = 0; a < kAccess; ++a) {
    std::vector<const Flow*> m;
    for (const Flow& f : flows) {
      if (f.access == a) m.push_back(&f);
    }
    node_block("access" + std::to_string(a), kAccessRate, m, 0.3, true);
  }
  for (int c = 0; c < kCore; ++c) {
    std::vector<const Flow*> m;
    for (const Flow& f : flows) {
      if (f.core == c) m.push_back(&f);
    }
    node_block("core" + std::to_string(c), kCoreRate, m, 0.2, false);
  }
  for (int e = 0; e < kEgress; ++e) {
    std::vector<const Flow*> m;
    for (const Flow& f : flows) {
      if (f.egress == e) m.push_back(&f);
    }
    node_block("egress" + std::to_string(e), kEgressRate, m, 0.2, false);
  }

  for (const Flow& f : flows) {
    os << "route " << f.name << " access" << f.access << " core" << f.core;
    if (f.egress >= 0) os << " egress" << f.egress;
    os << "\n";
    if (f.rt) {
      os << "deadline " << f.name << " 50ms\n";
      ++out.rt_routes;
    }
  }
  const std::string stop = ms_str(duration_s * 1000);
  for (const Flow& f : flows) {
    const std::uint64_t sd = rng.below(1u << 30);
    os << "source ";
    if (f.kind == "cbr") {
      os << "cbr " << f.name << " " << rate_str(f.rate) << " " << f.pkt << " 0s " << stop;
    } else if (f.kind == "poisson") {
      os << "poisson " << f.name << " " << rate_str(f.rate) << " " << f.pkt << " 0s "
         << stop << " " << sd;
    } else if (f.kind == "pareto") {
      // On/off with mean on = off: peak twice the mean rate.
      os << "pareto " << f.name << " " << rate_str(2 * f.rate) << " " << f.pkt
         << " 2ms 2ms 1.5 0s " << stop << " " << sd;
    } else if (f.kind == "tcpish") {
      os << "tcpish " << f.name << " " << f.pkt << " 8 0s " << stop;
    } else {
      // 30 fps video at the flow's mean rate.
      const auto mean_frame = static_cast<std::uint64_t>(f.rate / 30.0);
      os << "video " << f.name << " 30 " << mean_frame << " " << 3 * mean_frame << " "
         << f.pkt << " 0s " << stop << " " << sd;
    }
    os << "\n";
  }
  out.text = os.str();
  return out;
}

std::uint64_t fnv1a(const void* data, std::size_t n, std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace pb
