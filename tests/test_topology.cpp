// Tests for the routed topology core: multi-node forwarding, end-to-end
// accounting on linear chains, composed H-FSC delay bounds against FIFO,
// and the packet-identity rules (explicit (route, seq) keys that never
// alias, FIFO order for duplicate keys).
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/hfsc.hpp"
#include "sched/fifo.hpp"
#include "sim/sources.hpp"
#include "sim/topology.hpp"
#include "util/errors.hpp"

namespace hfsc {
namespace {

TEST(Topology, RoutesAcrossNodesAndAccountsEndToEnd) {
  EventQueue ev;
  Topology topo(ev);
  const auto a = topo.add_node("a", mbps(10), std::make_unique<Fifo>());
  const auto b = topo.add_node("b", mbps(10), std::make_unique<Fifo>());
  const auto route = topo.add_route({{a, 1}, {b, 1}});

  CbrSource src(1, mbps(2), 1000, 0, sec(1));
  src.install(ev, topo.link(a));
  topo.run(sec(2));

  EXPECT_EQ(topo.delivered(route), 250u);
  EXPECT_EQ(topo.delivered_bytes(route), 250'000u);
  // Two hops at 0.8 ms serialization each.
  EXPECT_NEAR(topo.e2e_delay_ms(route).mean(), 1.6, 0.1);
  EXPECT_EQ(topo.in_flight(route), 0u);
  // Conservation at each hop: everything offered was sent.
  EXPECT_EQ(topo.offered(a), 250u);
  EXPECT_EQ(topo.link(a).packets_sent(), 250u);
  EXPECT_EQ(topo.offered(b), 250u);  // forwarded-in arrivals count
  EXPECT_EQ(topo.link(b).packets_sent(), 250u);
}

TEST(Topology, DeliversThroughAllHops) {
  EventQueue ev;
  Topology topo(ev);
  std::vector<Topology::Hop> hops;
  for (const char* name : {"n0", "n1", "n2"}) {
    const auto n = topo.add_node(name, mbps(10), std::make_unique<Fifo>());
    hops.push_back({n, 1});
  }
  const auto route = topo.add_route(std::move(hops));
  CbrSource src(1, mbps(2), 1000, 0, sec(1));
  src.install(ev, topo.link(0));
  ev.run_all();

  EXPECT_EQ(topo.delivered(route), 250u);
  EXPECT_EQ(topo.delivered_bytes(route), 250'000u);
  // Three hops at 0.8 ms serialization each.
  EXPECT_NEAR(topo.e2e_delay_ms(route).mean(), 2.4, 0.1);
  EXPECT_EQ(topo.in_flight(route), 0u);
}

TEST(Topology, RejectsBadWiring) {
  EventQueue ev;
  Topology topo(ev);
  const auto a = topo.add_node("a", mbps(10), std::make_unique<Fifo>());
  EXPECT_THROW(topo.add_node("a", mbps(10), std::make_unique<Fifo>()),
               Error);  // duplicate name
  EXPECT_THROW(topo.add_route({{a, 1}}), Error);  // fewer than 2 hops
  const auto b = topo.add_node("b", mbps(10), std::make_unique<Fifo>());
  EXPECT_THROW(topo.add_route({{a, 1}, {Topology::NodeIndex{99}, 1}}),
               Error);  // unknown node index
  (void)topo.add_route({{a, 1}, {b, 1}});
  // The (node, cls) pair is already covered by the first route.
  EXPECT_THROW(topo.add_route({{a, 1}, {b, 2}}), Error);
  EXPECT_EQ(topo.find("a"), a);
  EXPECT_EQ(topo.find("nope"), Topology::kNoNode);
}

// Regression: a folded end-to-end key `seq ^ (route << 48)` aliases
// distinct packets — (route 0, seq S) and (route 1, seq S ^ (1<<48)) map
// to the same entry, silently merging their entry times.  The explicit
// (route, seq) pair must keep them apart: inject exactly such a colliding
// pair and check both routes get their own correct delay.
TEST(Topology, DistinctRouteSeqPairsNeverAlias) {
  EventQueue ev;
  Topology topo(ev);
  const auto a = topo.add_node("a", mbps(8), std::make_unique<Fifo>());
  const auto b = topo.add_node("b", mbps(8), std::make_unique<Fifo>());
  const auto r1 = topo.add_route({{a, 1}, {b, 1}});
  const auto r2 = topo.add_route({{a, 2}, {b, 2}});

  const std::uint64_t s1 = (7ull << 48) | 5;
  const std::uint64_t s2 = s1 ^ (1ull << 48);  // folded-key collision with
                                               // (r1, s1) for r2
  ASSERT_EQ(s1 ^ (static_cast<std::uint64_t>(r1) << 48),
            s2 ^ (static_cast<std::uint64_t>(r2) << 48));

  Packet p1;
  p1.cls = 1;
  p1.seq = s1;
  p1.len = 1000;
  Packet p2;
  p2.cls = 2;
  p2.seq = s2;
  p2.len = 1000;
  // 1000 B at 8 Mb/s = 1 ms per hop; the second packet queues behind the
  // first at each hop, so its end-to-end delay is strictly larger.
  topo.link(a).on_arrival(0, p1);
  topo.link(a).on_arrival(0, p2);
  ev.run_all();

  EXPECT_EQ(topo.delivered(r1), 1u);
  EXPECT_EQ(topo.delivered(r2), 1u);
  EXPECT_NEAR(topo.e2e_delay_ms(r1).mean(), 2.0, 0.1);
  EXPECT_NEAR(topo.e2e_delay_ms(r2).mean(), 3.0, 0.1);
}

// Two sources feeding one routed class each number their packets from 0,
// so every (route, seq) key is held by two packets at once.  Entry times
// must drain FIFO per key: each packet gets its own exact delay.
TEST(Topology, DuplicateRouteSeqKeysDrainFifo) {
  EventQueue ev;
  Topology topo(ev);
  const auto a = topo.add_node("a", mbps(8), std::make_unique<Fifo>());
  const auto b = topo.add_node("b", mbps(8), std::make_unique<Fifo>());
  const auto route = topo.add_route({{a, 1}, {b, 1}});

  // 1000 B every 8 ms, 1 ms per hop: x enters at 0/8/16 ms and crosses
  // unqueued (2 ms); y enters 0.5 ms later, waits behind x at the first
  // hop and leaves the second 3 ms after x entered (2.5 ms).
  CbrSource x(1, mbps(1), 1000, 0, msec(24));
  CbrSource y(1, mbps(1), 1000, usec(500), msec(24) + usec(500));
  x.install(ev, topo.link(a));
  y.install(ev, topo.link(a));
  ev.run_all();

  EXPECT_EQ(topo.delivered(route), 6u);
  EXPECT_EQ(topo.in_flight(route), 0u);
  EXPECT_EQ(topo.e2e_delay_ms(route).samples(),
            (std::vector<double>{2.0, 2.5, 2.0, 2.5, 2.0, 2.5}));
}

// H-FSC at every hop bounds a routed real-time class's end-to-end delay
// near the sum of the per-hop bounds (~3 x 6.3 ms over three hops); FIFO
// leaves it to whatever the cross traffic dictates.  The greedy cross
// traffic is unrouted, so it is local to each hop.
TEST(Topology, HfscBoundsEndToEndDelayFifoDoesNot) {
  auto run = [](auto make) {
    EventQueue ev;
    Topology topo(ev);
    std::vector<Topology::Hop> hops;
    std::vector<std::unique_ptr<GreedySource>> cross;
    for (const char* name : {"n0", "n1", "n2"}) {
      const auto n = topo.add_node(name, mbps(10), make());
      hops.push_back({n, 1});
      cross.push_back(std::make_unique<GreedySource>(2, 1500, 8, 0, sec(3)));
      cross.back()->install(ev, topo.link(n));
    }
    const auto route = topo.add_route(std::move(hops));
    CbrSource audio(1, kbps(64), 160, 0, sec(3));
    audio.install(ev, topo.link(0));
    topo.run(sec(3) + msec(500));
    EXPECT_GT(topo.delivered(route), 0u);
    return topo.e2e_delay_ms(route).max();
  };

  const double fifo_delay = run([] { return std::make_unique<Fifo>(); });
  const double hfsc_delay = run([] {
    auto s = std::make_unique<Hfsc>(mbps(10));
    const ClassId audio = s->add_class(
        kRootClass, ClassConfig::both(from_udr(160, msec(5), kbps(640))));
    const ClassId bulk = s->add_class(
        kRootClass,
        ClassConfig::link_share_only(ServiceCurve::linear(mbps(9))));
    EXPECT_EQ(audio, 1u);
    EXPECT_EQ(bulk, 2u);
    return s;
  });
  EXPECT_LT(hfsc_delay, 3 * 6.3);
  EXPECT_LT(hfsc_delay, fifo_delay);
}

// Routed H-FSC hierarchies on every hop keep the real-time class's
// end-to-end delay near the sum of per-hop bounds even against greedy
// cross traffic entering mid-route.
TEST(Topology, HfscHopsBoundRoutedDelayAgainstCrossTraffic) {
  EventQueue ev;
  Topology topo(ev);
  auto make = [] {
    auto s = std::make_unique<Hfsc>(mbps(10));
    (void)s->add_class(kRootClass,
                       ClassConfig::both(from_udr(160, msec(5), kbps(640))));
    (void)s->add_class(kRootClass, ClassConfig::link_share_only(
                                       ServiceCurve::linear(mbps(9))));
    return s;
  };
  const auto a = topo.add_node("a", mbps(10), make());
  const auto b = topo.add_node("b", mbps(10), make());
  const auto route = topo.add_route({{a, 1}, {b, 1}});

  CbrSource audio(1, kbps(64), 160, 0, sec(3));
  audio.install(ev, topo.link(a));
  GreedySource bulk_a(2, 1500, 8, 0, sec(3));
  bulk_a.install(ev, topo.link(a));
  GreedySource bulk_b(2, 1500, 8, 0, sec(3));  // enters mid-route
  bulk_b.install(ev, topo.link(b));
  topo.run(sec(3) + msec(500));

  EXPECT_GT(topo.delivered(route), 0u);
  EXPECT_LT(topo.e2e_delay_ms(route).max(), 2 * 6.3);
}

}  // namespace
}  // namespace hfsc
