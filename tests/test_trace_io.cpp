// Tests for trace I/O: text round trip, typed parse errors, and
// record/replay through a link.
#include <gtest/gtest.h>

#include <sstream>

#include "sched/fifo.hpp"
#include "sim/simulator.hpp"
#include "sim/trace_io.hpp"
#include "util/errors.hpp"

namespace hfsc {
namespace {

TEST(TraceIo, RoundTripsThroughText) {
  const std::vector<TraceEntry> in = {
      {0, 1, 100}, {msec(1), 2, 1500}, {msec(2), 1, 60}};
  std::stringstream ss;
  write_trace(ss, in);
  const auto out = read_trace(ss);
  EXPECT_EQ(in, out);
}

TEST(TraceIo, ParsesCommentsAndBlankLines) {
  std::stringstream ss("# header\n\n100 1 64\n200 2 128  # trailing\n");
  const auto out = read_trace(ss);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], (TraceEntry{100, 1, 64}));
  EXPECT_EQ(out[1], (TraceEntry{200, 2, 128}));
}

TEST(TraceIo, RejectsMalformedLines) {
  std::stringstream ss("abc def\n");
  EXPECT_THROW(read_trace(ss), std::runtime_error);
  std::stringstream ss2("100 1\n");
  EXPECT_THROW(read_trace(ss2), std::runtime_error);
  std::stringstream ss3("100 1 0\n");  // zero length
  EXPECT_THROW(read_trace(ss3), std::runtime_error);
  std::stringstream ss4("100 0 64\n");  // root class
  EXPECT_THROW(read_trace(ss4), std::runtime_error);
  std::stringstream ss5("100 1 64 junk\n");  // trailing garbage
  EXPECT_THROW(read_trace(ss5), std::runtime_error);
}

TEST(TraceIo, MalformedLineRaisesTypedErrorWithByteOffset) {
  // Two good lines (offsets 0 and 9), then a corrupt third line whose
  // first byte sits at offset 18: the error must be the typed kBadTrace
  // and name both the line and that byte offset.
  std::stringstream ss("100 1 64\n200 2 32\n300 1 x4\n");
  try {
    read_trace(ss);
    FAIL() << "corrupt trace parsed";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), Errc::kBadTrace);
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("byte offset 18"), std::string::npos)
        << e.what();
  }
}

TEST(TraceIo, MissingFileRaisesTypedError) {
  try {
    read_trace_file("/nonexistent/trace.txt");
    FAIL() << "missing file opened";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), Errc::kBadTrace);
  }
}

TEST(TraceIo, BitFlipFixturesNeverEscapeTheErrorTaxonomy) {
  // Flip every bit of every byte of a healthy capture.  Each corrupted
  // image must either still parse (a digit flipped to another digit) or
  // raise exactly Error{kBadTrace} — never a crash, never any other
  // exception type.
  const std::string fixture =
      "# captured workload\n"
      "100 1 64\n"
      "250 2 1500\n"
      "\n"
      "999 3 40\n";
  int parsed = 0, rejected = 0;
  for (std::size_t i = 0; i < fixture.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = fixture;
      flipped[i] = static_cast<char>(flipped[i] ^ (1 << bit));
      std::stringstream ss(flipped);
      try {
        (void)read_trace(ss);
        ++parsed;
      } catch (const Error& e) {
        EXPECT_EQ(e.code(), Errc::kBadTrace);
        ++rejected;
      }
      // Anything else propagates and fails the test.
    }
  }
  // The sweep must have exercised both outcomes.
  EXPECT_GT(parsed, 0);
  EXPECT_GT(rejected, 0);
}

TEST(TraceIo, RecorderCapturesReplayReproduces) {
  // Record a stochastic workload, then replay it through a second run:
  // identical scheduler state machines must produce identical departures.
  auto record = [] {
    Fifo sched;
    Simulator sim(mbps(10), sched);
    TraceRecorder rec;
    rec.attach(sim.link());
    sim.add<PoissonSource>(1, mbps(3), 700, 0, msec(500), 9);
    sim.add<OnOffSource>(2, mbps(8), 1200, msec(20), msec(30), 0, msec(500),
                         10);
    sim.run_all();
    return rec.entries();
  };
  const auto trace = record();
  ASSERT_GT(trace.size(), 100u);

  auto run_replay = [&] {
    Fifo sched;
    EventQueue ev;
    Link link(ev, mbps(10), sched);
    std::vector<std::pair<TimeNs, ClassId>> departures;
    link.add_departure_hook([&](TimeNs t, const Packet& p) {
      departures.emplace_back(t, p.cls);
    });
    replay_trace(ev, link, trace);
    ev.run_all();
    return departures;
  };
  const auto a = run_replay();
  const auto b = run_replay();
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.size(), trace.size());
}

TEST(TraceIo, ItemsForClassFilters) {
  const std::vector<TraceEntry> trace = {
      {0, 1, 100}, {10, 2, 200}, {20, 1, 300}};
  const auto items = items_for_class(trace, 1);
  ASSERT_EQ(items.size(), 2u);
  EXPECT_EQ(items[0].len, 100u);
  EXPECT_EQ(items[1].len, 300u);
}

}  // namespace
}  // namespace hfsc
