// TraceCursor: the presorted event array must emit exactly the event
// stream the retired eager enumeration produced — same times, same
// kinds, and the same node-major sequence numbers (tie order at equal
// timestamps).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <latch>
#include <thread>
#include <utility>
#include <vector>

#include "persist/serializer.hpp"
#include "sim/simulator.hpp"
#include "trace/cursor.hpp"
#include "trace/trace.hpp"

namespace dtn::trace {
namespace {

struct Expected {
  double time;
  std::uint64_t seq;
  sim::EventKind kind;
  NodeId node;
  std::uint32_t visit;

  friend bool operator==(const Expected&, const Expected&) = default;
};

// Reference enumeration: what the old engine scheduled upfront.  Seqs
// are node-major (node 0: visit 0 arrival, visit 0 departure, visit 1
// arrival, ...), then the stream is sorted by (time, seq).
std::vector<Expected> reference_stream(const Trace& t) {
  std::vector<Expected> out;
  std::uint64_t seq = 0;
  for (NodeId n = 0; n < t.num_nodes(); ++n) {
    const auto visits = t.visits(n);
    for (std::uint32_t v = 0; v < visits.size(); ++v) {
      out.push_back({visits[v].start, seq++, sim::EventKind::kArrival, n, v});
      out.push_back({visits[v].end, seq++, sim::EventKind::kDeparture, n, v});
    }
  }
  std::sort(out.begin(), out.end(), [](const Expected& a, const Expected& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  });
  return out;
}

std::vector<Expected> drain(TraceCursor& cursor) {
  std::vector<Expected> out;
  while (!cursor.exhausted()) {
    const sim::Event& ev = cursor.peek();
    out.push_back({ev.time, ev.seq, ev.kind, static_cast<NodeId>(ev.a), ev.b});
    cursor.advance();
  }
  return out;
}

void expect_matches_reference(const Trace& t) {
  TraceCursor cursor(t);
  const auto expected = reference_stream(t);
  EXPECT_EQ(cursor.total_events(), expected.size());
  const auto got = drain(cursor);
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].time, expected[i].time) << "event " << i;
    EXPECT_EQ(got[i].seq, expected[i].seq) << "event " << i;
    EXPECT_EQ(got[i].kind, expected[i].kind) << "event " << i;
    EXPECT_EQ(got[i].node, expected[i].node) << "event " << i;
    EXPECT_EQ(got[i].visit, expected[i].visit) << "event " << i;
  }
}

TEST(TraceCursor, EmptyTraceIsExhaustedImmediately) {
  Trace t(4, 2);
  t.finalize();
  TraceCursor cursor(t);
  EXPECT_TRUE(cursor.exhausted());
  EXPECT_EQ(cursor.total_events(), 0u);
}

TEST(TraceCursor, SingleVisitSingleNode) {
  Trace t(1, 2);
  t.add_visit({0, 1, 10.0, 25.0});
  t.finalize();
  TraceCursor cursor(t);
  EXPECT_EQ(cursor.total_events(), 2u);
  const auto got = drain(cursor);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].kind, sim::EventKind::kArrival);
  EXPECT_EQ(got[0].time, 10.0);
  EXPECT_EQ(got[0].seq, 0u);
  EXPECT_EQ(got[1].kind, sim::EventKind::kDeparture);
  EXPECT_EQ(got[1].time, 25.0);
  EXPECT_EQ(got[1].seq, 1u);
}

TEST(TraceCursor, ReplayedCountsEachNodesEventsAsTheyAreTaken) {
  Trace t(2, 2);
  t.add_visit({0, 0, 1.0, 4.0});
  t.add_visit({0, 1, 5.0, 6.0});
  t.add_visit({1, 1, 2.0, 3.0});
  t.finalize();
  TraceCursor cursor(t);
  EXPECT_EQ(cursor.replayed(0), 0u);
  EXPECT_EQ(cursor.replayed(1), 0u);
  // Times 1..6: node 0 arrives, node 1 arrives and departs, node 0
  // departs, arrives and departs again.  An odd count means present.
  const std::vector<std::pair<std::uint32_t, std::uint32_t>> after = {
      {1, 0}, {1, 1}, {1, 2}, {2, 2}, {3, 2}, {4, 2}};
  for (const auto& [n0, n1] : after) {
    ASSERT_FALSE(cursor.exhausted());
    cursor.advance();
    EXPECT_EQ(cursor.replayed(0), n0);
    EXPECT_EQ(cursor.replayed(1), n1);
  }
  EXPECT_TRUE(cursor.exhausted());
}

TEST(TraceCursor, NodesWithoutVisitsAreSkipped) {
  // Nodes 0 and 3 never appear; seq bases must still be node-major.
  Trace t(4, 2);
  t.add_visit({1, 0, 5.0, 6.0});
  t.add_visit({2, 1, 1.0, 2.0});
  t.finalize();
  expect_matches_reference(t);
}

TEST(TraceCursor, SimultaneousArrivalsBreakTiesByNodeOrder) {
  // All four nodes arrive and depart at identical instants at the same
  // landmark.  Ties must resolve in node-major seq order — the order
  // routers observed under the old engine.
  Trace t(4, 1);
  for (NodeId n = 0; n < 4; ++n) {
    t.add_visit({n, 0, 100.0, 200.0});
    t.add_visit({n, 0, 300.0, 400.0});
  }
  t.finalize();
  expect_matches_reference(t);

  TraceCursor cursor(t);
  // First four events: arrivals of nodes 0..3 in that exact order.
  for (NodeId n = 0; n < 4; ++n) {
    ASSERT_FALSE(cursor.exhausted());
    EXPECT_EQ(cursor.peek().kind, sim::EventKind::kArrival);
    EXPECT_EQ(cursor.peek().a, n);
    cursor.advance();
  }
}

TEST(TraceCursor, InterleavedVisitsMatchEagerEnumeration) {
  // Irregular interleaving incl. zero-gap (depart == next arrive) and
  // cross-node ties.
  Trace t(3, 3);
  t.add_visit({0, 0, 0.0, 10.0});
  t.add_visit({0, 1, 10.0, 20.0});  // arrives exactly when it departed
  t.add_visit({0, 2, 30.0, 35.0});
  t.add_visit({1, 1, 5.0, 10.0});   // departs as node 0 switches
  t.add_visit({1, 2, 12.0, 30.0});
  t.add_visit({2, 0, 5.0, 35.0});   // long visit spanning everything
  t.finalize();
  expect_matches_reference(t);
}

TEST(TraceCursor, RunUntilBoundaryIsInclusive) {
  // Visits landing exactly on the run_until deadline: the arrival at
  // t == end runs, the departure after it stays pending.
  Trace t(2, 2);
  t.add_visit({0, 0, 10.0, 20.0});
  t.add_visit({1, 1, 20.0, 30.0});  // arrival exactly at the deadline
  t.finalize();
  TraceCursor cursor(t);

  sim::Simulator sim;
  std::vector<std::pair<sim::EventKind, std::uint32_t>> seen;
  sim.set_dispatcher(
      [](void* ctx, const sim::Event& ev) {
        static_cast<std::vector<std::pair<sim::EventKind, std::uint32_t>>*>(
            ctx)
            ->push_back({ev.kind, ev.a});
      },
      &seen);
  sim.set_seq_floor(cursor.total_events());
  sim.run_until(20.0, &cursor);

  // Arrival(0)@10, departure(0)@20, arrival(1)@20 all run (inclusive);
  // departure(1)@30 must still be pending in the cursor.
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0], (std::pair{sim::EventKind::kArrival, 0u}));
  EXPECT_EQ(seen[1], (std::pair{sim::EventKind::kDeparture, 0u}));
  EXPECT_EQ(seen[2], (std::pair{sim::EventKind::kArrival, 1u}));
  EXPECT_FALSE(cursor.exhausted());
  EXPECT_EQ(cursor.peek().time, 30.0);
  EXPECT_DOUBLE_EQ(sim.now(), 20.0);

  sim.run_until(30.0, &cursor);
  EXPECT_TRUE(cursor.exhausted());
  ASSERT_EQ(seen.size(), 4u);
  EXPECT_EQ(seen[3], (std::pair{sim::EventKind::kDeparture, 1u}));
}

// 17 nodes of up to 60 visits each on a coarse time grid, so many
// events tie across nodes.
Trace random_trace() {
  Trace t(17, 5);
  std::uint64_t state = 0x243f6a8885a308d3ull;  // fixed xorshift stream
  auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  for (NodeId n = 0; n < 17; ++n) {
    double at = static_cast<double>(next() % 50);
    const int visits = 1 + static_cast<int>(next() % 60);
    for (int v = 0; v < visits; ++v) {
      const double start = at + static_cast<double>(next() % 8);
      const double end = start + 1.0 + static_cast<double>(next() % 6);
      t.add_visit({n, static_cast<LandmarkId>(next() % 5), start, end});
      at = end + static_cast<double>(next() % 4);
    }
  }
  t.finalize();
  return t;
}

TEST(TraceCursor, LargeRandomTraceMatchesEagerEnumeration) {
  // Property check at a size where ordering bugs would surface.
  expect_matches_reference(random_trace());
}

TEST(TraceCursor, CursorsShareOneReplayOrderPerTrace) {
  const Trace t = random_trace();
  const Trace copy = t;  // copied before any cursor built the order
  TraceCursor a(t);
  TraceCursor b(t);
  TraceCursor c(copy);
  EXPECT_EQ(t.replay_order().get(), copy.replay_order().get());

  const auto expected = reference_stream(t);
  EXPECT_EQ(drain(a), expected);
  // Draining one cursor leaves the others at their start.
  ASSERT_FALSE(b.exhausted());
  EXPECT_EQ(b.peek().seq, expected.front().seq);
  EXPECT_EQ(b.replayed(expected.front().node), 0u);
  EXPECT_EQ(drain(b), expected);
  EXPECT_EQ(drain(c), expected);
}

TEST(TraceCursor, ConcurrentFirstUseBuildsTheOrderOnce) {
  // Four threads, released together, each build a cursor over one
  // trace whose order no cursor has built yet (a sweep's first
  // replays).  They must all end up sharing one order.
  constexpr int kThreads = 4;
  const Trace t = random_trace();
  const auto expected = reference_stream(t);
  std::latch start(kThreads);
  std::vector<std::vector<Expected>> streams(kThreads);
  std::vector<const ReplayOrder*> orders(kThreads, nullptr);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      start.arrive_and_wait();
      TraceCursor cursor(t);
      streams[i] = drain(cursor);
      orders[i] = t.replay_order().get();
    });
  }
  for (auto& thread : threads) thread.join();
  for (int i = 0; i < kThreads; ++i) {
    EXPECT_EQ(orders[i], orders[0]) << "thread " << i;
    EXPECT_EQ(streams[i], expected) << "thread " << i;
  }
}

TEST(TraceCursor, FractionalTimesMatchEagerEnumeration) {
  // Full-width mantissas across many binades, so every 16-bit digit of
  // the time key varies and no radix pass is skipped.
  Trace t(9, 3);
  std::uint64_t state = 0x9e3779b97f4a7c15ull;
  auto uniform = [&state] {  // [0, 1) from a fixed xorshift stream
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return static_cast<double>(state >> 11) * 0x1.0p-53;
  };
  for (NodeId n = 0; n < 9; ++n) {
    double at = uniform() * 1e-3;
    for (int v = 0; v < 40; ++v) {
      const double start = at + uniform() * (1.0 + at);
      const double end = start + uniform() * 50.0 + 1e-6;
      t.add_visit({n, static_cast<LandmarkId>(v % 3), start, end});
      at = end;
    }
  }
  t.finalize();
  expect_matches_reference(t);
}

TEST(TraceCursor, TimesOneUlpApartSortByTime) {
  // Arrivals a few ulps apart, in reverse node order: only the radix
  // pass over the lowest 16 bits of the key tells them apart.
  Trace t(4, 1);
  for (NodeId n = 0; n < 4; ++n) {
    double start = 1000.5;
    for (NodeId k = n; k < 3; ++k) start = std::nextafter(start, 2000.0);
    t.add_visit({n, 0, start, 1010.0 + n});
  }
  t.finalize();
  expect_matches_reference(t);
  TraceCursor cursor(t);
  EXPECT_EQ(cursor.peek().a, 3u);
}

// -- checkpoint image ----------------------------------------------------

std::vector<std::uint8_t> image_of(const TraceCursor& cursor) {
  persist::Writer w;
  w.begin_section("cursor");
  cursor.save(w);
  w.end_section();
  w.finish();
  return w.buffer();
}

void load_image(TraceCursor& cursor, const std::vector<std::uint8_t>& bytes) {
  persist::Reader r(bytes);
  r.expect_section("cursor");
  cursor.load(r);
  r.end_section();
  r.finish();
}

// Three nodes with tied visit times, so restored cursors must break
// ties exactly like the live one.
Trace tied_trace() {
  Trace t(3, 2);
  t.add_visit({0, 0, 0.0, 10.0});
  t.add_visit({0, 1, 10.0, 20.0});
  t.add_visit({1, 0, 0.0, 10.0});
  t.add_visit({1, 1, 15.0, 20.0});
  t.add_visit({2, 1, 5.0, 10.0});
  t.add_visit({2, 0, 20.0, 30.0});
  t.finalize();
  return t;
}

TEST(TraceCursor, SaveLoadResumesTheRemainingStream) {
  const Trace t = tied_trace();
  TraceCursor full(t);
  const auto whole = drain(full);
  ASSERT_EQ(whole.size(), 12u);

  // Every cut point, including before the first and after the last event.
  for (std::size_t cut = 0; cut <= whole.size(); ++cut) {
    TraceCursor live(t);
    for (std::size_t i = 0; i < cut; ++i) live.advance();
    const auto bytes = image_of(live);

    TraceCursor restored(t);
    load_image(restored, bytes);
    EXPECT_EQ(image_of(restored), bytes) << "cut " << cut;
    const auto rest = drain(restored);
    ASSERT_EQ(rest.size(), whole.size() - cut) << "cut " << cut;
    for (std::size_t i = 0; i < rest.size(); ++i) {
      const Expected& want = whole[cut + i];
      EXPECT_EQ(rest[i].time, want.time) << "cut " << cut << " event " << i;
      EXPECT_EQ(rest[i].seq, want.seq) << "cut " << cut << " event " << i;
      EXPECT_EQ(rest[i].kind, want.kind) << "cut " << cut << " event " << i;
      EXPECT_EQ(rest[i].node, want.node) << "cut " << cut << " event " << i;
      EXPECT_EQ(rest[i].visit, want.visit) << "cut " << cut << " event " << i;
    }
  }
}

TEST(TraceCursorDeathTest, MovedFromTraceHasNoReplayOrder) {
  // The replay order's holder moves with the trace, so a cursor over
  // the moved-from husk aborts instead of replaying nothing.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Trace t = tied_trace();
  const Trace taken = std::move(t);
  EXPECT_EQ(TraceCursor(taken).total_events(), 12u);
  // NOLINTNEXTLINE(bugprone-use-after-move): the husk is the point.
  EXPECT_DEATH(TraceCursor{t}, "replay_memo_ != nullptr");
}

TEST(TraceCursor, LoadRejectsImagesOfAnotherTrace) {
  const Trace t = tied_trace();
  TraceCursor cursor(t);
  const auto bytes = image_of(cursor);

  // Another node count.
  Trace wider(4, 2);
  wider.add_visit({3, 0, 0.0, 1.0});
  wider.finalize();
  TraceCursor other(wider);
  EXPECT_THROW(load_image(other, bytes), persist::FormatError);

  // A position past the node's last event (two events per visit).
  persist::Writer w;
  w.begin_section("cursor");
  w.u64(3);
  w.u32(4);  // node 0: both visits done
  w.u32(5);  // node 1 has only four events
  w.u32(0);
  w.end_section();
  w.finish();
  TraceCursor fresh(t);
  EXPECT_THROW(load_image(fresh, w.buffer()), persist::FormatError);

  // Positions each in range, but no prefix of the replay order: node 2
  // has both events up to t = 10 done while node 0's arrival at t = 0
  // is still pending.
  persist::Writer skew;
  skew.begin_section("cursor");
  skew.u64(3);
  skew.u32(0);
  skew.u32(0);
  skew.u32(2);
  skew.end_section();
  skew.finish();
  EXPECT_THROW(load_image(fresh, skew.buffer()), persist::FormatError);
}

}  // namespace
}  // namespace dtn::trace
