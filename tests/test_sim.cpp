#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "closure_scheduler.hpp"
#include "persist/serializer.hpp"

namespace dtn::sim {
namespace {

using dtn::testing::ClosureScheduler;

constexpr double kForever = std::numeric_limits<double>::infinity();

Event typed(double t, std::uint32_t a, EventKind kind = EventKind::kArrival) {
  Event ev;
  ev.time = t;
  ev.kind = kind;
  ev.a = a;
  return ev;
}

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  q.schedule(typed(3.0, 3));
  q.schedule(typed(1.0, 1));
  q.schedule(typed(2.0, 2));
  std::vector<std::uint32_t> order;
  while (!q.empty()) order.push_back(q.pop().a);
  EXPECT_EQ(order, (std::vector<std::uint32_t>{1, 2, 3}));
}

TEST(EventQueue, TiesBreakInInsertionOrder) {
  EventQueue q;
  for (std::uint32_t i = 0; i < 10; ++i) q.schedule(typed(5.0, i));
  for (std::uint32_t i = 0; i < 10; ++i) EXPECT_EQ(q.pop().a, i);
}

TEST(EventQueue, NextTimeAndSize) {
  EventQueue q;
  q.schedule(typed(4.0, 0));
  q.schedule(typed(2.0, 1));
  EXPECT_EQ(q.size(), 2u);
  EXPECT_DOUBLE_EQ(q.next_time(), 2.0);
}

TEST(EventQueue, SchedulingAtCurrentTimeRunsAfterQueuedTies) {
  // The contract allows t == last_popped(): the late event's larger seq
  // orders it after everything already queued at that instant.
  EventQueue q;
  q.schedule(typed(1.0, 0));
  q.schedule(typed(1.0, 1));
  EXPECT_EQ(q.pop().a, 0u);
  EXPECT_DOUBLE_EQ(q.last_popped(), 1.0);
  q.schedule(typed(1.0, 2));  // t == last_popped(): legal
  EXPECT_EQ(q.pop().a, 1u);
  EXPECT_EQ(q.pop().a, 2u);
}

TEST(EventQueue, SeqFloorReservesLowSequences) {
  EventQueue q;
  q.set_seq_floor(1000);
  EXPECT_EQ(q.schedule(typed(1.0, 0)), 1000u);
  EXPECT_EQ(q.schedule(typed(1.0, 1)), 1001u);
}

TEST(EventQueueDeath, SchedulingInThePastRejected) {
  EventQueue q;
  q.schedule(typed(10.0, 0));
  (void)q.pop();
  EXPECT_DEATH(q.schedule(typed(5.0, 1)), "DTN_ASSERT");
}

// -- checkpoint image ----------------------------------------------------

std::vector<std::uint8_t> image_of(const EventQueue& q) {
  persist::Writer w;
  w.begin_section("queue");
  q.save(w);
  w.end_section();
  w.finish();
  return w.buffer();
}

void load_image(EventQueue& q, const std::vector<std::uint8_t>& bytes) {
  persist::Reader r(bytes);
  r.expect_section("queue");
  q.load(r);
  r.end_section();
  r.finish();
}

// A hand-written image holding `events` in the given array order.
std::vector<std::uint8_t> raw_image(const std::vector<Event>& events) {
  persist::Writer w;
  w.begin_section("queue");
  w.u64(1000);  // next_seq
  w.u64(0);     // popped
  w.f64(-kForever);
  w.u64(events.size());
  for (const Event& ev : events) {
    w.f64(ev.time);
    w.u64(ev.seq);
    w.u8(static_cast<std::uint8_t>(ev.kind));
    w.u32(ev.a);
    w.u32(ev.b);
  }
  w.end_section();
  w.finish();
  return w.buffer();
}

Event keyed(double t, std::uint64_t seq,
            EventKind kind = EventKind::kPacketGen) {
  Event ev = typed(t, static_cast<std::uint32_t>(seq), kind);
  ev.seq = seq;
  return ev;
}

TEST(EventQueueImage, LoadRestoresCountersAndPopOrder) {
  EventQueue q;
  q.set_seq_floor(100);
  // Five distinct times over forty events: most pops break a tie.
  for (std::uint32_t i = 0; i < 40; ++i) {
    q.schedule(typed(1.5 * static_cast<double>((i * 7) % 5), i,
                     EventKind::kPacketGen));
  }
  for (int i = 0; i < 9; ++i) (void)q.pop();
  const auto bytes = image_of(q);

  EventQueue restored;
  load_image(restored, bytes);
  EXPECT_EQ(image_of(restored), bytes);  // save -> load -> save
  EXPECT_EQ(restored.size(), q.size());
  EXPECT_EQ(restored.popped(), q.popped());
  EXPECT_EQ(restored.last_popped(), q.last_popped());
  // The next sequence number survives too: a follow-up scheduled "now"
  // gets the same seq and therefore the same tie position.
  EXPECT_EQ(restored.schedule(typed(q.last_popped(), 99)),
            q.schedule(typed(q.last_popped(), 99)));
  while (!q.empty()) {
    ASSERT_FALSE(restored.empty());
    const Event want = q.pop();
    const Event got = restored.pop();
    EXPECT_EQ(got.time, want.time);
    EXPECT_EQ(got.seq, want.seq);
    EXPECT_EQ(got.kind, want.kind);
    EXPECT_EQ(got.a, want.a);
  }
  EXPECT_TRUE(restored.empty());
}

TEST(EventQueueImage, ResumedQueueSavesTheSameImageAsTheUninterruptedOne) {
  // The live queue's heap array depends on its whole push/pop history;
  // the resumed one starts from a key-sorted array.  Fed the same
  // schedule/pop script, the two hold the same events in different
  // slots, and their images must still agree byte for byte.
  EventQueue heap_layout;
  load_image(heap_layout,
             raw_image({keyed(1.0, 1), keyed(3.0, 3), keyed(2.0, 2)}));
  EventQueue sorted_layout;
  load_image(sorted_layout,
             raw_image({keyed(1.0, 1), keyed(2.0, 2), keyed(3.0, 3)}));
  EXPECT_EQ(image_of(heap_layout), image_of(sorted_layout));

  std::uint64_t state = 0x9e3779b97f4a7c15ull;  // fixed xorshift stream
  auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  EventQueue live;
  for (std::uint32_t i = 0; i < 200; ++i) {
    live.schedule(typed(static_cast<double>(next() % 50), i));
  }
  for (int i = 0; i < 60; ++i) (void)live.pop();
  EventQueue resumed;
  load_image(resumed, image_of(live));

  for (std::uint32_t round = 0; round < 20; ++round) {
    for (std::uint32_t i = 0; i < 7; ++i) {
      const double t = live.last_popped() + static_cast<double>(next() % 10);
      EXPECT_EQ(live.schedule(typed(t, i)), resumed.schedule(typed(t, i)));
    }
    for (int i = 0; i < 5; ++i) {
      EXPECT_EQ(live.pop().seq, resumed.pop().seq);
    }
    EXPECT_EQ(image_of(live), image_of(resumed)) << "round " << round;
  }
}

TEST(EventQueueImage, LoadRejectsInvalidEvents) {
  EXPECT_NO_THROW({
    EventQueue q;
    load_image(q, raw_image({keyed(1.0, 1), keyed(2.0, 2)}));
  });
  const auto expect_rejected = [](const Event& bad) {
    EventQueue q;
    EXPECT_THROW(load_image(q, raw_image({keyed(1.0, 1), bad})),
                 persist::FormatError);
  };
  // Closures live in a test-only scheduler and are never checkpointed.
  expect_rejected(keyed(2.0, 2, EventKind::kCallback));
  expect_rejected(keyed(
      2.0, 2,
      static_cast<EventKind>(static_cast<int>(EventKind::kStationUp) + 1)));
  expect_rejected(keyed(-1.0, 2));
  expect_rejected(keyed(std::numeric_limits<double>::quiet_NaN(), 2));
}

TEST(EventQueueImage, LoadAcceptsAnyHeapOrderButNothingElse) {
  // A valid min-heap that is not key-sorted loads and pops in order.
  EventQueue heap;
  load_image(heap, raw_image({keyed(1.0, 1), keyed(3.0, 3), keyed(2.0, 2)}));
  std::vector<std::uint64_t> seqs;
  while (!heap.empty()) seqs.push_back(heap.pop().seq);
  EXPECT_EQ(seqs, (std::vector<std::uint64_t>{1, 2, 3}));

  // A child earlier than its parent, by time or by the seq tie-break.
  EventQueue by_time;
  EXPECT_THROW(
      load_image(by_time, raw_image({keyed(2.0, 1), keyed(1.0, 2)})),
      persist::FormatError);
  EventQueue by_seq;
  EXPECT_THROW(
      load_image(by_seq, raw_image({keyed(1.0, 5), keyed(3.0, 6),
                                    keyed(1.0, 4)})),
      persist::FormatError);
}

TEST(Simulator, NowTracksEventTime) {
  Simulator sim;
  ClosureScheduler closures(sim);
  std::vector<double> times;
  closures.at(1.5, [&] { times.push_back(sim.now()); });
  closures.at(3.5, [&] { times.push_back(sim.now()); });
  closures.run();
  ASSERT_EQ(times.size(), 2u);
  EXPECT_DOUBLE_EQ(times[0], 1.5);
  EXPECT_DOUBLE_EQ(times[1], 3.5);
}

TEST(Simulator, AfterSchedulesRelative) {
  Simulator sim;
  ClosureScheduler closures(sim);
  double fired_at = -1.0;
  closures.at(2.0, [&] {
    closures.after(3.0, [&] { fired_at = sim.now(); });
  });
  closures.run();
  EXPECT_DOUBLE_EQ(fired_at, 5.0);
}

TEST(Simulator, CallbackTiesRunInScheduleOrder) {
  Simulator sim;
  ClosureScheduler closures(sim);
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    closures.at(5.0, [&order, i] { order.push_back(i); });
  }
  closures.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Simulator, ChainedCallbacksRunToCompletion) {
  // Each closure schedules its successor while it runs (growing the
  // scheduler's closure vector under its own feet).
  Simulator sim;
  ClosureScheduler closures(sim);
  int fired = 0;
  std::function<void()> chain = [&] {
    ++fired;
    if (fired < 100) closures.after(1.0, chain);
  };
  closures.at(0.0, chain);
  closures.run();
  EXPECT_EQ(fired, 100);
  EXPECT_EQ(sim.events_executed(), 100u);
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator sim;
  ClosureScheduler closures(sim);
  int fired = 0;
  closures.at(1.0, [&] { ++fired; });
  closures.at(2.0, [&] { ++fired; });
  closures.at(10.0, [&] { ++fired; });
  EXPECT_TRUE(sim.run_until(2.0));  // inclusive
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(sim.now(), 2.0);
  EXPECT_EQ(sim.pending(), 1u);
}

TEST(Simulator, StepRunsAfterEachDispatchAndCanSuspend) {
  Simulator sim;
  ClosureScheduler closures(sim);
  int fired = 0;
  for (int i = 1; i <= 5; ++i) {
    closures.at(static_cast<double>(i), [&] { ++fired; });
  }
  std::vector<int> seen;
  const auto suspend_at_three = [&] {
    seen.push_back(fired);
    return fired < 3;
  };
  Simulator::NoSource* none = nullptr;
  EXPECT_FALSE(sim.run_until(kForever, none, suspend_at_three));
  EXPECT_EQ(seen, (std::vector<int>{1, 2, 3}));
  // Suspended: the clock stays at the last event instead of jumping.
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
  EXPECT_EQ(sim.pending(), 2u);
  EXPECT_TRUE(sim.run_until(kForever));
  EXPECT_EQ(fired, 5);
  EXPECT_EQ(sim.events_executed(), 5u);
}

TEST(Simulator, RunUntilOnEmptyQueueAdvancesClock) {
  Simulator sim;
  sim.run_until(42.0);
  EXPECT_DOUBLE_EQ(sim.now(), 42.0);
}

TEST(Simulator, TypedEventsDispatchThroughInstalledDispatcher) {
  Simulator sim;
  std::vector<std::uint32_t> seen;
  sim.set_dispatcher(
      [](void* ctx, const Event& ev) {
        static_cast<std::vector<std::uint32_t>*>(ctx)->push_back(ev.a);
      },
      &seen);
  Event ev;
  ev.kind = EventKind::kTimeUnitTick;
  ev.a = 7;
  sim.schedule(1.0, ev);
  ev.a = 9;
  sim.schedule(0.5, ev);
  sim.run_until(kForever);
  EXPECT_EQ(seen, (std::vector<std::uint32_t>{9, 7}));
  EXPECT_EQ(sim.events_executed(), 2u);
}

// A minimal event source: a pre-sorted list with seqs below the floor.
class ListSource {
 public:
  explicit ListSource(std::vector<Event> events)
      : events_(std::move(events)) {}
  [[nodiscard]] bool exhausted() const { return next_ >= events_.size(); }
  [[nodiscard]] const Event& peek() const { return events_[next_]; }
  void advance() { ++next_; }

 private:
  std::vector<Event> events_;
  std::size_t next_ = 0;
};

TEST(Simulator, MergesSourceWithQueueInTimeSeqOrder) {
  Simulator sim;
  std::vector<std::pair<EventKind, std::uint32_t>> seen;
  sim.set_dispatcher(
      [](void* ctx, const Event& ev) {
        static_cast<std::vector<std::pair<EventKind, std::uint32_t>>*>(ctx)
            ->push_back({ev.kind, ev.a});
      },
      &seen);
  // Source events (seqs 0..2, below the floor) tie with queue events at
  // t=2.0: the source side must win the tie.
  std::vector<Event> src_events;
  for (std::uint32_t i = 0; i < 3; ++i) {
    Event ev;
    ev.time = static_cast<double>(i + 1);
    ev.seq = i;
    ev.kind = EventKind::kArrival;
    ev.a = i;
    src_events.push_back(ev);
  }
  ListSource source(std::move(src_events));
  sim.set_seq_floor(3);
  Event q1;
  q1.kind = EventKind::kTimeUnitTick;
  q1.a = 100;
  sim.schedule(2.0, q1);  // ties with source event at t=2
  Event q2;
  q2.kind = EventKind::kTimeUnitTick;
  q2.a = 200;
  sim.schedule(0.5, q2);  // before everything
  sim.run_until(10.0, &source);
  ASSERT_EQ(seen.size(), 5u);
  EXPECT_EQ(seen[0].second, 200u);                 // t=0.5 queue
  EXPECT_EQ(seen[1].second, 0u);                   // t=1 source
  EXPECT_EQ(seen[2].second, 1u);                   // t=2 source (tie win)
  EXPECT_EQ(seen[3].second, 100u);                 // t=2 queue
  EXPECT_EQ(seen[4].second, 2u);                   // t=3 source
  EXPECT_DOUBLE_EQ(sim.now(), 10.0);
}

TEST(Simulator, RunUntilLeavesLaterSourceEventsPending) {
  Simulator sim;
  int count = 0;
  sim.set_dispatcher(
      [](void* ctx, const Event&) { ++*static_cast<int*>(ctx); }, &count);
  std::vector<Event> src_events;
  for (std::uint32_t i = 0; i < 4; ++i) {
    Event ev;
    ev.time = static_cast<double>(i);
    ev.seq = i;
    ev.kind = EventKind::kArrival;
    src_events.push_back(ev);
  }
  ListSource source(std::move(src_events));
  sim.set_seq_floor(4);
  sim.run_until(2.0, &source);  // events at t=0,1,2 run; t=3 stays
  EXPECT_EQ(count, 3);
  EXPECT_FALSE(source.exhausted());
  EXPECT_DOUBLE_EQ(source.peek().time, 3.0);
}

}  // namespace
}  // namespace dtn::sim
