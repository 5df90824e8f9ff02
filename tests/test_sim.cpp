#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "closure_scheduler.hpp"

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
  EXPECT_EQ(q.next_seq(), 1u);
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

TEST(EventQueue, ReserveGrowsCapacityUpfront) {
  EventQueue q;
  q.reserve(4096);
  const std::size_t cap = q.capacity();
  EXPECT_GE(cap, 4096u);
  for (std::uint32_t i = 0; i < 4096; ++i) q.schedule(typed(1.0, i));
  EXPECT_EQ(q.capacity(), cap);  // no reallocation while within reserve
}

TEST(EventQueueDeath, SchedulingInThePastRejected) {
  EventQueue q;
  q.schedule(typed(10.0, 0));
  (void)q.pop();
  EXPECT_DEATH(q.schedule(typed(5.0, 1)), "DTN_ASSERT");
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
