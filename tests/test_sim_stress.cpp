// Stress/property tests of the discrete-event core: random schedules,
// interleaved with pops, replay in exact (time, insertion) order, and
// nested scheduling during execution stays consistent.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "closure_scheduler.hpp"
#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace dtn::sim {
namespace {

class EventQueueStressTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EventQueueStressTest, RandomScheduleReplaysInOrder) {
  // A bulk load, then schedules interleaved with pops (each new event at
  // or after the last popped time, as fault events are), then a drain.
  // Every pop must match a reference model: the pending events kept
  // sorted by (time, insertion id).
  Rng rng(GetParam());
  EventQueue q;
  struct Pending {
    double time;
    std::uint32_t id;
  };
  const auto earlier = [](const Pending& x, const Pending& y) {
    return x.time < y.time || (x.time == y.time && x.id < y.id);
  };
  std::vector<Pending> model;  // sorted by `earlier`
  std::uint32_t next_id = 0;
  const auto schedule = [&](std::uint64_t spread) {
    // Coarse time grid to force plenty of ties, with queued events and
    // with the last popped time.
    Event ev;
    ev.time = std::max(q.last_popped(), 0.0) +
              static_cast<double>(rng.uniform_index(spread));
    ev.kind = EventKind::kArrival;
    ev.a = next_id++;
    q.schedule(ev);
    const Pending p{ev.time, ev.a};
    model.insert(std::upper_bound(model.begin(), model.end(), p, earlier), p);
  };
  std::size_t pops = 0;
  const auto pop_and_check = [&] {
    ASSERT_FALSE(model.empty());
    const Event ev = q.pop();
    ASSERT_EQ(ev.time, model.front().time) << "pop " << pops;
    ASSERT_EQ(ev.a, model.front().id) << "pop " << pops;
    model.erase(model.begin());
    ++pops;
  };

  for (int i = 0; i < 1000; ++i) schedule(200);
  for (int step = 0; step < 6000; ++step) {
    // Lean toward scheduling in the first half and toward popping in
    // the second, so the queue grows and shrinks through many sizes.
    const double p_schedule = step < 3000 ? 0.6 : 0.4;
    if (model.empty() || rng.bernoulli(p_schedule)) {
      schedule(20);
    } else {
      ASSERT_NO_FATAL_FAILURE(pop_and_check());
    }
    ASSERT_EQ(q.size(), model.size());
  }
  while (!q.empty()) ASSERT_NO_FATAL_FAILURE(pop_and_check());
  EXPECT_TRUE(model.empty());
  EXPECT_EQ(q.popped(), next_id);
}

TEST_P(EventQueueStressTest, NestedSchedulingKeepsOrder) {
  Rng rng(GetParam() ^ 0xbeef);
  Simulator sim;
  dtn::testing::ClosureScheduler closures(sim);
  std::vector<double> fired;
  // Seed events that spawn follow-ups at random future offsets.
  std::function<void(int)> spawn = [&](int depth) {
    fired.push_back(sim.now());
    if (depth < 3) {
      const double delay = 1.0 + static_cast<double>(rng.uniform_index(50));
      closures.after(delay, [&, depth] { spawn(depth + 1); });
    }
  };
  for (int i = 0; i < 200; ++i) {
    closures.at(static_cast<double>(rng.uniform_index(100)),
                [&] { spawn(0); });
  }
  closures.run();
  for (std::size_t i = 1; i < fired.size(); ++i) {
    ASSERT_LE(fired[i - 1], fired[i]);
  }
  EXPECT_EQ(fired.size(), 200u * 4u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventQueueStressTest,
                         ::testing::Values(1ull, 9ull, 77ull));

}  // namespace
}  // namespace dtn::sim
