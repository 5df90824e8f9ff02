// Stress/property tests of the discrete-event core: random schedules
// replay in exact non-decreasing time order with FIFO tie-breaks, and
// nested scheduling during execution stays consistent.
#include <gtest/gtest.h>

#include <vector>

#include "closure_scheduler.hpp"
#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace dtn::sim {
namespace {

class EventQueueStressTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EventQueueStressTest, RandomScheduleReplaysInOrder) {
  Rng rng(GetParam());
  EventQueue q;
  struct Fired {
    double time;
    std::uint32_t id;
  };
  std::vector<Fired> fired;
  for (std::uint32_t i = 0; i < 2000; ++i) {
    // Coarse time grid to force plenty of ties.
    Event ev;
    ev.time = static_cast<double>(rng.uniform_index(200));
    ev.kind = EventKind::kArrival;
    ev.a = i;
    q.schedule(ev);
  }
  while (!q.empty()) {
    const Event ev = q.pop();
    fired.push_back({ev.time, ev.a});
  }
  ASSERT_EQ(fired.size(), 2000u);
  for (std::size_t i = 1; i < fired.size(); ++i) {
    ASSERT_LE(fired[i - 1].time, fired[i].time);
    if (fired[i - 1].time == fired[i].time) {
      // FIFO among ties: insertion ids increase.
      ASSERT_LT(fired[i - 1].id, fired[i].id);
    }
  }
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
