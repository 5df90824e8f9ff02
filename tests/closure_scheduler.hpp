// Closure scheduling on top of the typed simulator, for the event-core
// tests: the engine itself only ever schedules typed events, so opaque
// closures live here rather than in sim::Simulator.
//
// The scheduler installs itself as the simulator's dispatcher and keeps
// every scheduled closure in a plain vector; a kCallback event carries
// the closure's index.  Nothing is recycled — a test schedules a few
// thousand closures at most.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <utility>
#include <vector>

#include "sim/simulator.hpp"

namespace dtn::testing {

class ClosureScheduler {
 public:
  explicit ClosureScheduler(sim::Simulator& sim) : sim_(sim) {
    sim_.set_dispatcher(&ClosureScheduler::dispatch, this);
  }
  ClosureScheduler(const ClosureScheduler&) = delete;
  ClosureScheduler& operator=(const ClosureScheduler&) = delete;

  /// Run `fn` at absolute time `t` (>= now).
  void at(double t, std::function<void()> fn) {
    sim::Event ev;
    ev.kind = sim::EventKind::kCallback;
    ev.a = static_cast<std::uint32_t>(closures_.size());
    closures_.push_back(std::move(fn));
    sim_.schedule(t, ev);
  }

  /// Run `fn` `delay` seconds from now (delay >= 0).
  void after(double delay, std::function<void()> fn) {
    at(sim_.now() + delay, std::move(fn));
  }

  /// Run every scheduled closure, including the ones they schedule.
  void run() { sim_.run_until(std::numeric_limits<double>::infinity()); }

 private:
  static void dispatch(void* self, const sim::Event& ev) {
    auto& closures = static_cast<ClosureScheduler*>(self)->closures_;
    // Move the closure out first: it may schedule more, growing (and
    // reallocating) the vector while it runs.
    const std::function<void()> fn = std::move(closures[ev.a]);
    fn();
  }

  sim::Simulator& sim_;
  std::vector<std::function<void()>> closures_;
};

}  // namespace dtn::testing
