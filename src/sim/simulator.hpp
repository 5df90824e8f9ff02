// Simulation clock + scheduler facade over the typed event queue.
//
// Every event is dispatched through a single function-pointer
// dispatcher installed by the owning engine.  `run_until` is the one
// event-merge loop over three sources, each already in (time, seq)
// order: a lazy event source (the trace cursor), the static schedule
// (every event known before the run, presorted once) and the queue,
// which holds only the events scheduled while the run goes.  The
// earliest head executes next; that is what lets a month-scale replay
// run without pushing its trace or its pre-drawn workload through a
// heap.  An optional step observer runs after every event and may
// suspend the loop; checkpointing and periodic auditing hang off it.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "sim/event.hpp"
#include "sim/event_queue.hpp"
#include "util/annotations.hpp"

namespace dtn::sim {

class Simulator {
 public:
  /// Typed-event dispatcher; receives every event.
  using DispatchFn = void (*)(void* ctx, const Event& ev);

  /// Install the dispatcher.  Required before any event fires.
  void set_dispatcher(DispatchFn fn, void* ctx) {
    dispatch_ = fn;
    dispatch_ctx_ = ctx;
  }

  /// Reserve seqs [0, floor) for the event source and the static
  /// schedule (see EventQueue).
  void set_seq_floor(std::uint64_t floor) { queue_.set_seq_floor(floor); }

  /// Install the static schedule: events sorted by (time, seq), whose
  /// seqs lie above the source's and below the queue's floor.  Required
  /// before the first run_until and before load (which restores only
  /// the position in it); may be empty.
  void set_static_schedule(std::vector<Event> events);
  [[nodiscard]] std::span<const Event> static_schedule() const {
    return static_;
  }
  /// The static events dispatched so far: a prefix of the schedule.
  [[nodiscard]] std::span<const Event> static_dispatched() const {
    return std::span<const Event>(static_).first(static_next_);
  }

  /// Current simulation time (time of the event being processed, or the
  /// initial time before the first event).
  [[nodiscard]] double now() const { return now_; }

  /// Schedule a typed event at absolute time `t` (>= now).
  void schedule(double t, Event ev) {
    DTN_ASSERT(t >= now_);
    ev.time = t;
    queue_.schedule(ev);
  }

  /// run_until's defaults: no event source, a step that never suspends.
  struct NoSource {
    [[nodiscard]] bool exhausted() const { return true; }
    [[nodiscard]] const Event& peek() const { return none; }
    void advance() {}
    Event none;
  };
  struct NoStep {
    bool operator()() const { return true; }
  };

  /// Run until the source, the static schedule and the queue are all
  /// exhausted or the clock passes `end_time`.  Events exactly at
  /// `end_time` still run.
  ///
  /// `Source` is a lazy stream with exhausted()/peek()/advance() whose
  /// events come in strictly increasing (time, seq) order, with seqs
  /// below the static schedule's; the replay engine passes its
  /// trace::TraceCursor, so the per-event calls inline.  The three seq
  /// ranges are disjoint and ordered — source, then static, then queue
  /// — so an equal-time tie goes to the source, then to the static
  /// schedule, and the heads' times alone decide the merge.
  ///
  /// `step()` runs after every dispatch(), and every dispatch is one
  /// event, so a step sees each executed-event count exactly once.
  /// Returning false suspends the loop with the clock at the last
  /// event's time.  Returns true when the loop ran to completion (clock
  /// set to `end_time`), false when `step` suspended it.
  template <class Source = NoSource, class Step = NoStep>
  bool run_until(double end_time, Source* source = nullptr, Step step = {}) {
    enum class From { kNone, kSource, kStatic, kQueue };
    while (true) {
      double t = std::numeric_limits<double>::infinity();
      From from = From::kNone;
      if (source != nullptr && !source->exhausted()) {
        t = source->peek().time;
        from = From::kSource;
      }
      if (static_next_ < static_.size() && static_[static_next_].time < t) {
        t = static_[static_next_].time;
        from = From::kStatic;
      }
      if (!queue_.empty() && queue_.next_time() < t) {
        t = queue_.next_time();
        from = From::kQueue;
      }
      if (from == From::kNone || t > end_time) break;
      Event ev;
      if (from == From::kSource) {
        ev = source->peek();
        source->advance();
      } else if (from == From::kStatic) {
        ev = static_[static_next_++];
      } else {
        ev = queue_.pop();
      }
      now_ = ev.time;
      ++executed_;
      dispatch(ev);
      if (!step()) return false;
    }
    now_ = end_time;
    return true;
  }

  [[nodiscard]] std::uint64_t events_executed() const { return executed_; }
  [[nodiscard]] std::size_t pending() const { return queue_.size(); }

  /// Read access to the underlying queue for invariant audits
  /// (EventQueue::audit) and introspection.
  [[nodiscard]] const EventQueue& queue() const { return queue_; }

  // -- checkpointing (src/persist/, docs/checkpointing.md) --------------
  /// The image holds the clock, the executed count, the static position
  /// and the queue.  `load` needs a simulator that has not run, with
  /// its static schedule already installed; it refuses a position past
  /// the schedule or out of step with the clock.  The owner reinstalls
  /// the dispatcher.
  void save(persist::Writer& w) const;
  void load(persist::Reader& r);

 private:
  template <class Ar>
  void fields(Ar& ar);

  void dispatch(const Event& ev) {
    DTN_ASSERT(dispatch_ != nullptr);
    dispatch_(dispatch_ctx_, ev);
  }

  DTN_CKPT_SKIP("rebuilt from the run's inputs before load; the image "
                "holds the position in it")
  std::vector<Event> static_;
  std::size_t static_next_ = 0;  // static events already dispatched
  EventQueue queue_;
  DTN_CKPT_SKIP("dispatch hook; the owner re-registers it before resume")
  DispatchFn dispatch_ = nullptr;
  DTN_CKPT_SKIP("dispatch hook; the owner re-registers it before resume")
  void* dispatch_ctx_ = nullptr;
  double now_ = 0.0;
  std::uint64_t executed_ = 0;
};

}  // namespace dtn::sim
