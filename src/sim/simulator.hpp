// Simulation clock + scheduler facade over the typed event queue.
//
// Every event is dispatched through a single function-pointer
// dispatcher installed by the owning engine.  `run_until` is the one
// event-merge loop: it optionally merges a lazy event source (the trace
// cursor) with the queue — at each iteration the earlier of (queue
// head, source head) in (time, seq) order executes — which is what lets
// a month-scale trace replay run without materializing millions of
// upfront events.  An optional step observer sees every batch boundary
// and may suspend the loop; checkpointing and periodic auditing hang
// off it.
#pragma once

#include <cstdint>

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

  /// Reserve seqs [0, floor) for an event source (see EventQueue).
  void set_seq_floor(std::uint64_t floor) { queue_.set_seq_floor(floor); }

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

  /// Run until the queue (and `source`, when given) empties or the
  /// clock passes `end_time`.  Events exactly at `end_time` still run.
  ///
  /// `Source` is a lazy stream with exhausted()/peek()/advance() whose
  /// events come in strictly increasing (time, seq) order, with seqs
  /// below the queue's floor (set_seq_floor) so they win same-time
  /// ties; the replay engine passes its trace::TraceCursor, so the
  /// per-event calls inline.
  ///
  /// `step()` runs after every dispatch().  A dispatch is one batch: the
  /// dispatcher may consume the same-time successors of the event it
  /// was handed straight from the source (absorb_external_event), so
  /// the step sees batch boundaries only — the points where engine
  /// state is coherent.  Returning false suspends the loop with the
  /// clock at the last event's time.  Returns true when the loop ran to
  /// completion (clock set to `end_time`), false when `step` suspended
  /// it.
  template <class Source = NoSource, class Step = NoStep>
  bool run_until(double end_time, Source* source = nullptr, Step step = {}) {
    while (true) {
      const bool queue_ready =
          !queue_.empty() && queue_.next_time() <= end_time;
      const bool source_ready = source != nullptr && !source->exhausted() &&
                                source->peek().time <= end_time;
      if (!queue_ready && !source_ready) break;
      bool take_source = source_ready;
      if (queue_ready && source_ready) {
        const Event& head = source->peek();
        take_source = head.time < queue_.next_time() ||
                      (head.time == queue_.next_time() &&
                       head.seq < queue_.next_seq());
      }
      Event ev;
      if (take_source) {
        ev = source->peek();
        source->advance();
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

  /// Account one event a dispatcher consumed directly from the active
  /// source (batched contact dispatch drains same-time runs inside one
  /// dispatch): events_executed() keeps counting events, not batches,
  /// so checkpoint images and cadences are the same as if every event
  /// had gone through the loop.  Only legal from inside a dispatch at
  /// the current time, so the clock needs no update.
  void absorb_external_event() { ++executed_; }
  [[nodiscard]] std::size_t pending() const { return queue_.size(); }

  /// Pre-size the queue storage.
  void reserve(std::size_t n) { queue_.reserve(n); }

  /// Read access to the underlying queue for invariant audits
  /// (EventQueue::audit) and introspection.
  [[nodiscard]] const EventQueue& queue() const { return queue_; }

  // -- checkpointing (src/persist/, docs/checkpointing.md) --------------
  /// `load` needs a simulator that has not run; the owner reinstalls the
  /// dispatcher.
  void save(persist::Writer& w) const;
  void load(persist::Reader& r);

 private:
  template <class Ar>
  void fields(Ar& ar);

  void dispatch(const Event& ev) {
    DTN_ASSERT(dispatch_ != nullptr);
    dispatch_(dispatch_ctx_, ev);
  }

  EventQueue queue_;
  DTN_CKPT_SKIP("dispatch hook; the owner re-registers it before resume")
  DispatchFn dispatch_ = nullptr;
  DTN_CKPT_SKIP("dispatch hook; the owner re-registers it before resume")
  void* dispatch_ctx_ = nullptr;
  double now_ = 0.0;
  std::uint64_t executed_ = 0;
};

}  // namespace dtn::sim
