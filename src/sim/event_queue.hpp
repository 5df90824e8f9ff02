// Discrete-event queue.
//
// A binary min-heap ordered by (time, sequence): one `std::vector<Event>`
// kept in heap order by std::push_heap / std::pop_heap.  The
// monotonically increasing sequence number breaks time ties in
// insertion order, which makes simulations fully deterministic — heaps
// alone are not stable, and tie order matters (e.g. two fault events at
// the same instant).  Trace, packet, sweep and tick events come from the
// trace cursor and the static schedule (sim/simulator.hpp); the queue
// holds only the fault events scheduled while the run goes, so it stays
// small (docs/event-engine.md).
//
// Scheduling contract: an event's time must be >= the time of the last
// popped event.  Scheduling *exactly at* the current time is legal and
// common (an event scheduling a follow-up "now"); the follow-up runs
// after every already-queued event of the same time because its
// sequence number is larger.  Scheduling strictly in the past is a
// logic error and asserts, as is a negative or NaN time.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "sim/event.hpp"
#include "util/assert.hpp"

namespace dtn::persist {
class Writer;
class Reader;
}  // namespace dtn::persist

namespace dtn::sim {

class AuditReport;

class EventQueue {
 public:
  /// Schedule `ev` at `ev.time`; the queue assigns `ev.seq`.  Returns
  /// the assigned sequence number.
  std::uint64_t schedule(Event ev) {
    // >= (not >): scheduling at exactly the current time is fine — the
    // new event's larger seq orders it after everything already popped.
    // Only strictly-past times are logic errors; NaN fails both.
    DTN_ASSERT(ev.time >= last_popped_);
    DTN_ASSERT(ev.time >= 0.0);
    ev.seq = next_seq_++;
    heap_.push_back(ev);
    std::push_heap(heap_.begin(), heap_.end(), later);
    return ev.seq;
  }

  /// Pop the earliest event.  The caller dispatches it.
  Event pop() {
    DTN_ASSERT(!heap_.empty());
    std::pop_heap(heap_.begin(), heap_.end(), later);
    const Event top = heap_.back();
    heap_.pop_back();
    last_popped_ = top.time;
    ++popped_;
    return top;
  }

  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const { return heap_.size(); }

  /// Time of the earliest pending event; queue must be non-empty.
  [[nodiscard]] double next_time() const {
    DTN_ASSERT(!heap_.empty());
    return heap_.front().time;
  }

  /// The pending events, in heap (not pop) order.
  [[nodiscard]] std::span<const Event> pending() const { return heap_; }

  /// Number of events popped so far.
  [[nodiscard]] std::uint64_t popped() const { return popped_; }

  /// Time of the last popped event (-inf before the first pop).  New
  /// events must not be scheduled before it.
  [[nodiscard]] double last_popped() const { return last_popped_; }

  /// Reserve the seq range [0, floor) for an external event source whose
  /// events must order *before* same-time queue events (the old engine
  /// scheduled the whole trace first, so trace events always carried
  /// the lowest sequence numbers; the trace cursor keeps that order).
  /// Must be called before the first schedule().
  void set_seq_floor(std::uint64_t floor) {
    DTN_ASSERT(next_seq_ == 0 && heap_.empty());
    next_seq_ = floor;
  }

  // -- checkpointing (src/persist/, docs/checkpointing.md) --------------
  /// The image lists the pending events key-sorted (canonical); `load`
  /// needs a fresh queue.
  void save(persist::Writer& w) const;
  void load(persist::Reader& r);

  // -- invariant auditing (debug tooling, see invariant_auditor.hpp) ----
  /// Validate the heap from scratch: the heap property over every
  /// parent/child pair, and that the pending minimum is not earlier than
  /// the last popped event.  Out of line — never on the hot path.
  void audit(AuditReport& report) const;

  /// Test-only fault injection for the auditor's negative tests:
  /// overwrite the time of one heap slot, bypassing every scheduling
  /// check (the bug class this simulates is a sift that wrote the wrong
  /// slot).
  void debug_corrupt_key_for_test(std::size_t index, double new_time);

 private:
  template <class Ar>
  void fields(Ar& ar);

  /// The std heap algorithms keep the *greatest* element at the front;
  /// ordering by "happens later" puts the earliest (time, seq) there.
  /// A function object (not a function pointer) so the heap algorithms
  /// can inline the comparison.
  struct Later {
    bool operator()(const Event& x, const Event& y) const {
      return happens_before(y, x);
    }
  };
  static constexpr Later later{};

  std::vector<Event> heap_;  // heap under `later`: earliest event first
  std::uint64_t next_seq_ = 0;
  std::uint64_t popped_ = 0;
  double last_popped_ = -std::numeric_limits<double>::infinity();
};

}  // namespace dtn::sim
