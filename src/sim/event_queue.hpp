// Discrete-event queue.
//
// A binary min-heap ordered by (time, sequence).  The monotonically
// increasing sequence number breaks time ties in insertion order, which
// makes simulations fully deterministic — heaps alone are not stable,
// and tie order matters (e.g. a node arrival and a packet-generation
// event at the same instant).
//
// Layout: the heap is split into a key array (16-byte packed
// (time, seq) keys — the only thing sift comparisons touch) and a
// parallel payload array holding the full `Event`.  Event times are
// non-negative, so the IEEE-754 bit pattern of `time` reinterpreted as
// an unsigned 64-bit integer orders exactly like the double; a key
// comparison is two integer compares and never branches on floating
// point.  `pop()` uses the bottom-up ("Wegener") sift-down: descend the
// min-child path to a leaf without testing the displaced item, then
// climb back up — most displaced items are leaf-sized, so this roughly
// halves the comparisons of the classic sift-down.  Everything hot is
// inline in this header; the queue is the innermost loop of the replay
// engine and an out-of-line call per event costs ~30% throughput.
//
// Scheduling contract: an event's time must be >= the time of the last
// popped event.  Scheduling *exactly at* the current time is legal and
// common (an event scheduling a follow-up "now"); the follow-up runs
// after every already-queued event of the same time because its
// sequence number is larger.  Scheduling strictly in the past is a
// logic error and asserts, as is a negative or NaN time (the packed
// key encoding requires time >= 0).
#pragma once

#include <bit>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "sim/event.hpp"
#include "util/annotations.hpp"
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
    // Only strictly-past times are logic errors.  time >= 0.0 also
    // rejects NaN and normalises -0.0 (compares equal to +0.0, enters
    // the branch) so the packed key order matches the double order.
    DTN_ASSERT(ev.time >= last_popped_);
    DTN_ASSERT(ev.time >= 0.0);
    if (ev.time == 0.0) ev.time = 0.0;  // -0.0 -> +0.0
    ev.seq = next_seq_++;
    grow_if_full();
    const Key key{std::bit_cast<std::uint64_t>(ev.time), ev.seq};
    std::size_t i = keys_.size();
    keys_.push_back(key);
    pay_.push_back(ev);
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (!less(key, keys_[parent])) break;
      keys_[i] = keys_[parent];
      pay_[i] = pay_[parent];
      i = parent;
    }
    keys_[i] = key;
    pay_[i] = ev;
    return ev.seq;
  }

  /// Pop the earliest event.  The caller dispatches it.
  Event pop() {
    DTN_ASSERT(!keys_.empty());
    const Event top = pay_[0];
    const Key last_key = keys_.back();
    const Event last_pay = pay_.back();
    keys_.pop_back();
    pay_.pop_back();
    const std::size_t n = keys_.size();
    if (n > 0) {
      // Bottom-up sift-down: walk the min-child path to a leaf, then
      // climb back up until the displaced last element fits.
      std::size_t i = 0;
      while (true) {
        const std::size_t left = 2 * i + 1;
        if (left >= n) break;
        std::size_t child = left;
        if (left + 1 < n && less(keys_[left + 1], keys_[left])) {
          child = left + 1;
        }
        keys_[i] = keys_[child];
        pay_[i] = pay_[child];
        i = child;
      }
      while (i > 0) {
        const std::size_t parent = (i - 1) / 2;
        if (!less(last_key, keys_[parent])) break;
        keys_[i] = keys_[parent];
        pay_[i] = pay_[parent];
        i = parent;
      }
      keys_[i] = last_key;
      pay_[i] = last_pay;
    }
    last_popped_ = top.time;
    ++popped_;
    return top;
  }

  [[nodiscard]] bool empty() const { return keys_.empty(); }
  [[nodiscard]] std::size_t size() const { return keys_.size(); }

  /// Time of the earliest pending event; queue must be non-empty.
  [[nodiscard]] double next_time() const {
    DTN_ASSERT(!keys_.empty());
    return std::bit_cast<double>(keys_.front().time_bits);
  }
  /// Sequence of the earliest pending event; queue must be non-empty.
  [[nodiscard]] std::uint64_t next_seq() const {
    DTN_ASSERT(!keys_.empty());
    return keys_.front().seq;
  }

  /// The pending events, in heap (not pop) order.
  [[nodiscard]] std::span<const Event> pending() const { return pay_; }

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
    DTN_ASSERT(next_seq_ == 0 && keys_.empty());
    next_seq_ = floor;
  }

  /// Pre-size the heap storage (events, not bytes).
  void reserve(std::size_t n) {
    keys_.reserve(n);
    pay_.reserve(n);
  }
  [[nodiscard]] std::size_t capacity() const { return keys_.capacity(); }

  // -- checkpointing (src/persist/, docs/checkpointing.md) --------------
  /// The image lists the pending events key-sorted (canonical); `load`
  /// needs a fresh queue and rebuilds the keys.
  void save(persist::Writer& w) const;
  void load(persist::Reader& r);

  // -- invariant auditing (debug tooling, see invariant_auditor.hpp) ----
  /// Validate the packed-key heap from scratch: the heap property over
  /// every parent/child pair, key/payload (time, seq) agreement, and
  /// that the pending minimum is not earlier than the last popped
  /// event.  Out of line — never on the hot path.
  void audit(AuditReport& report) const;

  /// Test-only fault injection for the auditor's negative tests:
  /// overwrite the packed key *and* payload time of one heap slot,
  /// bypassing every scheduling check (the bug class this simulates is
  /// a sift that wrote the wrong slot).
  void debug_corrupt_key_for_test(std::size_t index, double new_time);

 private:
  template <class Ar>
  void fields(Ar& ar);

  /// 16-byte heap key: (time bit pattern, seq).  For times >= 0 the
  /// integer order of the bit pattern equals the double order.
  struct Key {
    std::uint64_t time_bits;
    std::uint64_t seq;
  };
  static bool less(const Key& x, const Key& y) {
    return x.time_bits < y.time_bits ||
           (x.time_bits == y.time_bits && x.seq < y.seq);
  }

  void grow_if_full();  // cold path, out of line

  // save() serializes the events of pay_ (each key's (time, seq) rides
  // inside its Event); load() re-derives the key array from them.
  DTN_CKPT_SKIP("key mirror of pay_; the image carries (time, seq) per event")
  std::vector<Key> keys_;   // binary min-heap, comparison-hot
  std::vector<Event> pay_;  // parallel payloads, moved alongside
  std::uint64_t next_seq_ = 0;
  std::uint64_t popped_ = 0;
  double last_popped_ = -std::numeric_limits<double>::infinity();
};

}  // namespace dtn::sim
