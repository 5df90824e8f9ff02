// Lazy trace-replay cursor.
//
// A finalized Trace stores, per node, a time-sorted, non-overlapping
// visit list.  Each visit contributes exactly two simulation events —
// an arrival at `start` and a departure at `end` — and within one node
// those events are already in (time, seq) order (end > start, and the
// next visit starts no earlier than the previous one ends).  So the
// whole replay is a k-way merge of per-node event streams, advanced by
// a small heap keyed on (time, seq): O(log num_nodes) per event, zero
// allocations, and no materialization of the millions of upfront
// closures the old engine pre-scheduled.
//
// Sequence numbers replicate the retired eager enumeration exactly
// (node-major: node 0's visit 0 arrival, visit 0 departure, visit 1
// arrival, ..., then node 1, ...), so tie order at identical timestamps
// — and therefore every downstream RunCounters bit — is unchanged.
// The engine must reserve [0, total_events()) for the cursor via
// Simulator::set_seq_floor.
//
// The cursor is a cheap view: it borrows the immutable Trace (shared
// across replicate runs) and owns only the per-node positions and the
// merge heap, both O(num_nodes).
#pragma once

#include <cstdint>
#include <vector>

#include "sim/event.hpp"
#include "trace/trace.hpp"

namespace dtn::persist {
class Writer;
class Reader;
}  // namespace dtn::persist

namespace dtn::trace {

/// The replay's event source: Simulator::run_until merges it with the
/// dynamic event queue.
class TraceCursor {
 public:
  explicit TraceCursor(const Trace& trace);

  [[nodiscard]] bool exhausted() const { return heap_.empty(); }
  [[nodiscard]] const sim::Event& peek() const {
    DTN_ASSERT(!heap_.empty());
    return current_;
  }
  void advance();

  /// Total events the full replay produces (2 per visit).
  [[nodiscard]] std::uint64_t total_events() const { return total_events_; }

  /// Rewind to the beginning of the trace.
  void reset();

  // -- checkpointing (src/persist/, docs/checkpointing.md) --------------
  /// Serialize the replay positions (the trace itself is immutable input
  /// and is fingerprinted, not stored).
  void save(persist::Writer& w) const;
  /// Restore the positions saved by save() and rebuild the
  /// merge heap.  Throws persist::FormatError on node-count or position
  /// range mismatches.
  void load(persist::Reader& r);

 private:
  /// Heap entry with the (time, seq) key packed into two u64s: for the
  /// non-negative finite times a finalized trace holds, the IEEE-754
  /// bit pattern orders exactly like the double, so the hot sift
  /// compares integers instead of branching on a double tie
  /// (the packed-event-key idiom of sim/event_queue.hpp).
  struct Head {
    std::uint64_t time_bits;  ///< bit pattern of the event time (>= 0)
    std::uint64_t seq;        ///< global sequence of that event
    NodeId node;
  };

  /// (time, seq) of node `n`'s event at per-node index `e`.
  [[nodiscard]] Head head_of(NodeId n, std::uint32_t e) const;
  void materialize_top();
  void sift_down(std::size_t i);
  /// Rebuild the merge heap from the current pos_ values (Floyd).
  void rebuild_heap();

  const Trace* trace_;
  /// Next per-node event index (2 * visit + {0 arrival, 1 departure}).
  std::vector<std::uint32_t> pos_;
  /// Sequence base per node: 2 * (visits of all lower-numbered nodes).
  std::vector<std::uint64_t> seq_base_;
  std::vector<Head> heap_;  // quaternary min-heap by (time, seq)
  sim::Event current_;      // materialized top of the merge
  std::uint64_t total_events_ = 0;
};

}  // namespace dtn::trace
