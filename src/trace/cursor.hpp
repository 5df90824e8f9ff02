// Presorted trace-replay cursor.
//
// A finalized Trace stores, per node, a time-sorted, non-overlapping
// visit list.  Each visit contributes exactly two simulation events —
// an arrival at `start` and a departure at `end`.  The constructor lists
// every event once, in sequence order, and stable-sorts the list by
// time; advance() then walks the array.
//
// Sequence numbers replicate the retired eager enumeration exactly
// (node-major: node 0's visit 0 arrival, visit 0 departure, visit 1
// arrival, ..., then node 1, ...).  The sort is stable, so events at
// identical timestamps keep that order — and therefore every downstream
// RunCounters bit is unchanged.  The engine must reserve
// [0, total_events()) for the cursor via Simulator::set_seq_floor.
//
// The cursor borrows the immutable Trace (shared across replicate runs)
// and owns the sorted array (16 B per event) plus the per-node
// positions a checkpoint stores.
#pragma once

#include <bit>
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
  /// Lists and sorts every event of `trace`: O(events) time and memory.
  explicit TraceCursor(const Trace& trace);

  [[nodiscard]] bool exhausted() const { return next_ == order_.size(); }
  [[nodiscard]] const sim::Event& peek() const {
    DTN_ASSERT(!exhausted());
    return current_;
  }
  void advance() {
    DTN_ASSERT(!exhausted());
    ++pos_[order_[next_].node];
    ++next_;
    if (!exhausted()) materialize();
  }

  /// Total events the full replay produces (2 per visit).
  [[nodiscard]] std::uint64_t total_events() const { return order_.size(); }

  /// Events of `node` already replayed: 2 per completed visit, plus 1
  /// while the node is at a landmark (its arrival is counted, its
  /// departure not yet).  An event counts before it is dispatched.
  [[nodiscard]] std::uint32_t replayed(NodeId node) const {
    DTN_ASSERT(node < pos_.size());
    return pos_[node];
  }

  // -- checkpointing (src/persist/, docs/checkpointing.md) --------------
  /// The per-node replay positions (the trace is fingerprinted, not
  /// stored); `load` refuses positions that are no prefix of this
  /// trace's replay order.
  void save(persist::Writer& w) const;
  void load(persist::Reader& r);

 private:
  template <class Ar>
  void fields(Ar& ar);

  /// One trace event, keyed by its time's IEEE-754 bit pattern: for the
  /// non-negative finite times a finalized trace holds, the bits order
  /// exactly like the double.
  struct Entry {
    std::uint64_t time_bits;
    NodeId node;
    std::uint32_t index;  ///< 2 * visit + {0 arrival, 1 departure}
  };

  void materialize() {
    const Entry& e = order_[next_];
    current_.time = std::bit_cast<double>(e.time_bits);
    current_.seq = seq_base_[e.node] + e.index;
    current_.kind = (e.index % 2 == 0) ? sim::EventKind::kArrival
                                       : sim::EventKind::kDeparture;
    current_.a = e.node;
    current_.b = e.index / 2;  // visit index
  }

  /// Every event in (time, seq) order.
  std::vector<Entry> order_;
  std::size_t next_ = 0;
  /// Events of each node already replayed (the checkpoint image).
  std::vector<std::uint32_t> pos_;
  /// Sequence base per node: 2 * (visits of all lower-numbered nodes);
  /// one extra entry holds the total.
  std::vector<std::uint64_t> seq_base_;
  sim::Event current_;  // materialized order_[next_]
};

}  // namespace dtn::trace
