// Presorted trace-replay cursor.
//
// A finalized Trace stores, per node, a time-sorted, non-overlapping
// visit list.  Each visit contributes exactly two simulation events —
// an arrival at `start` and a departure at `end`.  build_replay_order
// lists every event once, in sequence order, and stable-sorts the list
// by time; advance() then walks the array.
//
// Sequence numbers replicate the retired eager enumeration exactly
// (node-major: node 0's visit 0 arrival, visit 0 departure, visit 1
// arrival, ..., then node 1, ...).  The sort is stable, so events at
// identical timestamps keep that order — and therefore every downstream
// RunCounters bit is unchanged.  The engine must reserve
// [0, total_events()) for the cursor via Simulator::set_seq_floor.
//
// The order is a pure function of the immutable trace, so the trace
// builds it once and every cursor over it (replicate runs, sweep
// threads, resumes) shares it read-only (Trace::replay_order).  A cursor
// owns only its read position and the per-node positions a checkpoint
// stores.
#pragma once

#include <bit>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "sim/event.hpp"
#include "trace/trace.hpp"

namespace dtn::persist {
class Writer;
class Reader;
}  // namespace dtn::persist

namespace dtn::trace {

/// Lists and stable-sorts every event of the finalized `trace`: O(events)
/// time and memory.  Trace::replay_order memoizes it; call it directly
/// only to time the build.
[[nodiscard]] ReplayOrder build_replay_order(const Trace& trace);

/// The replay's event source: Simulator::run_until merges it with the
/// dynamic event queue.
class TraceCursor {
 public:
  /// A cursor at the start of `trace`'s replay; builds the trace's
  /// replay order if no cursor over it has yet.
  explicit TraceCursor(const Trace& trace);

  [[nodiscard]] bool exhausted() const { return next_ == entries_.size(); }
  [[nodiscard]] const sim::Event& peek() const {
    DTN_ASSERT(!exhausted());
    return current_;
  }
  void advance() {
    DTN_ASSERT(!exhausted());
    ++pos_[entries_[next_].node];
    ++next_;
    if (!exhausted()) materialize();
  }

  /// Total events the full replay produces (2 per visit).
  [[nodiscard]] std::uint64_t total_events() const { return entries_.size(); }

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

  void materialize() {
    const ReplayOrder::Entry& e = entries_[next_];
    current_.time = std::bit_cast<double>(e.time_bits);
    current_.seq = seq_base_[e.node] + e.index;
    current_.kind = (e.index % 2 == 0) ? sim::EventKind::kArrival
                                       : sim::EventKind::kDeparture;
    current_.a = e.node;
    current_.b = e.index / 2;  // visit index
  }

  /// The trace's shared replay order; the spans view its arrays.
  std::shared_ptr<const ReplayOrder> order_;
  std::span<const ReplayOrder::Entry> entries_;
  std::span<const std::uint64_t> seq_base_;
  std::size_t next_ = 0;
  /// Events of each node already replayed (the checkpoint image).
  std::vector<std::uint32_t> pos_;
  sim::Event current_;  // materialized entries_[next_]
};

}  // namespace dtn::trace
