// Mobility traces: the common substrate every router and experiment
// consumes.
//
// A trace is, per node, a time-sorted sequence of landmark visits
// `(node, landmark, start, end)` — exactly the schema obtained from the
// paper's preprocessing of the DART and DNET logs (§III-B.1).  Real
// traces in that CSV schema load through `trace_io`; synthetic
// generators produce the same structure.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "util/assert.hpp"

namespace dtn::trace {

using NodeId = std::uint32_t;
using LandmarkId = std::uint32_t;

/// Sentinel for "not at any landmark" (in transit).
inline constexpr LandmarkId kNoLandmark = static_cast<LandmarkId>(-1);
/// Sentinel node id ("no node").
inline constexpr NodeId kNoNode = static_cast<NodeId>(-1);

/// Simulation times are seconds as double; one day in seconds.
inline constexpr double kDay = 86400.0;
inline constexpr double kHour = 3600.0;
inline constexpr double kMinute = 60.0;

/// One stay of one node at one landmark.
struct Visit {
  NodeId node = 0;
  LandmarkId landmark = 0;
  double start = 0.0;  ///< association time (seconds)
  double end = 0.0;    ///< disassociation time (seconds), end > start

  friend bool operator==(const Visit&, const Visit&) = default;
};

/// A transit: node moved from one landmark to a different one.
/// `depart` is when it left `from`; `arrive` is when it reached `to`.
struct Transit {
  NodeId node = 0;
  LandmarkId from = 0;
  LandmarkId to = 0;
  double depart = 0.0;
  double arrive = 0.0;
};

/// A finalized trace's replay events in `(time, seq)` order, as
/// trace::build_replay_order lists and sorts them (trace/cursor.hpp).
struct ReplayOrder {
  /// One trace event, keyed by its time's IEEE-754 bit pattern: for the
  /// non-negative finite times a finalized trace holds, the bits order
  /// exactly like the double.
  struct Entry {
    std::uint64_t time_bits;
    NodeId node;
    std::uint32_t index;  ///< 2 * visit + {0 arrival, 1 departure}
  };
  /// Every event in (time, seq) order.
  std::vector<Entry> entries;
  /// Sequence base per node: 2 * (visits of all lower-numbered nodes);
  /// one extra entry holds the total.
  std::vector<std::uint64_t> seq_base;
};

/// Immutable-after-build container of visits for a fixed node/landmark
/// universe.  Visits are stored per node, sorted by start time, and are
/// non-overlapping within a node (enforced by `validate`).
class Trace {
 public:
  /// Empty trace (0 nodes / 0 landmarks), useful as a placeholder
  /// before assignment; finalize() still applies.
  Trace() : Trace(0, 0) {}
  Trace(std::size_t num_nodes, std::size_t num_landmarks);

  /// Append a visit (any order); call `finalize` before reading.
  void add_visit(const Visit& v);

  /// Sort per-node visits and check invariants.  Must be called exactly
  /// once after the last `add_visit`.
  void finalize();

  [[nodiscard]] std::size_t num_nodes() const { return per_node_.size(); }
  [[nodiscard]] std::size_t num_landmarks() const { return num_landmarks_; }
  [[nodiscard]] bool finalized() const { return finalized_; }

  /// Visits of one node, sorted by start time.
  [[nodiscard]] std::span<const Visit> visits(NodeId node) const;

  /// Total number of visit records.
  [[nodiscard]] std::size_t total_visits() const;

  /// Earliest visit start / latest visit end over all nodes (0 if empty).
  [[nodiscard]] double begin_time() const;
  [[nodiscard]] double end_time() const;
  [[nodiscard]] double duration() const { return end_time() - begin_time(); }

  /// All visits merged and sorted by start time (copies).
  [[nodiscard]] std::vector<Visit> all_visits_sorted() const;

  /// Consecutive-visit transits of one node (adjacent visits at
  /// *different* landmarks; same-landmark re-visits are not transits).
  [[nodiscard]] std::vector<Transit> transits(NodeId node) const;

  /// All transits over all nodes, sorted by arrival time.
  [[nodiscard]] std::vector<Transit> all_transits_sorted() const;

  /// Restrict to visits overlapping [t0, t1); visits are clipped to the
  /// window.  Node/landmark universe is preserved.
  [[nodiscard]] Trace window(double t0, double t1) const;

  /// The replay order every trace::TraceCursor over this trace walks.
  /// Built on first use, never by finalize(), and kept for the trace's
  /// lifetime: 16 B per event plus 8 B per node.  Thread-safe:
  /// concurrent first calls build it exactly once, and copies of a
  /// finalized trace share it.  The returned pointer co-owns it, so it
  /// outlives the trace if need be.
  [[nodiscard]] std::shared_ptr<const ReplayOrder> replay_order() const;

 private:
  struct ReplayMemo {
    std::once_flag built;
    ReplayOrder order;
  };

  std::size_t num_landmarks_;
  std::vector<std::vector<Visit>> per_node_;
  bool finalized_ = false;
  /// Made by finalize(); empty before it and in a moved-from trace.
  std::shared_ptr<ReplayMemo> replay_memo_;
};

/// The synthetic generators' length check: throws std::invalid_argument
/// unless `days` is finite and positive (their per-day loops would not
/// end on NaN or a negative length).
void require_valid_days(double days);

}  // namespace dtn::trace
