// Distance-vector routing tables on landmarks (§IV-C.2, Table IV/V).
//
// Each landmark keeps, per destination landmark, the next-hop landmark
// minimizing the expected overall delay, plus the *backup* next hop
// (second-lowest delay through a different neighbor, §IV-E.3) used by
// load balancing.  The table is driven by two inputs:
//
//  * direct-link expected delays from the bandwidth estimator
//    (refreshed every measurement unit), and
//  * distance vectors received from neighbor landmarks, carried by
//    mobile nodes.  Each vector carries a sequence number; stale
//    vectors (not newer than the last merged from that origin) are
//    discarded, exactly as §IV-C.1 discards out-of-date tokens.
//
// A route is the top two neighbors v in (cost, index) order, where
// cost = link_delay(self->v) + advertised_v(dst).  The advertised row of
// each origin is the shared payload last merged from it, held by
// reference (docs/routing-hot-path.md, "Rows by reference").  Routes are
// kept *incrementally* (same document): a merged cell that changes
// the cost through one neighbor updates a clean column's best/backup in
// O(1) — unless it raises the cost of the current best or backup, which
// marks just that column dirty.  The next query rescans dirty columns
// over the finite-link neighbor list only.  Link updates invalidate
// everything (a changed link can flip any route).
//
// `pin` force-overrides the next hop of one destination until `unpin`;
// this is the controlled fault-injection hook used by the routing-loop
// experiment (Table VII) to model the paper's "untimely routing table
// update" without racing the repair against the periodic exchange.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "trace/trace.hpp"
#include "util/annotations.hpp"
#include "util/assert.hpp"

namespace dtn::sim {
class AuditReport;
}

namespace dtn::persist {
class Writer;
class Reader;
}  // namespace dtn::persist

namespace dtn::core {

using trace::LandmarkId;
using trace::kNoLandmark;

inline constexpr double kInfiniteDelay = std::numeric_limits<double>::infinity();

/// The vector a landmark advertises to its neighbors: its own best
/// expected delay to every destination.  The delays sit in a shared,
/// immutable payload, so every carrier of one table version holds the
/// same one, and a receiving table keeps it as the origin's row
/// (docs/routing-hot-path.md, "Publish-once distance vectors").
struct DistanceVector {
  using Payload = std::shared_ptr<const std::vector<double>>;

  DistanceVector() = default;
  /// A fresh payload holding `delays`.
  DistanceVector(LandmarkId from, std::uint64_t sequence,
                 std::vector<double> delays)
      : origin(from),
        seq(sequence),
        payload(std::make_shared<const std::vector<double>>(
            std::move(delays))) {}
  /// Share an existing payload.
  DistanceVector(LandmarkId from, std::uint64_t sequence, Payload shared)
      : origin(from), seq(sequence), payload(std::move(shared)) {}

  LandmarkId origin = kNoLandmark;
  std::uint64_t seq = 0;
  Payload payload;  // per destination; delay()[origin] == 0

  [[nodiscard]] const std::vector<double>& delay() const { return *payload; }
  [[nodiscard]] std::size_t entries() const { return payload->size(); }
};

struct Route {
  LandmarkId next = kNoLandmark;
  double delay = kInfiniteDelay;
  LandmarkId backup_next = kNoLandmark;
  double backup_delay = kInfiniteDelay;

  [[nodiscard]] bool reachable() const { return next != kNoLandmark; }
};

class RoutingTable {
 public:
  RoutingTable(LandmarkId self, std::size_t num_landmarks);

  [[nodiscard]] LandmarkId self() const { return self_; }
  [[nodiscard]] std::size_t num_landmarks() const { return link_delay_.size(); }

  /// Update the expected delay of the direct link self -> neighbor
  /// (kInfiniteDelay removes the link).
  void set_link_delay(LandmarkId neighbor, double delay);
  [[nodiscard]] double link_delay(LandmarkId neighbor) const;

  /// Merge a neighbor's advertised vector; returns false when the
  /// vector is stale (or self-originated) and was discarded.  A fresh
  /// vector carrying the very payload the origin's row holds only
  /// advances the origin's sequence number: nothing in the row can
  /// change.
  bool merge(const DistanceVector& dv);

  /// Best/backup route toward `dst` (self -> {self, 0}).  Defined here
  /// so the router's per-packet queries inline; only a stale table
  /// calls out to recompute().
  [[nodiscard]] Route route(LandmarkId dst) const {
    DTN_ASSERT(dst < link_delay_.size());
    if (dirty_) recompute();
    return routes_[dst];
  }
  [[nodiscard]] double delay_to(LandmarkId dst) const {
    return route(dst).delay;
  }

  /// Produce the vector to advertise; each call increments the sequence
  /// number (one snapshot per carrying node).  The delays are published
  /// once per table version: while no merge, link or pin change
  /// has touched the routes since the last publish, every snapshot
  /// shares that payload.  A change re-checks the routes and publishes a
  /// new payload only when some advertised delay differs bit for bit, so
  /// equal content keeps the old one.
  [[nodiscard]] DistanceVector snapshot();

  /// Fraction of other landmarks with a finite-delay route (Fig. 8
  /// coverage metric).
  [[nodiscard]] double coverage() const;

  /// Current next hop per destination (kNoLandmark when unreachable);
  /// the Fig. 8 stability metric diffs successive calls.
  [[nodiscard]] std::vector<LandmarkId> next_hops() const;

  // -- fault injection for the loop experiment -------------------------
  void pin(LandmarkId dst, LandmarkId next, double fake_delay);
  void unpin(LandmarkId dst);
  [[nodiscard]] bool is_pinned(LandmarkId dst) const;

  // -- checkpointing (src/persist/, docs/checkpointing.md) --------------
  /// The image holds inputs only: routes and dirty bookkeeping are a
  /// pure function of them, so restore-then-reserialize is byte-identical
  /// (the auditor's CRC check leans on it).  `load` needs the same (self,
  /// num_landmarks) and leaves every column stale.
  void save(persist::Writer& w) const;
  void load(persist::Reader& r);

  // -- invariant auditing (debug tooling, see invariant_auditor.hpp) ----
  /// Validate the dirty-column bookkeeping (flag array vs compact list)
  /// and the neighbor list (exactly the finite links, ascending), then
  /// recompute every *clean* column from scratch over all landmarks,
  /// comparing the cached route bit-for-bit — a clean column that
  /// disagrees with the full min-over-neighbors scan means a merge/link
  /// update kept it wrong or forgot to mark it dirty.
  void audit(sim::AuditReport& report) const;

  /// Test-only fault injection for the auditor's negative tests: change
  /// an advertised delay *without* marking the destination column dirty
  /// (the exact bug class the incremental upkeep invites).  The row is
  /// copied first, so other holders of its payload are left alone.
  void debug_corrupt_advertised_for_test(LandmarkId origin, LandmarkId dst,
                                         double delay);

  /// Test-only probe: is column `dst` stale, to be rescanned by the next
  /// query?
  [[nodiscard]] bool debug_column_dirty_for_test(LandmarkId dst) const;

  /// Test-only fault injection: toggle `v`'s membership of the neighbor
  /// list without touching its link delay (the bug class where a link
  /// update forgot the list rescans iterate).  The auditor must catch it.
  void debug_toggle_neighbour_for_test(LandmarkId v);

 private:
  template <class Ar>
  void fields(Ar& ar);

  /// Cell (origin, dst) of the advertised rows.  An origin advertises 0
  /// to itself, whatever its row holds.
  [[nodiscard]] double advertised(LandmarkId origin, LandmarkId dst) const {
    return origin == dst ? 0.0 : rows_[origin].get()[dst];
  }
  /// Bring every dirty destination column up to date (no-op when clean).
  void recompute() const;
  /// The min-over-neighbors scan for one destination (pins applied),
  /// iterating the finite-link neighbor list only.
  [[nodiscard]] Route compute_column(LandmarkId dst) const;
  /// The reference scan over every landmark, skipping infinite links.
  /// The auditor always compares against this, so a neighbor-list or
  /// upkeep divergence in the cached routes is caught as a clean-column
  /// mismatch.
  [[nodiscard]] Route compute_column_scalar(LandmarkId dst) const;
  /// Apply the pin (if any) on top of an organically computed route.
  [[nodiscard]] Route finish_column(LandmarkId dst, const Route& organic) const;
  /// Keep a clean column current after the cost through neighbor `v`
  /// changed; marks the column dirty when O(1) upkeep cannot decide.
  void update_cell(LandmarkId v, LandmarkId dst);
  /// Ascending landmarks other than self with a finite link delay.
  [[nodiscard]] std::vector<LandmarkId> finite_links() const;
  /// Mark one destination column stale.
  void mark_dirty(LandmarkId dst);
  /// Mark every column stale (link-delay changes can flip any route).
  void mark_all_dirty();
  /// Re-check the advertised delays against the published payload and
  /// publish a new payload when they differ.
  void publish();

  LandmarkId self_;
  std::vector<double> link_delay_;
  /// A row: the first delay of a payload, sharing ownership of it, so a
  /// column scan reaches a cell in one step.
  using Row = std::shared_ptr<const double>;
  [[nodiscard]] static Row row_of(const DistanceVector::Payload& payload) {
    return {payload, payload->data()};
  }
  /// Per origin, the payload last merged from it, or `unheard_` for an
  /// origin never heard from.  Payloads are immutable, so a row is never
  /// written: a merge swaps the pointer.
  std::vector<Row> rows_;
  /// All infinite; the row of every origin with nothing to advertise.
  Row unheard_;
  /// Ascending landmarks v != self with a finite link delay: the only
  /// candidates a column scan has to visit.  Derived from link_delay_,
  /// maintained by set_link_delay, audited against it.
  DTN_CKPT_SKIP("derived from link_delay_; load rebuilds it")
  std::vector<LandmarkId> neighbours_;
  std::vector<std::uint64_t> last_seq_;  // last merged seq + 1 per origin
  /// A pin: the forced next hop and its fake delay.  finish_column fills
  /// the backup from the organic route.
  struct Pin {
    LandmarkId next = kNoLandmark;  ///< kNoLandmark: not pinned
    double delay = kInfiniteDelay;
  };
  /// Per destination; the image lists only the pinned ones.
  std::vector<Pin> pins_;
  std::uint64_t seq_ = 0;

  DTN_CKPT_SKIP("derived routes; load marks every column dirty")
  mutable std::vector<Route> routes_;
  /// Incremental-recompute bookkeeping: the set of stale destination
  /// columns (dense flag per column + compact list for iteration).
  /// `all_dirty_` short-circuits the list after link updates.
  DTN_CKPT_SKIP("derived bookkeeping; load marks every column dirty")
  mutable std::vector<std::uint8_t> column_dirty_;
  DTN_CKPT_SKIP("derived bookkeeping; load marks every column dirty")
  mutable std::vector<LandmarkId> dirty_columns_;
  DTN_CKPT_SKIP("derived bookkeeping; load sets it")
  mutable bool all_dirty_ = true;
  DTN_CKPT_SKIP("derived bookkeeping; load sets it")
  mutable bool dirty_ = true;

  /// Publish-once advertisement: the payload snapshot() hands out, a
  /// cache of routes_ re-checked after a load.
  DTN_CKPT_SKIP("publish cache; load marks it for a re-check")
  DistanceVector::Payload published_;
  /// Set by every change that may move an advertised delay (update_cell,
  /// mark_dirty, mark_all_dirty, load); snapshot() re-checks only then.
  DTN_CKPT_SKIP("publish cache flag; load sets it to force a re-check")
  bool publish_stale_ = true;
};

}  // namespace dtn::core
