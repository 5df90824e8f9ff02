#include "core/routing_table.hpp"

#include <algorithm>
#include <bit>
#include <string>
#include <utility>

#include "persist/serializer.hpp"
#include "sim/invariant_auditor.hpp"
#include "util/assert.hpp"

namespace dtn::core {

RoutingTable::RoutingTable(LandmarkId self, std::size_t num_landmarks)
    : self_(self),
      link_delay_(num_landmarks, kInfiniteDelay),
      unheard_(row_of(std::make_shared<const std::vector<double>>(
          num_landmarks, kInfiniteDelay))),
      last_seq_(num_landmarks, 0),
      pins_(num_landmarks),
      routes_(num_landmarks),
      column_dirty_(num_landmarks, 0) {
  DTN_ASSERT(self < num_landmarks);
  // A neighbor advertises delay 0 to itself even before we have merged
  // anything from it (direct links are usable immediately); advertised()
  // supplies that cell.
  rows_.assign(num_landmarks, unheard_);
}

std::vector<LandmarkId> RoutingTable::finite_links() const {
  std::vector<LandmarkId> linked;
  for (std::size_t v = 0; v < link_delay_.size(); ++v) {
    if (v != self_ && link_delay_[v] != kInfiniteDelay) {
      linked.push_back(static_cast<LandmarkId>(v));
    }
  }
  return linked;
}

void RoutingTable::mark_dirty(LandmarkId dst) {
  dirty_ = true;
  publish_stale_ = true;
  if (all_dirty_ || column_dirty_[dst] != 0) return;
  column_dirty_[dst] = 1;
  dirty_columns_.push_back(dst);
}

void RoutingTable::mark_all_dirty() {
  dirty_ = true;
  publish_stale_ = true;
  all_dirty_ = true;
}

void RoutingTable::set_link_delay(LandmarkId neighbor, double delay) {
  DTN_ASSERT(neighbor < link_delay_.size());
  DTN_ASSERT(neighbor != self_);
  DTN_ASSERT(delay >= 0.0);
  if (link_delay_[neighbor] != delay) {
    const bool was_linked = link_delay_[neighbor] != kInfiniteDelay;
    link_delay_[neighbor] = delay;
    if (was_linked != (delay != kInfiniteDelay)) {
      const auto at = std::lower_bound(neighbours_.begin(), neighbours_.end(),
                                       neighbor);
      if (was_linked) {
        neighbours_.erase(at);
      } else {
        neighbours_.insert(at, neighbor);
      }
    }
    // A changed link cost touches every destination routed (or now
    // routable) through `neighbor`, which can be any column.
    mark_all_dirty();
  }
}

double RoutingTable::link_delay(LandmarkId neighbor) const {
  DTN_ASSERT(neighbor < link_delay_.size());
  return link_delay_[neighbor];
}

bool RoutingTable::merge(const DistanceVector& dv) {
  DTN_ASSERT(dv.origin < link_delay_.size());
  DTN_ASSERT(dv.payload != nullptr && dv.entries() == link_delay_.size());
  if (dv.origin == self_) return false;
  const LandmarkId origin = dv.origin;
  if (dv.seq + 1 <= last_seq_[origin]) return false;  // stale
  last_seq_[origin] = dv.seq + 1;
  // The row already is this payload: payloads are immutable, and the
  // row's reference keeps the address from being reused by another one.
  const double* in = dv.delay().data();
  if (rows_[origin].get() == in) return true;
  const Row old = std::exchange(rows_[origin], row_of(dv.payload));
  const std::size_t n = dv.entries();
  const double* was = old.get();
  // Cells are visited in ascending destination order, each changed one
  // handed to the column's upkeep.  The origin's own cell is not read
  // from the row: advertised() holds it at 0.
  const auto apply = [&](std::size_t d) {
    if (was[d] != in[d]) update_cell(origin, static_cast<LandmarkId>(d));
  };
  // Most merges change a handful of cells, so unchanged cells are
  // skipped four at a time: `&` (not `&&`) keeps the block test to one
  // branch, which BM_RoutingTableRecompute needs to stay inside its gate.
  const auto sweep = [&](std::size_t lo, std::size_t hi) {
    std::size_t d = lo;
    for (; d + 4 <= hi; d += 4) {
      const bool same = (was[d] == in[d]) & (was[d + 1] == in[d + 1]) &
                        (was[d + 2] == in[d + 2]) & (was[d + 3] == in[d + 3]);
      if (same) continue;
      for (std::size_t j = d; j < d + 4; ++j) apply(j);
    }
    for (; d < hi; ++d) apply(d);
  };
  sweep(0, origin);
  sweep(origin + 1, n);
  return true;
}

namespace {

/// Offer neighbor `v` at `cost` to a running best/backup pair: strict <
/// with ascending v keeps the first index attaining each of the two
/// smallest costs, i.e. the top two in (cost, index) order.
void offer(Route& r, LandmarkId v, double cost) {
  if (cost < r.delay) {
    r.backup_next = r.next;
    r.backup_delay = r.delay;
    r.next = v;
    r.delay = cost;
  } else if (cost < r.backup_delay) {
    r.backup_next = v;
    r.backup_delay = cost;
  }
}

/// Does (cost, v) come before (delay, next) in (cost, index) order?
/// An infinite cost — from an infinite link or advertisement — never
/// does, the same exclusion the scans apply.
bool precedes(double cost, LandmarkId v, double delay, LandmarkId next) {
  return cost != kInfiniteDelay &&
         (cost < delay || (cost == delay && v < next));
}

Route self_route(LandmarkId self) {
  Route r;
  r.next = self;
  r.delay = 0.0;
  return r;
}

}  // namespace

Route RoutingTable::finish_column(LandmarkId dst, const Route& organic) const {
  const Pin& pin = pins_[dst];
  if (pin.next == kNoLandmark) return organic;
  // The pinned (injected) route replaces the best; the organically
  // computed best becomes the backup so load balancing still works.
  return {pin.next, pin.delay, organic.next, organic.delay};
}

Route RoutingTable::compute_column_scalar(LandmarkId dst) const {
  if (dst == self_) return self_route(self_);
  const std::size_t n = link_delay_.size();
  Route r;
  for (std::size_t v = 0; v < n; ++v) {
    if (v == self_) continue;
    const double ld = link_delay_[v];
    if (ld == kInfiniteDelay) continue;
    const double adv = advertised(static_cast<LandmarkId>(v), dst);
    if (adv == kInfiniteDelay) continue;
    offer(r, static_cast<LandmarkId>(v), ld + adv);
  }
  return finish_column(dst, r);
}

Route RoutingTable::compute_column(LandmarkId dst) const {
  if (dst == self_) return self_route(self_);
  // An infinite advertisement makes the cost infinite, which never
  // passes offer's strict <.
  Route r;
  for (const LandmarkId v : neighbours_) {
    offer(r, v, link_delay_[v] + advertised(v, dst));
  }
  return finish_column(dst, r);
}

void RoutingTable::update_cell(LandmarkId v, LandmarkId dst) {
  publish_stale_ = true;
  // Dirty columns are rescanned anyway, and the self route never moves.
  if (all_dirty_ || column_dirty_[dst] != 0 || dst == self_) return;
  Route& r = routes_[dst];
  const double cost = link_delay_[v] + advertised(v, dst);
  // A pinned column holds the organic best in its backup slot, and a
  // rise in the best's or backup's cost leaves the next one unknown.
  if (pins_[dst].next != kNoLandmark || (v == r.next && cost > r.delay) ||
      (v == r.backup_next && cost > r.backup_delay)) {
    mark_dirty(dst);
    return;
  }
  if (v == r.next) {
    r.delay = cost;  // the best only got better
    return;
  }
  if (v == r.backup_next) {  // re-inserted below at its lower cost
    r.backup_next = kNoLandmark;
    r.backup_delay = kInfiniteDelay;
  }
  if (precedes(cost, v, r.delay, r.next)) {
    r.backup_next = r.next;
    r.backup_delay = r.delay;
    r.next = v;
    r.delay = cost;
  } else if (precedes(cost, v, r.backup_delay, r.backup_next)) {
    r.backup_next = v;
    r.backup_delay = cost;
  }
}

void RoutingTable::recompute() const {
  if (!dirty_) return;
  if (all_dirty_) {
    const std::size_t n = link_delay_.size();
    for (std::size_t d = 0; d < n; ++d) {
      routes_[d] = compute_column(static_cast<LandmarkId>(d));
    }
    all_dirty_ = false;
  } else {
    for (const LandmarkId d : dirty_columns_) {
      routes_[d] = compute_column(d);
    }
  }
  for (const LandmarkId d : dirty_columns_) column_dirty_[d] = 0;
  dirty_columns_.clear();
  dirty_ = false;
}

void RoutingTable::publish() {
  publish_stale_ = false;
  const std::size_t n = routes_.size();
  const auto advertised = [this](std::size_t d) {
    return d == self_ ? 0.0 : routes_[d].delay;
  };
  if (published_ != nullptr) {
    const std::vector<double>& current = *published_;
    std::size_t d = 0;
    while (d < n && std::bit_cast<std::uint64_t>(current[d]) ==
                        std::bit_cast<std::uint64_t>(advertised(d))) {
      ++d;
    }
    if (d == n) return;  // same content, same payload
  }
  auto fresh = std::make_shared<std::vector<double>>(n);
  for (std::size_t d = 0; d < n; ++d) (*fresh)[d] = advertised(d);
  published_ = std::move(fresh);
}

DistanceVector RoutingTable::snapshot() {
  recompute();
  if (publish_stale_) publish();
  return DistanceVector(self_, seq_++, published_);
}

double RoutingTable::coverage() const {
  recompute();
  const std::size_t n = link_delay_.size();
  if (n <= 1) return 1.0;
  std::size_t reachable = 0;
  for (std::size_t d = 0; d < n; ++d) {
    if (d == self_) continue;
    if (routes_[d].reachable() && routes_[d].delay != kInfiniteDelay) {
      ++reachable;
    }
  }
  return static_cast<double>(reachable) / static_cast<double>(n - 1);
}

std::vector<LandmarkId> RoutingTable::next_hops() const {
  recompute();
  std::vector<LandmarkId> out(link_delay_.size(), kNoLandmark);
  for (std::size_t d = 0; d < out.size(); ++d) {
    out[d] = routes_[d].next;
  }
  return out;
}

void RoutingTable::pin(LandmarkId dst, LandmarkId next, double fake_delay) {
  DTN_ASSERT(dst < link_delay_.size());
  DTN_ASSERT(next < link_delay_.size());
  DTN_ASSERT(dst != self_);
  pins_[dst] = {next, fake_delay};
  mark_dirty(dst);
}

void RoutingTable::unpin(LandmarkId dst) {
  DTN_ASSERT(dst < link_delay_.size());
  if (is_pinned(dst)) {
    pins_[dst] = Pin{};
    mark_dirty(dst);
  }
}

bool RoutingTable::is_pinned(LandmarkId dst) const {
  DTN_ASSERT(dst < link_delay_.size());
  return pins_[dst].next != kNoLandmark;
}

void RoutingTable::audit(sim::AuditReport& report) const {
  const std::size_t n = link_delay_.size();
  const auto prefix = [this](LandmarkId dst) {
    return "table " + std::to_string(self_) + ", destination " +
           std::to_string(dst) + ": ";
  };
  // Bookkeeping: the compact dirty list and the dense flag array must
  // describe the same set, and a clean table must have an empty set.
  std::size_t flagged = 0;
  for (std::size_t d = 0; d < n; ++d) {
    if (column_dirty_[d] != 0) ++flagged;
  }
  std::vector<std::uint8_t> listed(n, 0);
  for (const LandmarkId d : dirty_columns_) {
    if (d >= n) {
      report.fail("dirty list names an out-of-range column");
      continue;
    }
    if (listed[d] != 0) {
      report.fail(prefix(d) + "column listed dirty twice");
    }
    listed[d] = 1;
    if (column_dirty_[d] == 0) {
      report.fail(prefix(d) + "column in the dirty list but not flagged");
    }
  }
  if (flagged != dirty_columns_.size()) {
    report.fail("dirty flag count (" + std::to_string(flagged) +
                ") disagrees with the dirty list (" +
                std::to_string(dirty_columns_.size()) + " entries)");
  }
  if (!dirty_ && (all_dirty_ || !dirty_columns_.empty())) {
    report.fail("table claims clean while columns are marked dirty");
  }
  if (all_dirty_ && !dirty_) {
    report.fail("all_dirty_ set on a clean table");
  }
  // Neighbor list: a missing entry would hide a candidate from every
  // rescan.
  if (neighbours_ != finite_links()) {
    report.fail("table " + std::to_string(self_) + ": neighbour list (" +
                std::to_string(neighbours_.size()) +
                " entries) disagrees with the finite links");
  }
  // Correctness: every column *not* marked stale must already equal the
  // from-scratch min-over-neighbors scan, bit for bit.  The reference
  // scans every landmark rather than the neighbor list, so this checks
  // both the O(1) merge upkeep and the neighbor-list rescans.
  if (all_dirty_) return;  // every column is legitimately stale
  for (std::size_t d = 0; d < n; ++d) {
    if (column_dirty_[d] != 0) continue;
    const auto dst = static_cast<LandmarkId>(d);
    const Route fresh = compute_column_scalar(dst);
    const Route& cached = routes_[d];
    if (fresh.next != cached.next ||
        std::bit_cast<std::uint64_t>(fresh.delay) !=
            std::bit_cast<std::uint64_t>(cached.delay) ||
        fresh.backup_next != cached.backup_next ||
        std::bit_cast<std::uint64_t>(fresh.backup_delay) !=
            std::bit_cast<std::uint64_t>(cached.backup_delay)) {
      report.fail(prefix(dst) +
                  "clean column disagrees with from-scratch recompute "
                  "(cached next " + std::to_string(cached.next) + ", delay " +
                  std::to_string(cached.delay) + "; fresh next " +
                  std::to_string(fresh.next) + ", delay " +
                  std::to_string(fresh.delay) + ")");
    }
  }
}

void RoutingTable::debug_corrupt_advertised_for_test(LandmarkId origin,
                                                     LandmarkId dst,
                                                     double delay) {
  DTN_ASSERT(origin < link_delay_.size());
  DTN_ASSERT(dst < link_delay_.size());
  const double* cells = rows_[origin].get();
  auto row = std::make_shared<std::vector<double>>(
      cells, cells + link_delay_.size());
  (*row)[dst] = delay;
  rows_[origin] = row_of(row);  // deliberately NOT marked dirty
}

bool RoutingTable::debug_column_dirty_for_test(LandmarkId dst) const {
  DTN_ASSERT(dst < link_delay_.size());
  return all_dirty_ || column_dirty_[dst] != 0;
}

void RoutingTable::debug_toggle_neighbour_for_test(LandmarkId v) {
  DTN_ASSERT(v < link_delay_.size());
  const auto at = std::lower_bound(neighbours_.begin(), neighbours_.end(), v);
  if (at != neighbours_.end() && *at == v) {
    neighbours_.erase(at);  // link_delay_ left alone
  } else {
    neighbours_.insert(at, v);
  }
}

template <class Ar>
void RoutingTable::fields(Ar& ar) {
  // The routes and what was published derive from the state being
  // overwritten (even by a load that throws halfway).
  if constexpr (Ar::loading) mark_all_dirty();
  const std::size_t n = link_delay_.size();
  ar.expect("routing table self", self_);
  ar.expect("routing table size", n);
  for (double& d : link_delay_) ar.non_negative("routing table link delay", d);
  for (Row& row : rows_) {
    bool heard = row != unheard_;
    ar.value("routing table row heard", heard);
    // A heard row is n cells, read over a copy of the row it replaces
    // (every row holds n cells) and loaded as a fresh payload.
    std::vector<double> cells;
    if (heard) cells.assign(row.get(), row.get() + n);
    for (double& d : cells) ar.non_negative("routing table row cell", d);
    if constexpr (Ar::loading) {
      row = heard ? row_of(std::make_shared<const std::vector<double>>(
                        std::move(cells)))
                  : unheard_;
    }
  }
  ar.array("routing table last seq", last_seq_);
  // The pinned destinations, ascending, each with its pin.
  struct PinEntry {
    LandmarkId dst = 0;
    Pin pin;
  };
  std::vector<PinEntry> pinned;
  if constexpr (Ar::loading) {
    std::fill(pins_.begin(), pins_.end(), Pin{});
  } else {
    for (LandmarkId d = 0; d < n; ++d) {
      if (is_pinned(d)) pinned.push_back({d, pins_[d]});
    }
  }
  [[maybe_unused]] std::size_t next_dst = 0;
  ar.seq("routing table pins", pinned, [&](PinEntry& e) {
    ar.index("routing table pinned destination", e.dst, n);
    ar.index("routing table pinned next hop", e.pin.next, n);
    ar.non_negative("routing table pinned delay", e.pin.delay);
    if constexpr (Ar::loading) {
      ar.check(e.dst >= next_dst && e.dst != self_,
               "routing table pinned destination", " out of order or self");
      next_dst = std::size_t{e.dst} + 1;
      pins_[e.dst] = e.pin;
    }
  });
  ar.value("routing table seq", seq_);
  // The neighbor list is derived state, absent from the image.
  if constexpr (Ar::loading) neighbours_ = finite_links();
}

void RoutingTable::save(persist::Writer& w) const {
  const_cast<RoutingTable*>(this)->fields(w);
}

void RoutingTable::load(persist::Reader& r) { fields(r); }

}  // namespace dtn::core
