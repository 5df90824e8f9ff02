#include "core/routing_table.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <string>

#include "persist/flat_io.hpp"
#include "persist/serializer.hpp"
#include "sim/invariant_auditor.hpp"
#include "util/assert.hpp"

namespace dtn::core {

RoutingTable::RoutingTable(LandmarkId self, std::size_t num_landmarks)
    : self_(self),
      link_delay_(num_landmarks, kInfiniteDelay),
      advertised_(num_landmarks, num_landmarks, kInfiniteDelay),
      last_seq_(num_landmarks, 0),
      advertised_time_(num_landmarks, 0.0),
      expired_(num_landmarks, 0),
      pinned_(num_landmarks, 0),
      pin_route_(num_landmarks),
      routes_(num_landmarks),
      column_dirty_(num_landmarks, 0),
      applied_version_(num_landmarks, 0) {
  DTN_ASSERT(self < num_landmarks);
  // A neighbor always advertises delay 0 to itself even before we have
  // merged anything from it (direct links are usable immediately).
  for (std::size_t v = 0; v < num_landmarks; ++v) {
    advertised_.at(v, v) = 0.0;
  }
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

bool RoutingTable::merge(const DistanceVector& dv, double now) {
  DTN_ASSERT(dv.origin < link_delay_.size());
  DTN_ASSERT(dv.payload != nullptr && dv.entries() == link_delay_.size());
  if (dv.origin == self_) return false;
  if (dv.seq + 1 <= last_seq_[dv.origin]) return false;  // stale
  last_seq_[dv.origin] = dv.seq + 1;
  advertised_time_[dv.origin] = now;
  expired_[dv.origin] = 0;  // a fresh vector revives a withdrawn origin
  // The row already holds this exact payload (ids are never reused, and
  // every other write to the row forgets the id): nothing can change.
  if (dv.version != 0 && applied_version_[dv.origin] == dv.version) {
    return true;
  }
  applied_version_[dv.origin] = dv.version;
  const std::size_t n = dv.entries();
  const LandmarkId origin = dv.origin;
  double* row = advertised_.row_ptr(origin);
  const double* in = dv.delay().data();
  // Cells are visited in ascending destination order; the advertised
  // matrix and the column's route move together.  A neighbor advertises
  // delay 0 to itself regardless of payload.
  const auto apply = [&](std::size_t d, double incoming) {
    if (row[d] != incoming) {
      row[d] = incoming;
      update_cell(origin, static_cast<LandmarkId>(d));
    }
  };
  // Most merges change a handful of cells, so unchanged cells are
  // skipped four at a time: `&` (not `&&`) keeps the block test to one
  // branch, which BM_RoutingTableRecompute needs to stay inside its gate.
  const auto sweep = [&](std::size_t lo, std::size_t hi) {
    std::size_t d = lo;
    for (; d + 4 <= hi; d += 4) {
      const bool same = (row[d] == in[d]) & (row[d + 1] == in[d + 1]) &
                        (row[d + 2] == in[d + 2]) & (row[d + 3] == in[d + 3]);
      if (same) continue;
      for (std::size_t j = d; j < d + 4; ++j) apply(j, in[j]);
    }
    for (; d < hi; ++d) apply(d, in[d]);
  };
  sweep(0, origin);
  apply(origin, 0.0);
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
  if (pinned_[dst] == 0) return organic;
  // The pinned (injected) route replaces the best; the organically
  // computed best becomes the backup so load balancing still works.
  Route pr = pin_route_[dst];
  pr.backup_next = organic.next;
  pr.backup_delay = organic.delay;
  return pr;
}

Route RoutingTable::compute_column_scalar(LandmarkId dst) const {
  if (dst == self_) return self_route(self_);
  const std::size_t n = link_delay_.size();
  Route r;
  for (std::size_t v = 0; v < n; ++v) {
    if (v == self_) continue;
    const double ld = link_delay_[v];
    if (ld == kInfiniteDelay) continue;
    const double adv = advertised_.at(v, dst);
    if (adv == kInfiniteDelay) continue;
    offer(r, static_cast<LandmarkId>(v), ld + adv);
  }
  return finish_column(dst, r);
}

Route RoutingTable::compute_column(LandmarkId dst) const {
  if (dst == self_) return self_route(self_);
  // Walk column dst of advertised_ directly; an infinite advertisement
  // makes the cost infinite, which never passes offer's strict <.
  const std::size_t n = link_delay_.size();
  const double* column = advertised_.raw().data() + dst;
  Route r;
  for (const LandmarkId v : neighbours_) {
    offer(r, v, link_delay_[v] + column[v * n]);
  }
  return finish_column(dst, r);
}

void RoutingTable::update_cell(LandmarkId v, LandmarkId dst) {
  publish_stale_ = true;
  // Dirty columns are rescanned anyway, and the self route never moves.
  if (all_dirty_ || column_dirty_[dst] != 0 || dst == self_) return;
  Route& r = routes_[dst];
  const double cost = link_delay_[v] + advertised_.at(v, dst);
  // A pinned column holds the organic best in its backup slot, and a
  // rise in the best's or backup's cost leaves the next one unknown.
  if (pinned_[dst] != 0 || (v == r.next && cost > r.delay) ||
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

Route RoutingTable::route(LandmarkId dst) const {
  DTN_ASSERT(dst < link_delay_.size());
  recompute();
  return routes_[dst];
}

double RoutingTable::delay_to(LandmarkId dst) const { return route(dst).delay; }

namespace {

/// Process-unique payload ids, never 0.  Which id a payload gets has no
/// effect on any result; uniqueness is all a merge memo relies on.
std::uint64_t next_payload_version() {
  static std::atomic<std::uint64_t> last{0};
  return last.fetch_add(1, std::memory_order_relaxed) + 1;
}

}  // namespace

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
    if (d == n) return;  // same content, same id
  }
  auto fresh = std::make_shared<std::vector<double>>(n);
  for (std::size_t d = 0; d < n; ++d) (*fresh)[d] = advertised(d);
  published_ = std::move(fresh);
  published_version_ = next_payload_version();
}

DistanceVector RoutingTable::snapshot() {
  recompute();
  if (publish_stale_) publish();
  return DistanceVector(self_, seq_++, published_, published_version_);
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

std::size_t RoutingTable::expire_stale(double cutoff) {
  const std::size_t n = link_delay_.size();
  std::size_t expired = 0;
  for (std::size_t o = 0; o < n; ++o) {
    if (o == self_) continue;
    if (last_seq_[o] == 0) continue;  // never advertised: bootstrap row stays
    if (expired_[o] != 0) continue;
    if (advertised_time_[o] >= cutoff) continue;
    for (std::size_t d = 0; d < n; ++d) {
      advertised_.at(o, d) = kInfiniteDelay;
    }
    applied_version_[o] = 0;  // the row no longer holds that payload
    expired_[o] = 1;
    ++expired;
  }
  // A withdrawn origin can have been the best hop toward any column.
  if (expired != 0) mark_all_dirty();
  return expired;
}

bool RoutingTable::origin_expired(LandmarkId origin) const {
  DTN_ASSERT(origin < link_delay_.size());
  return expired_[origin] != 0;
}

double RoutingTable::advertised_time(LandmarkId origin) const {
  DTN_ASSERT(origin < link_delay_.size());
  return advertised_time_[origin];
}

void RoutingTable::pin(LandmarkId dst, LandmarkId next, double fake_delay) {
  DTN_ASSERT(dst < link_delay_.size());
  DTN_ASSERT(next < link_delay_.size());
  DTN_ASSERT(dst != self_);
  pinned_[dst] = 1;
  Route r;
  r.next = next;
  r.delay = fake_delay;
  pin_route_[dst] = r;
  mark_dirty(dst);
}

void RoutingTable::unpin(LandmarkId dst) {
  DTN_ASSERT(dst < link_delay_.size());
  if (pinned_[dst] != 0) {
    pinned_[dst] = 0;
    mark_dirty(dst);
  }
}

bool RoutingTable::is_pinned(LandmarkId dst) const {
  DTN_ASSERT(dst < link_delay_.size());
  return pinned_[dst] != 0;
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
  advertised_.at(origin, dst) = delay;  // deliberately NOT marked dirty
  applied_version_[origin] = 0;
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

namespace {

void write_route(persist::Writer& w, const Route& r) {
  w.u32(r.next);
  w.f64(r.delay);
  w.u32(r.backup_next);
  w.f64(r.backup_delay);
}

/// A next hop is a landmark index or kNoLandmark; anything else would
/// index past the per-landmark arrays its consumers keep.
LandmarkId read_hop(persist::Reader& r, std::size_t n) {
  const LandmarkId hop = r.u32();
  if (hop != kNoLandmark && hop >= n) {
    throw persist::FormatError(
        "checkpoint routing table next hop out of range");
  }
  return hop;
}

void read_route(persist::Reader& r, std::size_t n, Route& out) {
  out.next = read_hop(r, n);
  out.delay = r.f64();
  out.backup_next = read_hop(r, n);
  out.backup_delay = r.f64();
}

/// Delays are non-negative, possibly infinite; NaN fails every compare.
bool valid_delay(double d) { return d >= 0.0; }

}  // namespace

void RoutingTable::save(persist::Writer& w) const {
  const std::size_t n = link_delay_.size();
  w.u32(self_);
  w.u64(n);
  for (const double d : link_delay_) w.f64(d);
  persist::write_matrix(w, advertised_);
  for (const std::uint64_t s : last_seq_) w.u64(s);
  for (const double t : advertised_time_) w.f64(t);
  for (const std::uint8_t e : expired_) w.u8(e);
  for (const std::uint8_t p : pinned_) w.u8(p);
  for (const Route& r : pin_route_) write_route(w, r);
  w.u64(seq_);
  for (const Route& r : routes_) write_route(w, r);
  for (const std::uint8_t d : column_dirty_) w.u8(d);
  w.u64(dirty_columns_.size());
  for (const LandmarkId d : dirty_columns_) w.u32(d);
  w.boolean(all_dirty_);
  w.boolean(dirty_);
}

void RoutingTable::load(persist::Reader& r) {
  // The merge memo describes the rows being overwritten (even by a load
  // that throws halfway), and the routes may no longer match what was
  // published.
  publish_stale_ = true;
  std::fill(applied_version_.begin(), applied_version_.end(), 0);
  const std::size_t n = link_delay_.size();
  if (r.u32() != self_ || r.u64() != n) {
    throw persist::FormatError(
        "checkpoint routing table shape (self, num_landmarks) mismatch");
  }
  for (double& d : link_delay_) d = r.f64();
  persist::read_matrix(r, advertised_);
  if (advertised_.rows() != n || advertised_.cols() != n) {
    throw persist::FormatError(
        "checkpoint routing table advertised matrix shape mismatch");
  }
  if (!std::all_of(link_delay_.begin(), link_delay_.end(), valid_delay) ||
      !std::all_of(advertised_.raw().begin(), advertised_.raw().end(),
                   valid_delay)) {
    throw persist::FormatError(
        "checkpoint routing table delay negative or NaN");
  }
  for (std::uint64_t& s : last_seq_) s = r.u64();
  for (double& t : advertised_time_) t = r.f64();
  for (std::uint8_t& e : expired_) e = r.u8();
  for (std::uint8_t& p : pinned_) p = r.u8();
  for (Route& rt : pin_route_) read_route(r, n, rt);
  seq_ = r.u64();
  for (Route& rt : routes_) read_route(r, n, rt);
  for (std::uint8_t& d : column_dirty_) d = r.u8();
  const std::uint64_t listed = r.u64();
  if (listed > n) {
    throw persist::FormatError(
        "checkpoint routing table dirty list longer than the table");
  }
  dirty_columns_.resize(static_cast<std::size_t>(listed));
  for (LandmarkId& d : dirty_columns_) {
    d = r.u32();
    if (d >= n) {
      throw persist::FormatError(
          "checkpoint routing table dirty column out of range");
    }
  }
  all_dirty_ = r.boolean();
  dirty_ = r.boolean();
  // The neighbor list is derived state, absent from the image.
  neighbours_ = finite_links();
}

}  // namespace dtn::core
