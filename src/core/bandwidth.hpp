// Transit-link bandwidth measurement (§IV-C.1).
//
// The bandwidth of directed link l_i -> l_j is the average number of
// node transits per measurement time unit, smoothed across units with
// the paper's eq. (4):
//
//   B_new(i->j) = rho * n_t(i->j) + (1 - rho) * B_old(i->j)
//
// where n_t is the transit count of the unit that just ended.  The
// arrival side l_j observes transits directly (arriving nodes report
// their previous landmark); the departure side l_i learns its outgoing
// bandwidth through reverse-notification tokens carried by nodes
// predicted to move i -> j (falling back to the symmetry observation
// O3).  In this engine both sides read the same estimate; the token
// mechanism's only observable effect is at most one extra unit of
// staleness, which the EWMA already dominates.
//
// A link's *expected forwarding delay* is the mean interval between
// carrier departures: time_unit / B (infinite for B = 0).  This is the
// delay the distance-vector tables minimize.
#pragma once

#include <limits>
#include <vector>

#include "trace/trace.hpp"
#include "util/flat_matrix.hpp"

namespace dtn::core {

class BandwidthEstimator {
 public:
  /// `rho` is the EWMA weight on the newest unit's count (0 < rho <= 1).
  BandwidthEstimator(std::size_t num_landmarks, double rho);

  /// A node completed a transit from `from` to `to` (counted in the
  /// current, not yet closed, unit).
  void record_transit(trace::LandmarkId from, trace::LandmarkId to);

  /// Close the current measurement unit: fold counts into the EWMA and
  /// reset them (call at each time-unit boundary).
  void close_unit();

  /// Smoothed transits-per-unit of a directed link.
  [[nodiscard]] double bandwidth(trace::LandmarkId from,
                                 trace::LandmarkId to) const;

  /// Expected forwarding delay over the link in seconds
  /// (= time_unit_seconds / bandwidth; +infinity when bandwidth is 0).
  [[nodiscard]] double expected_delay(trace::LandmarkId from,
                                      trace::LandmarkId to,
                                      double time_unit_seconds) const;

  /// Neighbors of `from`: landmarks with positive outgoing bandwidth.
  [[nodiscard]] std::vector<trace::LandmarkId> neighbors(
      trace::LandmarkId from) const;

  /// Raw transit count accumulated in the still-open unit.
  [[nodiscard]] std::uint32_t open_unit_count(trace::LandmarkId from,
                                              trace::LandmarkId to) const;

  [[nodiscard]] std::size_t num_landmarks() const { return ewma_.rows(); }
  [[nodiscard]] std::size_t units_closed() const { return units_closed_; }

  [[nodiscard]] static constexpr double infinite_delay() {
    return std::numeric_limits<double>::infinity();
  }

  // Not checkpointed: the transits the landmarks observed are a fold of
  // the trace and the fault log, and a load replays them unit by unit
  // (DtnFlowRouter::rebuild_node_state).

 private:
  double rho_;
  FlatMatrix<std::uint32_t> counts_;
  FlatMatrix<double> ewma_;
  std::size_t units_closed_ = 0;
};

}  // namespace dtn::core
