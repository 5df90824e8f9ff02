// Distributed transit-link bandwidth learning — the faithful §IV-C.1
// protocol.
//
// Each landmark observes its *incoming* links directly (arriving nodes
// report the landmark they came from).  Its *outgoing* bandwidth
// B(l_i -> l_j) is measured at the far end l_j, so l_i learns it from
//
//  * reverse-notification tokens: when l_j predicts a node is about to
//    leave it for l_i, it hands the node the latest per-unit count
//    n_t(i -> j) with its time-unit sequence number; l_i folds the
//    count into its outgoing EWMA iff the sequence is newer than the
//    last received (stale tokens are discarded, as in the paper), and
//  * the symmetry observation O3 as the fallback: for units in which no
//    token arrived, l_i substitutes its *own* observed count of the
//    reverse link n_t(j -> i).
//
// `BandwidthEstimator` (bandwidth.hpp) is the centralized shortcut that
// assumes the information flow is instantaneous; this class is the
// distributed variant whose estimates lag by the token latency.  The
// tests bound the divergence between the two.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "trace/trace.hpp"
#include "util/flat_matrix.hpp"

namespace dtn::persist {
class Writer;
class Reader;
}  // namespace dtn::persist

namespace dtn::core {

/// The reverse-notification payload carried by a mobile node from the
/// measuring landmark back to the link's source (§IV-C.1).
struct BandwidthToken {
  trace::LandmarkId link_from = 0;  ///< the link is link_from -> link_to
  trace::LandmarkId link_to = 0;    ///< ... measured at link_to
  double count = 0.0;               ///< transits in the reported unit
  std::uint64_t unit = 0;           ///< time-unit sequence of the report
};

class DistributedBandwidth {
 public:
  DistributedBandwidth(std::size_t num_landmarks, double rho);

  /// A node arrived at `to` reporting previous landmark `from`
  /// (observed by `to`; counted in the open unit).
  void record_arrival(trace::LandmarkId from, trace::LandmarkId to);

  /// Issue the token a node departing `at` toward predicted landmark
  /// `predicted` should carry: the report of link predicted -> at
  /// (nullopt when there is nothing to report yet).
  [[nodiscard]] std::optional<BandwidthToken> issue_token(
      trace::LandmarkId at, trace::LandmarkId predicted) const;

  /// Deliver a carried token to landmark `at`; discarded unless
  /// `at == token.link_from` and the sequence is newer than the last
  /// accepted report for that link.  Returns whether it was accepted.
  bool deliver_token(trace::LandmarkId at, const BandwidthToken& token);

  /// Close the measurement unit everywhere: fold observed incoming
  /// counts into the incoming EWMAs, and update each outgoing EWMA from
  /// the freshest token received this unit or the symmetry fallback.
  void close_unit();

  /// The estimate landmark `from` holds for its own outgoing link —
  /// what its distance-vector table uses.
  [[nodiscard]] double outgoing_bandwidth(trace::LandmarkId from,
                                          trace::LandmarkId to) const;

  /// The estimate landmark `to` holds for an incoming link (directly
  /// observed).
  [[nodiscard]] double incoming_bandwidth(trace::LandmarkId from,
                                          trace::LandmarkId to) const;

  [[nodiscard]] double expected_delay(trace::LandmarkId from,
                                      trace::LandmarkId to,
                                      double time_unit_seconds) const;

  [[nodiscard]] std::vector<trace::LandmarkId> neighbors(
      trace::LandmarkId from) const;

  [[nodiscard]] std::uint64_t units_closed() const { return unit_; }
  [[nodiscard]] std::uint64_t tokens_accepted() const {
    return tokens_accepted_;
  }
  [[nodiscard]] std::uint64_t tokens_stale() const { return tokens_stale_; }

  // -- checkpointing (src/persist/, docs/checkpointing.md) --------------
  void save(persist::Writer& w) const;
  void load(persist::Reader& r);

 private:
  template <class Ar>
  void fields(Ar& ar);

  double rho_;
  std::uint64_t unit_ = 0;
  // Observed at the arrival side.
  FlatMatrix<std::uint32_t> open_counts_;   // [from][to], current unit
  FlatMatrix<std::uint32_t> closed_counts_; // [from][to], last closed unit
  FlatMatrix<double> incoming_ewma_;        // held by `to`
  // Held at the departure side (what DV tables read).
  FlatMatrix<double> outgoing_ewma_;        // held by `from`
  FlatMatrix<double> report_count_;         // freshest token payload
  FlatMatrix<std::uint64_t> report_unit_;   // its unit + 1 (0 = none)
  FlatMatrix<std::uint64_t> report_used_;   // last unit folded + 1
  std::uint64_t tokens_accepted_ = 0;
  std::uint64_t tokens_stale_ = 0;
};

}  // namespace dtn::core
