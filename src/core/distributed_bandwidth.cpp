#include "core/distributed_bandwidth.hpp"

#include <limits>

#include "persist/serializer.hpp"
#include "util/assert.hpp"

namespace dtn::core {

DistributedBandwidth::DistributedBandwidth(std::size_t num_landmarks,
                                           double rho)
    : rho_(rho),
      open_counts_(num_landmarks, num_landmarks, 0),
      closed_counts_(num_landmarks, num_landmarks, 0),
      incoming_ewma_(num_landmarks, num_landmarks, 0.0),
      outgoing_ewma_(num_landmarks, num_landmarks, 0.0),
      report_count_(num_landmarks, num_landmarks, 0.0),
      report_unit_(num_landmarks, num_landmarks, 0),
      report_used_(num_landmarks, num_landmarks, 0) {
  DTN_ASSERT(rho_ > 0.0 && rho_ <= 1.0);
}

void DistributedBandwidth::record_arrival(trace::LandmarkId from,
                                          trace::LandmarkId to) {
  DTN_ASSERT(from != to);
  ++open_counts_.at(from, to);
}

std::optional<BandwidthToken> DistributedBandwidth::issue_token(
    trace::LandmarkId at, trace::LandmarkId predicted) const {
  DTN_ASSERT(at < open_counts_.rows());
  if (predicted >= open_counts_.rows() || predicted == at) return std::nullopt;
  if (unit_ == 0) return std::nullopt;  // nothing closed to report yet
  BandwidthToken token;
  token.link_from = predicted;  // the node heads predicted-ward: report
  token.link_to = at;           // the link predicted -> at, measured here
  token.count = static_cast<double>(closed_counts_.at(predicted, at));
  token.unit = unit_;  // sequence of the last closed unit
  return token;
}

bool DistributedBandwidth::deliver_token(trace::LandmarkId at,
                                         const BandwidthToken& token) {
  if (token.link_from != at) return false;  // mispredicted carrier: discard
  std::uint64_t& last = report_unit_.at(token.link_from, token.link_to);
  if (token.unit + 1 <= last) {
    ++tokens_stale_;
    return false;
  }
  last = token.unit + 1;
  report_count_.at(token.link_from, token.link_to) = token.count;
  ++tokens_accepted_;
  return true;
}

void DistributedBandwidth::close_unit() {
  const std::size_t n = open_counts_.rows();
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      const double observed = static_cast<double>(open_counts_.at(i, j));
      // Incoming side (held by j): direct observation.
      double& in = incoming_ewma_.at(i, j);
      in = rho_ * observed + (1.0 - rho_) * in;
      // Outgoing side (held by i): freshest unused token report, else
      // the O3 symmetry fallback n(j -> i) that i observed itself.
      double sample;
      if (report_unit_.at(i, j) > report_used_.at(i, j)) {
        sample = report_count_.at(i, j);
        report_used_.at(i, j) = report_unit_.at(i, j);
      } else {
        sample = static_cast<double>(open_counts_.at(j, i));
      }
      double& out = outgoing_ewma_.at(i, j);
      out = rho_ * sample + (1.0 - rho_) * out;
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      closed_counts_.at(i, j) = open_counts_.at(i, j);
    }
  }
  open_counts_.fill(0);
  ++unit_;
}

double DistributedBandwidth::outgoing_bandwidth(trace::LandmarkId from,
                                                trace::LandmarkId to) const {
  return outgoing_ewma_.at(from, to);
}

double DistributedBandwidth::incoming_bandwidth(trace::LandmarkId from,
                                                trace::LandmarkId to) const {
  return incoming_ewma_.at(from, to);
}

double DistributedBandwidth::expected_delay(trace::LandmarkId from,
                                            trace::LandmarkId to,
                                            double time_unit_seconds) const {
  DTN_ASSERT(time_unit_seconds > 0.0);
  const double b = outgoing_ewma_.at(from, to);
  if (b <= 0.0) return std::numeric_limits<double>::infinity();
  return time_unit_seconds / b;
}

std::vector<trace::LandmarkId> DistributedBandwidth::neighbors(
    trace::LandmarkId from) const {
  std::vector<trace::LandmarkId> out;
  for (std::size_t j = 0; j < outgoing_ewma_.cols(); ++j) {
    if (j == from) continue;
    if (outgoing_ewma_.at(from, j) > 0.0) {
      out.push_back(static_cast<trace::LandmarkId>(j));
    }
  }
  return out;
}

template <class Ar>
void DistributedBandwidth::fields(Ar& ar) {
  ar.value("bandwidth rho", rho_);
  ar.value("bandwidth unit", unit_);
  ar.matrix("bandwidth open counts", open_counts_);
  ar.matrix("bandwidth closed counts", closed_counts_);
  ar.matrix("bandwidth incoming ewma", incoming_ewma_);
  ar.matrix("bandwidth outgoing ewma", outgoing_ewma_);
  ar.matrix("bandwidth report counts", report_count_);
  ar.matrix("bandwidth report units", report_unit_);
  ar.matrix("bandwidth reports used", report_used_);
  ar.value("bandwidth tokens accepted", tokens_accepted_);
  ar.value("bandwidth tokens stale", tokens_stale_);
}

void DistributedBandwidth::save(persist::Writer& w) const {
  const_cast<DistributedBandwidth*>(this)->fields(w);
}

void DistributedBandwidth::load(persist::Reader& r) { fields(r); }

}  // namespace dtn::core
