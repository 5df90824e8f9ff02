#include "core/bandwidth.hpp"

#include "util/assert.hpp"

namespace dtn::core {

BandwidthEstimator::BandwidthEstimator(std::size_t num_landmarks, double rho)
    : rho_(rho),
      counts_(num_landmarks, num_landmarks, 0),
      ewma_(num_landmarks, num_landmarks, 0.0) {
  DTN_ASSERT(rho_ > 0.0 && rho_ <= 1.0);
}

void BandwidthEstimator::record_transit(trace::LandmarkId from,
                                        trace::LandmarkId to) {
  DTN_ASSERT(from != to);
  ++counts_.at(from, to);
}

void BandwidthEstimator::close_unit() {
  for (std::size_t i = 0; i < ewma_.rows(); ++i) {
    for (std::size_t j = 0; j < ewma_.cols(); ++j) {
      double& b = ewma_.at(i, j);
      b = rho_ * static_cast<double>(counts_.at(i, j)) + (1.0 - rho_) * b;
    }
  }
  counts_.fill(0);
  ++units_closed_;
}

double BandwidthEstimator::bandwidth(trace::LandmarkId from,
                                     trace::LandmarkId to) const {
  return ewma_.at(from, to);
}

double BandwidthEstimator::expected_delay(trace::LandmarkId from,
                                          trace::LandmarkId to,
                                          double time_unit_seconds) const {
  DTN_ASSERT(time_unit_seconds > 0.0);
  const double b = ewma_.at(from, to);
  if (b <= 0.0) return infinite_delay();
  return time_unit_seconds / b;
}

std::vector<trace::LandmarkId> BandwidthEstimator::neighbors(
    trace::LandmarkId from) const {
  std::vector<trace::LandmarkId> out;
  for (std::size_t j = 0; j < ewma_.cols(); ++j) {
    if (j == from) continue;
    if (ewma_.at(from, j) > 0.0) {
      out.push_back(static_cast<trace::LandmarkId>(j));
    }
  }
  return out;
}

std::uint32_t BandwidthEstimator::open_unit_count(trace::LandmarkId from,
                                                  trace::LandmarkId to) const {
  return counts_.at(from, to);
}

}  // namespace dtn::core
