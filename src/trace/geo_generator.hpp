// Geographic trace generator: mobility grounded in landmark *positions*.
//
// Unlike the campus/bus generators (whose travel gaps are sampled),
// here travel times follow from Euclidean distances and a movement
// speed, so the trace is consistent with a physical deployment map —
// the missing piece between §IV-A's landmark selection / subarea
// division (which operate on positions) and the trace-driven simulator.
// `fig15_positions()` provides the paper's campus deployment layout.
//
// Movement model: each node has a home landmark (department building)
// and a per-node attraction profile over the other landmarks; every
// move samples the attraction, with a bias toward the home set, and the
// node walks there at `speed_m_per_s` (with jitter).
#pragma once

#include <cstdint>
#include <vector>

#include "trace/preprocess.hpp"  // trace::Point
#include "trace/trace.hpp"

namespace dtn::trace {

struct GeoTraceConfig {
  /// Required: one position per landmark (meters).
  std::vector<Point> landmark_positions;
  std::size_t num_nodes = 9;
  double days = 12.0;
  std::uint64_t seed = 9;

  double speed_m_per_s = 1.4;  ///< walking pace
  /// Multiplicative jitter on travel times (uniform ±fraction).
  double travel_noise = 0.3;

  double day_start_hour = 8.0;
  double day_end_hour = 21.0;
  double mean_stay_minutes = 50.0;
  double stay_sigma = 0.5;  ///< lognormal sigma

  /// Global attraction weight per landmark (empty = uniform).  E.g. a
  /// library gets a high weight, dorms low.
  std::vector<double> attraction;
  /// Probability a move targets the node's home landmark when away
  /// from it (students gravitate back to their department).
  double home_bias = 0.35;
  /// Home landmark per node (empty = round-robin over landmarks).
  std::vector<LandmarkId> homes;

  /// Probability a visit goes unrecorded.
  double miss_probability = 0.05;
};

/// Throws std::invalid_argument when `days` is not finite and positive.
[[nodiscard]] Trace generate_geo_trace(const GeoTraceConfig& config);

/// The eight-landmark layout of the paper's Fig. 15(a) campus
/// deployment: index 0 = L1 (library), 1/3/4/6 = the department
/// buildings L2/L4/L5/L7, 2/5/7 = student center and dining L3/L6/L8.
/// Coordinates in meters.
[[nodiscard]] std::vector<Point> fig15_positions();

/// One GPS-style position fix.
struct PositionSample {
  NodeId node = 0;
  double time = 0.0;
  Point position;
};

/// Convert raw position fixes (GPS logs, ONE-simulator movement
/// reports) into landmark visits — how a real deployment's data enters
/// the library.  A node is "at" a landmark while its fixes stay within
/// `association_radius` of it; consecutive qualifying fixes fuse into
/// one visit, a gap longer than `max_fix_gap` (or a fix elsewhere)
/// closes it.  Visits shorter than `min_visit` are discarded.  Samples
/// may arrive in any order; ties resolve toward the nearest landmark.
[[nodiscard]] Trace visits_from_position_samples(
    std::vector<PositionSample> samples,
    const std::vector<Point>& landmark_positions, std::size_t num_nodes,
    double association_radius, double max_fix_gap = 900.0,
    double min_visit = 60.0);

}  // namespace dtn::trace
