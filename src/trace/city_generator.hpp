// Synthetic city-scale trace generator.
//
// The campus generator reproduces the paper's DART statistics at WLAN
// scale (hundreds of nodes).  This tier targets the *city* deployments
// DTN-FLOW is designed for — NUS-bus-like populations with 100k+
// devices, thousands of landmarks and a mixed pedestrian/bus
// population:
//
//  * the city is split into districts, each owning a contiguous block
//    of neighbourhood landmarks; pedestrians mostly move inside their
//    home district and occasionally visit shared city hubs (malls,
//    interchanges) drawn from a Zipf popularity law;
//  * buses run fixed multi-district routes all day, providing the
//    high-bandwidth inter-landmark backbone (the paper's vehicles).
#pragma once

#include <cstdint>

#include "trace/trace.hpp"

namespace dtn::trace {

struct CityTraceConfig {
  /// Pedestrian population (node ids 0 .. num_pedestrians-1).
  std::size_t num_pedestrians = 2000;
  /// Bus population (node ids num_pedestrians .. num_pedestrians+num_buses-1).
  std::size_t num_buses = 40;
  std::size_t num_landmarks = 400;
  std::size_t num_districts = 16;
  double days = 2.0;

  /// Fraction of landmarks that are shared city hubs (≥ 1 hub); the
  /// rest are dealt contiguously to districts.
  double hub_fraction = 0.04;
  /// Zipf exponent over hub popularity.
  double zipf_exponent = 0.8;
  /// Probability a pedestrian move leaves the home district for a hub.
  double trip_probability = 0.15;

  double mean_stay_minutes = 25.0;
  double mean_travel_minutes = 6.0;
  double day_start_hour = 6.0;
  double day_end_hour = 22.0;

  /// Stops per bus route (alternating hubs and district landmarks).
  std::size_t bus_route_stops = 12;
  double bus_dwell_minutes = 2.0;
  double bus_hop_minutes = 5.0;

  std::uint64_t seed = 1;
};

/// Full city-scale configuration: 100k+ nodes, thousands of landmarks.
/// Generation is fast, but replaying a full run over this trace is a
/// benchmark-tier workload — tests should scale `CityTraceConfig` down.
[[nodiscard]] CityTraceConfig city_scale_config(std::uint64_t seed = 1);

/// Throws std::invalid_argument when `days` is not finite and positive.
[[nodiscard]] Trace generate_city_trace(const CityTraceConfig& config);

}  // namespace dtn::trace
