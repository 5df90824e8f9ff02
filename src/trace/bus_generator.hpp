// Synthetic bus trace generator (DNET-like substitute).
//
// The paper's DNET trace covers 34 UMass Transit buses seen at 18
// clustered roadside AP locations over 26 days.  This generator
// reproduces the structural properties the paper relies on:
//
//  * buses loop fixed cyclic routes during weekday service hours, so
//    per-link bandwidth is very stable over time units (Fig. 4(b));
//  * routes share downtown hub stops, so a few links dominate (O2) and
//    matching links are symmetric because loops traverse both ways (O3);
//  * roadside APs are flaky and ambiguous: associations are missed with
//    `miss_probability` and recorded as a *neighbouring* stop with
//    `alias_probability` — which is exactly why the paper measures
//    *lower* order-1 prediction accuracy (~0.66) on DNET than on the
//    campus trace despite more repetitive mobility (§IV-B.3).
#pragma once

#include <cstdint>
#include <vector>

#include "trace/trace.hpp"

namespace dtn::trace {

struct BusTraceConfig {
  std::size_t num_buses = 34;
  std::size_t num_landmarks = 18;
  std::size_t num_routes = 10;
  std::size_t route_length_min = 4;
  std::size_t route_length_max = 8;
  /// Stops shared by (almost) every route — the downtown transfer hubs.
  std::size_t num_hubs = 3;
  double days = 26.0;

  double stop_dwell_minutes = 4.0;
  double inter_stop_minutes = 9.0;
  /// Multiplicative jitter on dwell/travel times (uniform ±fraction).
  double schedule_noise = 0.25;
  double service_start_hour = 6.5;
  double service_end_hour = 22.0;
  bool weekdays_only = true;

  /// Probability an association is simply missed.
  double miss_probability = 0.18;
  /// Probability the bus associates with an AP of the adjacent stop.
  double alias_probability = 0.22;

  std::uint64_t seed = 2;
};

/// Paper-scale configuration (34 buses, 18 landmarks, 26 days) — the
/// defaults already match; provided for symmetry with the campus module.
[[nodiscard]] BusTraceConfig dnet_scale_config(std::uint64_t seed = 2);

/// Throws std::invalid_argument when `days` is not finite and positive.
[[nodiscard]] Trace generate_bus_trace(const BusTraceConfig& config);

/// The per-route stop sequences the generator would use (exposed for
/// tests and the trace explorer example).
[[nodiscard]] std::vector<std::vector<LandmarkId>> make_bus_routes(
    const BusTraceConfig& config);

}  // namespace dtn::trace
