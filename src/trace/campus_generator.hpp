// Synthetic campus trace generator (DART-like substitute).
//
// The paper's DART trace is a 119-day campus WLAN log (320 students /
// 159 buildings after preprocessing).  We cannot redistribute it, so
// this generator produces traces with the same *statistical structure*
// the paper's design rests on:
//
//  O1  skewed visiting: each landmark is visited frequently by only a
//      small fraction of nodes (community structure + Zipf popularity);
//  O2  few transit links carry most bandwidth;
//  O3  matching links are near-symmetric (movement is round-trip-ish:
//      dorm -> class -> library -> dorm);
//  O4  per-link bandwidth is stable over time units, except holiday
//      windows where campus activity collapses (the Fig. 4 dips);
//  ~77% order-1 Markov predictability with missing records (devices
//      that are off produce gaps, as in the real WLAN log).
//
// Mechanics: each node belongs to a community with a small home set of
// buildings; movement is a per-node first-order habit chain (with
// probability `habit_probability` the node goes to its habitual next
// building, otherwise it samples its preference distribution), run over
// a diurnal weekday/weekend/holiday schedule.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "trace/trace.hpp"

namespace dtn::trace {

struct CampusTraceConfig {
  std::size_t num_nodes = 120;
  std::size_t num_landmarks = 40;
  std::size_t num_communities = 8;
  /// Buildings in a community's home set (department + dorm + favourites).
  std::size_t community_landmarks = 6;
  double days = 40.0;

  /// Global landmark popularity (library-type hubs), Zipf exponent.
  double zipf_exponent = 0.9;
  /// Probability a move follows the node's habitual successor —
  /// dominates order-1 predictability (paper measures ~0.77 on DART).
  double habit_probability = 0.80;
  /// Of the non-habit moves, fraction that stays inside the community
  /// home set (drives observation O1).
  double community_bias = 0.8;

  double mean_stay_minutes = 55.0;
  double stay_sigma = 0.6;  ///< lognormal sigma of stay durations
  double mean_travel_minutes = 8.0;
  double day_start_hour = 8.0;
  double day_end_hour = 21.0;

  /// Probability a node is active on a weekend day.
  double weekend_activity = 0.35;
  /// [start_day, end_day) windows with `holiday_activity` (Fig. 4 dips);
  /// defaults to one mid-trace break when left empty and `add_default_holiday`.
  std::vector<std::pair<double, double>> holidays;
  bool add_default_holiday = true;
  double holiday_activity = 0.06;

  /// Probability an individual visit goes unrecorded (device off) —
  /// the incompleteness that makes order-1 beat order-2/3 (§IV-B.3).
  double miss_probability = 0.12;

  std::uint64_t seed = 1;
};

/// Paper-scale configuration (320 nodes, 159 landmarks, 119 days).
[[nodiscard]] CampusTraceConfig dart_scale_config(std::uint64_t seed = 1);

/// Throws std::invalid_argument when `days` is not finite and positive.
[[nodiscard]] Trace generate_campus_trace(const CampusTraceConfig& config);

}  // namespace dtn::trace
