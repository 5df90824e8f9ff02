#include "trace/city_generator.hpp"

#include <algorithm>
#include <cmath>

#include "util/rng.hpp"

namespace dtn::trace {

CityTraceConfig city_scale_config(std::uint64_t seed) {
  CityTraceConfig c;
  c.num_pedestrians = 100000;
  c.num_buses = 800;
  c.num_landmarks = 2500;
  c.num_districts = 64;
  // One day keeps the event count in benchmark territory (a few million
  // visits) while exercising the full diurnal cycle.
  c.days = 1.0;
  c.mean_stay_minutes = 45.0;
  c.seed = seed;
  return c;
}

namespace {

struct CityLayout {
  LandmarkId num_hubs = 0;
  std::vector<std::vector<LandmarkId>> districts;
};

CityLayout make_layout(const CityTraceConfig& cfg) {
  CityLayout layout;
  layout.num_hubs = std::clamp<LandmarkId>(
      static_cast<LandmarkId>(static_cast<double>(cfg.num_landmarks) *
                              cfg.hub_fraction),
      1, static_cast<LandmarkId>(cfg.num_landmarks - 1));
  layout.districts.resize(cfg.num_districts);
  for (LandmarkId l = layout.num_hubs;
       l < static_cast<LandmarkId>(cfg.num_landmarks); ++l) {
    // Contiguous blocks, remainder dealt round-robin by the division.
    const std::size_t span = cfg.num_landmarks - layout.num_hubs;
    const std::size_t d = static_cast<std::size_t>(l - layout.num_hubs) *
                          cfg.num_districts / span;
    layout.districts[d].push_back(l);
  }
  // Tiny configs can leave a district empty; fall back to a hub so every
  // district has at least one landmark to walk.
  for (auto& district : layout.districts) {
    if (district.empty()) district.push_back(0);
  }
  return layout;
}

}  // namespace

Trace generate_city_trace(const CityTraceConfig& cfg) {
  DTN_ASSERT(cfg.num_pedestrians + cfg.num_buses > 0);
  DTN_ASSERT(cfg.num_landmarks >= 2);
  DTN_ASSERT(cfg.num_districts > 0);
  require_valid_days(cfg.days);

  const CityLayout layout = make_layout(cfg);
  Rng rng(cfg.seed);
  const ZipfSampler hub_zipf(layout.num_hubs, cfg.zipf_exponent);

  const auto num_nodes =
      static_cast<std::size_t>(cfg.num_pedestrians + cfg.num_buses);
  Trace trace(num_nodes, cfg.num_landmarks);

  const auto num_days = static_cast<std::size_t>(std::ceil(cfg.days));

  // Pedestrians: home-district walks with occasional hub trips.
  for (NodeId n = 0; n < static_cast<NodeId>(cfg.num_pedestrians); ++n) {
    Rng node_rng = rng.split(n);
    const auto& home = layout.districts[n % cfg.num_districts];
    for (std::size_t day = 0; day < num_days; ++day) {
      double t = static_cast<double>(day) * kDay +
                 (cfg.day_start_hour + node_rng.uniform(0.0, 2.0)) * kHour;
      const double day_end = std::min(
          static_cast<double>(day) * kDay + cfg.day_end_hour * kHour,
          cfg.days * kDay);
      LandmarkId current = home[node_rng.uniform_index(home.size())];
      while (t < day_end) {
        const double stay =
            node_rng.exponential(cfg.mean_stay_minutes * kMinute) + kMinute;
        const double end = std::min(t + stay, day_end);
        if (end <= t) break;
        trace.add_visit(Visit{n, current, t, end});
        const double travel =
            node_rng.exponential(cfg.mean_travel_minutes * kMinute) + kMinute;
        t = end + travel;
        LandmarkId next = current;
        if (node_rng.bernoulli(cfg.trip_probability)) {
          next = static_cast<LandmarkId>(hub_zipf.sample(node_rng));
        } else {
          next = home[node_rng.uniform_index(home.size())];
        }
        if (next == current && cfg.num_landmarks > 1) {
          next = (next + 1) % static_cast<LandmarkId>(cfg.num_landmarks);
        }
        current = next;
      }
    }
  }

  // Buses: fixed routes alternating a hub and a district landmark,
  // sweeping across consecutive districts, driven all day.
  for (std::size_t b = 0; b < cfg.num_buses; ++b) {
    const auto n = static_cast<NodeId>(cfg.num_pedestrians + b);
    Rng node_rng = rng.split(n);
    std::vector<LandmarkId> route;
    route.reserve(std::max<std::size_t>(cfg.bus_route_stops, 2));
    for (std::size_t s = 0; s < std::max<std::size_t>(cfg.bus_route_stops, 2);
         ++s) {
      if (s % 2 == 0) {
        route.push_back(static_cast<LandmarkId>(hub_zipf.sample(node_rng)));
      } else {
        const auto& district =
            layout.districts[(b + s / 2) % cfg.num_districts];
        route.push_back(district[node_rng.uniform_index(district.size())]);
      }
    }
    for (std::size_t day = 0; day < num_days; ++day) {
      double t = static_cast<double>(day) * kDay +
                 (cfg.day_start_hour + node_rng.uniform(0.0, 0.5)) * kHour;
      const double day_end = std::min(
          static_cast<double>(day) * kDay + cfg.day_end_hour * kHour,
          cfg.days * kDay);
      std::size_t stop = 0;
      LandmarkId prev = kNoLandmark;
      while (t < day_end) {
        const LandmarkId at = route[stop % route.size()];
        const double dwell =
            cfg.bus_dwell_minutes * kMinute * node_rng.uniform(0.8, 1.2);
        const double end = std::min(t + dwell, day_end);
        // Consecutive route stops can alias onto one landmark; merging
        // them into distinct visits is fine for the replay engine, but
        // skip zero-length stops.
        if (end > t && at != prev) {
          trace.add_visit(Visit{n, at, t, end});
          prev = at;
        }
        t = end + cfg.bus_hop_minutes * kMinute * node_rng.uniform(0.7, 1.3);
        ++stop;
      }
    }
  }

  trace.finalize();
  return trace;
}

}  // namespace dtn::trace
