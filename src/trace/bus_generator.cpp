#include "trace/bus_generator.hpp"

#include <algorithm>
#include <cmath>

#include "util/rng.hpp"

namespace dtn::trace {

BusTraceConfig dnet_scale_config(std::uint64_t seed) {
  BusTraceConfig c;
  c.seed = seed;
  return c;
}

std::vector<std::vector<LandmarkId>> make_bus_routes(const BusTraceConfig& cfg) {
  DTN_ASSERT(cfg.num_landmarks >= cfg.route_length_max);
  DTN_ASSERT(cfg.route_length_min >= 2);
  DTN_ASSERT(cfg.route_length_min <= cfg.route_length_max);
  DTN_ASSERT(cfg.num_hubs < cfg.num_landmarks);
  Rng rng(cfg.seed ^ 0x5ca1ab1eULL);
  std::vector<std::vector<LandmarkId>> routes(cfg.num_routes);
  // Non-hub stops dealt round-robin so every landmark appears on some
  // route; hubs are prepended to every route.
  LandmarkId next_stop = static_cast<LandmarkId>(cfg.num_hubs);
  for (std::size_t r = 0; r < cfg.num_routes; ++r) {
    auto& route = routes[r];
    route.push_back(static_cast<LandmarkId>(r % cfg.num_hubs));
    const std::size_t len = static_cast<std::size_t>(rng.uniform_int(
        static_cast<std::int64_t>(cfg.route_length_min),
        static_cast<std::int64_t>(cfg.route_length_max)));
    while (route.size() < len) {
      if (std::find(route.begin(), route.end(), next_stop) == route.end()) {
        route.push_back(next_stop);
      }
      next_stop = next_stop + 1 >= cfg.num_landmarks
                      ? static_cast<LandmarkId>(cfg.num_hubs)
                      : next_stop + 1;
    }
  }
  return routes;
}

Trace generate_bus_trace(const BusTraceConfig& cfg) {
  DTN_ASSERT(cfg.num_buses > 0);
  require_valid_days(cfg.days);
  const auto routes = make_bus_routes(cfg);
  Rng rng(cfg.seed);

  Trace trace(cfg.num_buses, cfg.num_landmarks);
  for (NodeId bus = 0; bus < cfg.num_buses; ++bus) {
    Rng bus_rng = rng.split(bus);
    std::vector<LandmarkId> route = routes[bus % routes.size()];
    // Half the fleet serves each route in the reverse direction, so the
    // aggregate transit matrix is symmetric (observation O3) while each
    // individual bus stays order-1 predictable.
    if ((bus / routes.size()) % 2 == 1) {
      std::reverse(route.begin(), route.end());
    }
    // Stagger departures so buses on one route are spread along it.
    const double stagger =
        bus_rng.uniform(0.0, 0.6) * static_cast<double>(route.size()) *
        cfg.inter_stop_minutes * kMinute;

    for (std::size_t day = 0; day < static_cast<std::size_t>(cfg.days); ++day) {
      const bool weekend = (day % 7 == 5) || (day % 7 == 6);
      if (weekend && cfg.weekdays_only) continue;

      double t = static_cast<double>(day) * kDay +
                 cfg.service_start_hour * kHour + stagger;
      const double service_end =
          static_cast<double>(day) * kDay + cfg.service_end_hour * kHour;
      std::size_t idx = 0;
      while (t < service_end) {
        const double dwell =
            cfg.stop_dwell_minutes * kMinute *
            bus_rng.uniform(1.0 - cfg.schedule_noise, 1.0 + cfg.schedule_noise);
        const double end = std::min(t + std::max(dwell, 30.0), service_end);
        if (end <= t) break;

        // AP association at this stop: maybe missed, maybe recorded as a
        // neighbouring stop's AP (the ambiguity that hurts prediction).
        if (!bus_rng.bernoulli(cfg.miss_probability)) {
          LandmarkId recorded = route[idx];
          if (bus_rng.bernoulli(cfg.alias_probability)) {
            const std::size_t neighbor =
                bus_rng.bernoulli(0.5) ? (idx + 1) % route.size()
                                       : (idx + route.size() - 1) % route.size();
            recorded = route[neighbor];
          }
          trace.add_visit(Visit{bus, recorded, t, end});
        }

        const double travel =
            cfg.inter_stop_minutes * kMinute *
            bus_rng.uniform(1.0 - cfg.schedule_noise, 1.0 + cfg.schedule_noise);
        t = end + std::max(travel, kMinute);
        idx = (idx + 1) % route.size();
      }
    }
  }
  trace.finalize();
  return trace;
}

}  // namespace dtn::trace
