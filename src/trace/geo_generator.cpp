#include "trace/geo_generator.hpp"

#include <algorithm>
#include <cmath>

#include "util/rng.hpp"

namespace dtn::trace {

std::vector<Point> fig15_positions() {
  return {
      {0.0, 0.0},       // L1 library (center of campus)
      {-250.0, 150.0},  // L2 department
      {-60.0, 260.0},   // L3 student center
      {220.0, 180.0},   // L4 department
      {-180.0, -220.0}, // L5 department
      {90.0, -260.0},   // L6 dining
      {260.0, -160.0},  // L7 department
      {330.0, 30.0},    // L8 dining
  };
}

namespace {

double distance(const Point& a, const Point& b) {
  const double dx = a.x - b.x;
  const double dy = a.y - b.y;
  return std::sqrt(dx * dx + dy * dy);
}

}  // namespace

Trace generate_geo_trace(const GeoTraceConfig& cfg) {
  const std::size_t m = cfg.landmark_positions.size();
  DTN_ASSERT(m >= 2);
  DTN_ASSERT(cfg.num_nodes > 0);
  DTN_ASSERT(cfg.speed_m_per_s > 0.0);
  DTN_ASSERT(cfg.attraction.empty() || cfg.attraction.size() == m);
  DTN_ASSERT(cfg.homes.empty() || cfg.homes.size() == cfg.num_nodes);
  require_valid_days(cfg.days);

  std::vector<double> attraction = cfg.attraction;
  if (attraction.empty()) attraction.assign(m, 1.0);

  Rng rng(cfg.seed);
  Trace trace(cfg.num_nodes, m);
  for (NodeId n = 0; n < cfg.num_nodes; ++n) {
    Rng node_rng = rng.split(n);
    const LandmarkId home =
        cfg.homes.empty() ? static_cast<LandmarkId>(n % m) : cfg.homes[n];
    DTN_ASSERT(home < m);

    for (std::size_t day = 0; day < static_cast<std::size_t>(cfg.days);
         ++day) {
      double now = static_cast<double>(day) * kDay +
                   (cfg.day_start_hour + node_rng.uniform(0.0, 0.75)) * kHour;
      const double day_end =
          static_cast<double>(day) * kDay + cfg.day_end_hour * kHour;
      LandmarkId here = home;
      while (now < day_end) {
        const double stay = node_rng.lognormal(
            std::log(cfg.mean_stay_minutes * kMinute) -
                0.5 * cfg.stay_sigma * cfg.stay_sigma,
            cfg.stay_sigma);
        const double end = std::min(now + std::max(stay, kMinute), day_end);
        if (end <= now) break;
        if (!node_rng.bernoulli(cfg.miss_probability)) {
          trace.add_visit(Visit{n, here, now, end});
        }
        // Pick the next landmark: home pull when away, attraction else.
        LandmarkId next = here;
        if (here != home && node_rng.bernoulli(cfg.home_bias)) {
          next = home;
        } else {
          std::vector<double> weights = attraction;
          weights[here] = 0.0;
          next = static_cast<LandmarkId>(node_rng.discrete(weights));
        }
        // Walk there: travel time from the map.
        const double dist =
            distance(cfg.landmark_positions[here], cfg.landmark_positions[next]);
        const double travel =
            std::max(kMinute, dist / cfg.speed_m_per_s *
                                  node_rng.uniform(1.0 - cfg.travel_noise,
                                                   1.0 + cfg.travel_noise));
        now = end + travel;
        here = next;
      }
    }
  }
  trace.finalize();
  return trace;
}

Trace visits_from_position_samples(std::vector<PositionSample> samples,
                                   const std::vector<Point>& landmark_positions,
                                   std::size_t num_nodes,
                                   double association_radius,
                                   double max_fix_gap, double min_visit) {
  DTN_ASSERT(!landmark_positions.empty());
  DTN_ASSERT(association_radius > 0.0);
  DTN_ASSERT(max_fix_gap > 0.0);
  std::sort(samples.begin(), samples.end(),
            [](const PositionSample& a, const PositionSample& b) {
              if (a.node != b.node) return a.node < b.node;
              return a.time < b.time;
            });
  const double r2 = association_radius * association_radius;
  Trace trace(num_nodes, landmark_positions.size());

  // Current open association per node.
  LandmarkId open_landmark = kNoLandmark;
  double open_start = 0.0;
  double open_last = 0.0;
  NodeId open_node = kNoNode;
  auto close_open = [&] {
    if (open_landmark == kNoLandmark) return;
    const double end = std::max(open_last, open_start + 1.0);
    if (end - open_start >= min_visit) {
      trace.add_visit(Visit{open_node, open_landmark, open_start, end});
    }
    open_landmark = kNoLandmark;
  };

  for (const auto& s : samples) {
    DTN_ASSERT(s.node < num_nodes);
    // Nearest landmark within the association radius, ties to lower id.
    LandmarkId at = kNoLandmark;
    double best = r2;
    for (std::size_t l = 0; l < landmark_positions.size(); ++l) {
      const double dx = s.position.x - landmark_positions[l].x;
      const double dy = s.position.y - landmark_positions[l].y;
      const double d2 = dx * dx + dy * dy;
      if (d2 < best) {
        best = d2;
        at = static_cast<LandmarkId>(l);
      }
    }
    const bool continues = open_landmark != kNoLandmark &&
                           s.node == open_node && at == open_landmark &&
                           s.time - open_last <= max_fix_gap &&
                           s.time >= open_last;
    if (continues) {
      open_last = s.time;
      continue;
    }
    close_open();
    if (at != kNoLandmark) {
      open_node = s.node;
      open_landmark = at;
      open_start = s.time;
      open_last = s.time;
    }
  }
  close_open();
  trace.finalize();
  return trace;
}

}  // namespace dtn::trace
