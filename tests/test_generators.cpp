// Property tests on the synthetic trace generators: they must exhibit
// the structural observations O1-O4 the paper's design relies on
// (skewed visits, few dominant links, symmetric matching links, stable
// bandwidth), plus the prediction-accuracy regimes of §IV-B.3.
#include "trace/bus_generator.hpp"
#include "trace/campus_generator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>
#include <stdexcept>

#include "core/markov_predictor.hpp"
#include "trace/city_generator.hpp"
#include "trace/geo_generator.hpp"
#include "trace/trace_stats.hpp"
#include "util/stats.hpp"

namespace dtn::trace {
namespace {

CampusTraceConfig small_campus(std::uint64_t seed) {
  CampusTraceConfig cfg;
  cfg.num_nodes = 60;
  cfg.num_landmarks = 20;
  cfg.num_communities = 5;
  cfg.days = 30.0;
  cfg.seed = seed;
  return cfg;
}

BusTraceConfig small_bus(std::uint64_t seed) {
  BusTraceConfig cfg;
  cfg.num_buses = 20;
  cfg.num_landmarks = 12;
  cfg.num_routes = 6;
  cfg.days = 15.0;
  cfg.seed = seed;
  return cfg;
}

class GeneratorSeedTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GeneratorSeedTest, CampusTraceWellFormed) {
  const Trace t = generate_campus_trace(small_campus(GetParam()));
  EXPECT_EQ(t.num_nodes(), 60u);
  EXPECT_EQ(t.num_landmarks(), 20u);
  EXPECT_GT(t.total_visits(), 1000u);
  EXPECT_GT(t.duration(), 20.0 * kDay);
}

TEST_P(GeneratorSeedTest, CampusDeterministicPerSeed) {
  const Trace a = generate_campus_trace(small_campus(GetParam()));
  const Trace b = generate_campus_trace(small_campus(GetParam()));
  ASSERT_EQ(a.total_visits(), b.total_visits());
  for (NodeId n = 0; n < a.num_nodes(); ++n) {
    const auto va = a.visits(n);
    const auto vb = b.visits(n);
    ASSERT_EQ(va.size(), vb.size());
    for (std::size_t i = 0; i < va.size(); ++i) EXPECT_EQ(va[i], vb[i]);
  }
}

TEST_P(GeneratorSeedTest, CampusObservationO1SkewedVisiting) {
  const Trace t = generate_campus_trace(small_campus(GetParam()));
  const auto counts = visit_count_matrix(t);
  const auto popular = landmarks_by_popularity(t);
  // O1, operationalized as in Fig. 2: for each of the top-5 landmarks
  // only a small portion of nodes are *frequent* visitors — at most 30%
  // of nodes reach half of the busiest visitor's count.
  for (std::size_t k = 0; k < 5; ++k) {
    const LandmarkId l = popular[k];
    std::uint64_t max_count = 0;
    for (NodeId n = 0; n < t.num_nodes(); ++n) {
      max_count = std::max(max_count, counts.at(n, l));
    }
    ASSERT_GT(max_count, 0u);
    std::size_t frequent = 0;
    for (NodeId n = 0; n < t.num_nodes(); ++n) {
      if (counts.at(n, l) * 2 >= max_count) ++frequent;
    }
    EXPECT_LT(static_cast<double>(frequent),
              0.3 * static_cast<double>(t.num_nodes()))
        << "landmark " << l;
  }
}

TEST_P(GeneratorSeedTest, CampusObservationO2FewDominantLinks) {
  const Trace t = generate_campus_trace(small_campus(GetParam()));
  const auto links = link_bandwidths(t, 3.0 * kDay);
  ASSERT_GT(links.size(), 10u);
  double total = 0.0, top = 0.0;
  for (std::size_t i = 0; i < links.size(); ++i) {
    total += links[i].bandwidth;
    if (i < links.size() / 5) top += links[i].bandwidth;
  }
  EXPECT_GT(top / total, 0.4);  // top 20% of links carry >40% of transits
}

TEST_P(GeneratorSeedTest, CampusObservationO3SymmetricMatchingLinks) {
  const Trace t = generate_campus_trace(small_campus(GetParam()));
  EXPECT_GT(matching_link_symmetry(t), 0.6);
}

TEST_P(GeneratorSeedTest, CampusHolidayDip) {
  auto cfg = small_campus(GetParam());
  cfg.days = 40.0;
  cfg.holidays = {{20.0, 26.0}};
  const Trace t = generate_campus_trace(cfg);
  // Compare visits in the holiday window against the preceding window.
  std::size_t before = 0, during = 0;
  for (NodeId n = 0; n < t.num_nodes(); ++n) {
    for (const auto& v : t.visits(n)) {
      if (v.start >= 14.0 * kDay && v.start < 20.0 * kDay) ++before;
      if (v.start >= 20.0 * kDay && v.start < 26.0 * kDay) ++during;
    }
  }
  EXPECT_LT(during, before / 3);
}

TEST_P(GeneratorSeedTest, CampusOrderOnePredictabilityInPaperRange) {
  const Trace t = generate_campus_trace(small_campus(GetParam()));
  RunningStats acc;
  for (NodeId n = 0; n < t.num_nodes(); ++n) {
    const auto seq = core::visiting_sequence(t.visits(n));
    const auto score = core::score_sequence(t.num_landmarks(), 1, seq);
    if (score.predictions >= 20) acc.add(score.accuracy());
  }
  ASSERT_GT(acc.count(), 20u);
  // Paper: DART average ~0.77; accept a generous band.
  EXPECT_GT(acc.mean(), 0.60);
  EXPECT_LT(acc.mean(), 0.92);
}

TEST_P(GeneratorSeedTest, BusTraceWellFormed) {
  const Trace t = generate_bus_trace(small_bus(GetParam()));
  EXPECT_EQ(t.num_nodes(), 20u);
  EXPECT_EQ(t.num_landmarks(), 12u);
  EXPECT_GT(t.total_visits(), 500u);
}

TEST_P(GeneratorSeedTest, BusWeekendsAreQuiet) {
  const Trace t = generate_bus_trace(small_bus(GetParam()));
  for (NodeId n = 0; n < t.num_nodes(); ++n) {
    for (const auto& v : t.visits(n)) {
      const auto day = static_cast<std::size_t>(v.start / kDay);
      EXPECT_NE(day % 7, 5u);
      EXPECT_NE(day % 7, 6u);
    }
  }
}

TEST_P(GeneratorSeedTest, BusBandwidthStableAcrossUnits) {
  const Trace t = generate_bus_trace(small_bus(GetParam()));
  const auto links = link_bandwidths(t, 0.5 * kDay);
  ASSERT_GE(links.size(), 3u);
  // Top link's per-unit counts on weekdays should stay near their mean
  // (O4): coefficient of variation below 1 over non-empty units.
  const auto series =
      link_bandwidth_series(t, links[0].from, links[0].to, 0.5 * kDay);
  RunningStats rs;
  for (double v : series) {
    if (v > 0.0) rs.add(v);
  }
  ASSERT_GT(rs.count(), 5u);
  EXPECT_LT(rs.stddev() / rs.mean(), 1.0);
}

TEST_P(GeneratorSeedTest, BusPredictabilityBelowCampus) {
  // §IV-B.3: despite repetitive routes, AP ambiguity makes DNET's
  // order-1 accuracy *lower* than the campus trace's.
  const Trace campus = generate_campus_trace(small_campus(GetParam()));
  const Trace bus = generate_bus_trace(small_bus(GetParam()));
  auto mean_accuracy = [](const Trace& t) {
    RunningStats acc;
    for (NodeId n = 0; n < t.num_nodes(); ++n) {
      const auto seq = core::visiting_sequence(t.visits(n));
      const auto score = core::score_sequence(t.num_landmarks(), 1, seq);
      if (score.predictions >= 20) acc.add(score.accuracy());
    }
    return acc.mean();
  };
  const double campus_acc = mean_accuracy(campus);
  const double bus_acc = mean_accuracy(bus);
  EXPECT_GT(bus_acc, 0.4);
  EXPECT_LT(bus_acc, campus_acc);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeneratorSeedTest,
                         ::testing::Values(1ull, 7ull, 1234ull));

TEST(BusRoutes, EveryLandmarkOnSomeRoute) {
  const auto cfg = small_bus(3);
  const auto routes = make_bus_routes(cfg);
  ASSERT_EQ(routes.size(), cfg.num_routes);
  std::set<LandmarkId> covered;
  for (const auto& r : routes) {
    EXPECT_GE(r.size(), 2u);
    EXPECT_LE(r.size(), cfg.route_length_max);
    covered.insert(r.begin(), r.end());
    // Stops within a route are distinct.
    const std::set<LandmarkId> uniq(r.begin(), r.end());
    EXPECT_EQ(uniq.size(), r.size());
  }
  EXPECT_EQ(covered.size(), cfg.num_landmarks);
}

TEST(BusRoutes, HubsSharedAcrossRoutes) {
  const auto cfg = small_bus(4);
  const auto routes = make_bus_routes(cfg);
  std::size_t with_hub = 0;
  for (const auto& r : routes) {
    if (r.front() < cfg.num_hubs) ++with_hub;
  }
  EXPECT_EQ(with_hub, routes.size());
}

TEST(DartScaleConfig, MatchesPaperTableOne) {
  const auto cfg = dart_scale_config();
  EXPECT_EQ(cfg.num_nodes, 320u);
  EXPECT_EQ(cfg.num_landmarks, 159u);
  EXPECT_DOUBLE_EQ(cfg.days, 119.0);
}

TEST(DnetScaleConfig, MatchesPaperTableOne) {
  const auto cfg = dnet_scale_config();
  EXPECT_EQ(cfg.num_buses, 34u);
  EXPECT_EQ(cfg.num_landmarks, 18u);
  EXPECT_DOUBLE_EQ(cfg.days, 26.0);
}

TEST(Generators, RejectNonFiniteOrNonPositiveDays) {
  // Each generator casts the day count to an unsigned loop bound, which
  // never ends (or is undefined) for NaN and negative lengths.
  for (const double days : {0.0, -1.0, std::numeric_limits<double>::quiet_NaN(),
                            std::numeric_limits<double>::infinity()}) {
    SCOPED_TRACE(days);
    CampusTraceConfig campus = small_campus(1);
    campus.days = days;
    EXPECT_THROW((void)generate_campus_trace(campus), std::invalid_argument);
    BusTraceConfig bus = small_bus(1);
    bus.days = days;
    EXPECT_THROW((void)generate_bus_trace(bus), std::invalid_argument);
    CityTraceConfig city;
    city.days = days;
    EXPECT_THROW((void)generate_city_trace(city), std::invalid_argument);
    GeoTraceConfig geo;
    geo.landmark_positions = {{0.0, 0.0}, {500.0, 0.0}};
    geo.days = days;
    EXPECT_THROW((void)generate_geo_trace(geo), std::invalid_argument);
  }
}

}  // namespace
}  // namespace dtn::trace
