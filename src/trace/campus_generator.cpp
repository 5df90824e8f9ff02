#include "trace/campus_generator.hpp"

#include <algorithm>
#include <cmath>

#include "util/rng.hpp"

namespace dtn::trace {

CampusTraceConfig dart_scale_config(std::uint64_t seed) {
  CampusTraceConfig c;
  c.num_nodes = 320;
  c.num_landmarks = 159;
  c.num_communities = 16;
  c.community_landmarks = 8;
  c.days = 119.0;
  // Long traces over many landmarks dilute per-context evidence; a
  // slightly stronger habit keeps the measured order-1 accuracy at the
  // paper's ~0.77 (Fig. 6).
  c.habit_probability = 0.86;
  c.seed = seed;
  return c;
}

namespace {

/// Per-node mobility profile: preference weights and habitual successors.
struct NodeProfile {
  std::vector<double> preference;      // weight per landmark
  std::vector<LandmarkId> habit_next;  // habitual successor per landmark
  LandmarkId home = 0;                 // where the day starts (dorm)
};

NodeProfile make_profile(const CampusTraceConfig& cfg,
                         const std::vector<std::vector<LandmarkId>>& communities,
                         std::size_t community, const ZipfSampler& zipf,
                         Rng& rng) {
  NodeProfile p;
  p.preference.assign(cfg.num_landmarks, 0.0);
  // Non-home component: a few *personal favourite* landmarks sampled by
  // global (Zipf) popularity, not a diffuse tail over every landmark.
  // This keeps observation O1 true even for the most popular places:
  // each landmark's visits are concentrated in its community plus a few
  // individual fans, never spread evenly over the whole population.
  const std::size_t num_favorites = std::min<std::size_t>(3, cfg.num_landmarks);
  std::vector<LandmarkId> favorites;
  for (int attempt = 0; attempt < 64 && favorites.size() < num_favorites;
       ++attempt) {
    const auto fav = static_cast<LandmarkId>(zipf.sample(rng));
    // Distinct favourites: a repeated draw would make one node a
    // *frequent* visitor of a hub, eroding observation O1.
    if (std::find(favorites.begin(), favorites.end(), fav) == favorites.end()) {
      favorites.push_back(fav);
    }
  }
  for (const LandmarkId fav : favorites) {
    p.preference[fav] += (1.0 - cfg.community_bias) /
                         static_cast<double>(num_favorites);
  }
  // Dominant community component with per-node jitter, so two nodes of
  // one community are similar but not identical.
  const auto& home_set = communities[community];
  for (LandmarkId l : home_set) {
    p.preference[l] += cfg.community_bias * rng.uniform(0.5, 1.5) /
                       static_cast<double>(home_set.size());
  }
  p.home = home_set[rng.uniform_index(home_set.size())];
  // Habitual successor per landmark: sampled once from the preference
  // distribution (excluding self); this fixed map is what the order-1
  // Markov predictor can learn.
  p.habit_next.assign(cfg.num_landmarks, 0);
  for (LandmarkId l = 0; l < cfg.num_landmarks; ++l) {
    for (int attempt = 0; attempt < 16; ++attempt) {
      const auto cand =
          static_cast<LandmarkId>(rng.discrete(p.preference));
      if (cand != l) {
        p.habit_next[l] = cand;
        break;
      }
      p.habit_next[l] = (l + 1) % static_cast<LandmarkId>(cfg.num_landmarks);
    }
  }
  return p;
}

LandmarkId sample_next(const CampusTraceConfig& cfg, const NodeProfile& p,
                       LandmarkId current, Rng& rng) {
  if (rng.bernoulli(cfg.habit_probability) && p.habit_next[current] != current) {
    return p.habit_next[current];
  }
  for (int attempt = 0; attempt < 16; ++attempt) {
    const auto cand = static_cast<LandmarkId>(rng.discrete(p.preference));
    if (cand != current) return cand;
  }
  return (current + 1) % static_cast<LandmarkId>(cfg.num_landmarks);
}

}  // namespace

Trace generate_campus_trace(const CampusTraceConfig& cfg) {
  DTN_ASSERT(cfg.num_nodes > 0);
  DTN_ASSERT(cfg.num_landmarks >= 2);
  DTN_ASSERT(cfg.num_communities > 0);
  DTN_ASSERT(cfg.habit_probability >= 0.0 && cfg.habit_probability <= 1.0);
  require_valid_days(cfg.days);

  Rng rng(cfg.seed);
  const ZipfSampler zipf(cfg.num_landmarks, cfg.zipf_exponent);

  // Community home sets: each community owns a handful of "department"
  // landmarks, dealt round-robin so every landmark belongs to some
  // community.  Inter-community traffic comes from the per-node
  // favourite landmarks (popular hubs emerge from the Zipf sampling in
  // `make_profile` rather than from universally shared home sets —
  // otherwise the top landmarks would violate observation O1).
  std::vector<std::vector<LandmarkId>> communities(cfg.num_communities);
  {
    LandmarkId next_own = 0;
    for (std::size_t c = 0; c < cfg.num_communities; ++c) {
      auto& set = communities[c];
      for (std::size_t k = 0; k < cfg.community_landmarks; ++k) {
        set.push_back(next_own);
        next_own = (next_own + 1) % static_cast<LandmarkId>(cfg.num_landmarks);
      }
      std::sort(set.begin(), set.end());
      set.erase(std::unique(set.begin(), set.end()), set.end());
    }
  }

  auto holidays = cfg.holidays;
  if (holidays.empty() && cfg.add_default_holiday && cfg.days >= 20.0) {
    // One break window at ~60-70% through the trace (Thanksgiving-like).
    holidays.emplace_back(cfg.days * 0.60, cfg.days * 0.70);
  }
  const auto in_holiday = [&](double day) {
    return std::any_of(holidays.begin(), holidays.end(), [&](const auto& h) {
      return day >= h.first && day < h.second;
    });
  };

  Trace trace(cfg.num_nodes, cfg.num_landmarks);
  for (NodeId n = 0; n < cfg.num_nodes; ++n) {
    Rng node_rng = rng.split(n);
    const std::size_t community = n % cfg.num_communities;
    const NodeProfile profile =
        make_profile(cfg, communities, community, zipf, node_rng);

    for (std::size_t day = 0; day < static_cast<std::size_t>(cfg.days); ++day) {
      const bool weekend = (day % 7 == 5) || (day % 7 == 6);
      double activity = 1.0;
      if (weekend) activity = cfg.weekend_activity;
      if (in_holiday(static_cast<double>(day))) activity = cfg.holiday_activity;
      if (!node_rng.bernoulli(activity)) continue;

      double t = static_cast<double>(day) * kDay +
                 (cfg.day_start_hour + node_rng.uniform(-0.5, 1.0)) * kHour;
      const double day_end =
          static_cast<double>(day) * kDay + cfg.day_end_hour * kHour;
      LandmarkId current = profile.home;
      while (t < day_end) {
        const double stay =
            node_rng.lognormal(std::log(cfg.mean_stay_minutes * kMinute) -
                                   0.5 * cfg.stay_sigma * cfg.stay_sigma,
                               cfg.stay_sigma);
        const double end = std::min(t + std::max(stay, kMinute), day_end);
        if (end <= t) break;
        if (!node_rng.bernoulli(cfg.miss_probability)) {
          trace.add_visit(Visit{n, current, t, end});
        }
        const double travel =
            node_rng.exponential(cfg.mean_travel_minutes * kMinute) + kMinute;
        t = end + travel;
        current = sample_next(cfg, profile, current, node_rng);
      }
    }
  }
  trace.finalize();
  return trace;
}

}  // namespace dtn::trace
