// Wildlife monitoring — the paper's other motivating application (§I
// cites ZebraNet): digital collars on animals log sensor data; rangers
// collect it at a base station without any infrastructure network.
// Waterholes and feeding grounds are the natural landmarks (§IV-A.1:
// "places with water/food are frequently visited").
//
// The example builds a savanna map, generates collar mobility with the
// geographic generator (animals range around home waterholes), routes
// every logged packet to the ranger base with DTN-FLOW, and finally
// demonstrates querying a *specific collar* via node-addressed packets
// (§IV-E.4).
//
//   $ ./wildlife_monitoring [--seed N] [--days D]
#include <cstdio>
#include <stdexcept>

#include "core/dtn_flow_router.hpp"
#include "metrics/metrics.hpp"
#include "trace/contacts.hpp"
#include "trace/geo_generator.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"

namespace {

int run(const dtn::CliOptions& opts) {
  // The savanna: a ranger base plus nine waterholes / feeding grounds
  // spread over ~20 km.
  dtn::trace::GeoTraceConfig cfg;
  cfg.landmark_positions = {
      {0.0, 0.0},          // 0: ranger base (collection sink)
      {4000.0, 2500.0},    {-3500.0, 4200.0}, {6500.0, -1500.0},
      {-5200.0, -2800.0},  {1500.0, 6800.0},  {-800.0, -6200.0},
      {8200.0, 3600.0},    {-7400.0, 900.0},  {2600.0, -4700.0},
  };
  cfg.num_nodes = 20;  // collared animals
  cfg.days = opts.get_double("days", 30.0);
  cfg.seed = opts.get_seed(12);
  cfg.speed_m_per_s = 0.9;        // ambling herds
  cfg.mean_stay_minutes = 180.0;  // long stays at water
  cfg.stay_sigma = 0.7;
  cfg.home_bias = 0.5;            // strong home-range fidelity
  // The base is visited occasionally (it has a salt lick); waterholes
  // draw the traffic.
  cfg.attraction = {0.6, 1.5, 1.2, 1.0, 1.0, 0.8, 0.8, 0.6, 0.6, 0.9};
  const auto trace = dtn::trace::generate_geo_trace(cfg);

  const auto contacts = dtn::trace::derive_contacts(trace);
  const auto cs = dtn::trace::analyze_contacts(trace, contacts);
  std::printf("savanna: %zu collars over %zu sites, %.0f days; "
              "%.1f herd contacts per collar-day\n",
              trace.num_nodes(), trace.num_landmarks(), cfg.days,
              cs.contacts_per_node_day);

  // Every site streams its sensor log to the ranger base (landmark 0).
  dtn::net::WorkloadConfig workload;
  workload.packets_per_landmark_per_day = 12.0;
  workload.ttl = 10.0 * dtn::trace::kDay;
  workload.node_memory_kb = 100;
  workload.time_unit = 1.0 * dtn::trace::kDay;
  workload.seed = opts.get_seed(12) * 3 + 1;
  workload.destination_weights.assign(trace.num_landmarks(), 0.0);
  workload.destination_weights[0] = 1.0;

  dtn::core::DtnFlowRouter router;
  dtn::net::Network net(trace, router, workload);
  net.run();
  const auto r = dtn::metrics::summarize(net, router);
  std::printf("collection: %lu packets logged, %.1f%% reached the base, "
              "mean latency %.1f h over %.1f hops\n",
              static_cast<unsigned long>(r.generated),
              100.0 * r.success_rate, r.avg_delay / dtn::trace::kHour,
              r.mean_hops);

  // Query a specific collar (§IV-E.4): the base wants a full dump from
  // collar 7.  Find where that animal can be reached and send the
  // command packet there, addressed to the node.
  {
    const auto home =
        dtn::core::DtnFlowRouter::frequent_landmarks(net, 7, 2);
    std::printf("collar 7 ranges around site(s):");
    for (const auto l : home) std::printf(" %u", l);
    std::printf("\n");

    dtn::core::DtnFlowRouter router2;
    auto query = workload;
    query.packets_per_landmark_per_day = 0.0;
    query.destination_weights.clear();
    dtn::net::WorkloadConfig::ManualPacket mp;
    mp.src = 0;                       // from the base
    mp.dst = home.empty() ? 1 : home[0];
    mp.dst_node = 7;                  // ... to the collar itself
    mp.time = trace.begin_time() + 0.3 * trace.duration();
    query.manual_packets = {mp};
    dtn::net::Network qnet(trace, router2, query);
    qnet.run();
    if (qnet.counters().delivered == 1) {
      const auto& p = qnet.packet(0);
      std::printf("query delivered to collar 7 after %.1f h (%u hops)\n",
                  (p.delivered_at - p.created) / dtn::trace::kHour, p.hops);
    } else {
      std::printf("query still in flight at trace end\n");
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const dtn::CliOptions opts(argc, argv);
  opts.reject_unknown("wildlife_monitoring", {"days", "seed"});
  try {
    return run(opts);
  } catch (const std::invalid_argument& e) {
    // A --days the trace generator refuses is a usage error.
    std::fprintf(stderr, "wildlife_monitoring: %s\n", e.what());
    return 2;
  }
}
