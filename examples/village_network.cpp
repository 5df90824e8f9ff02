// Rural inter-village data network — the paper's motivating application
// (§I): villages without infrastructure exchange data (e-mail batches,
// web prefetches) through people and buses moving between them.
//
// The example compares DTN-FLOW against direct delivery and a
// probabilistic baseline on a bus-and-villager mobility mix, and then
// demonstrates routing a message to a *person* (§IV-E.4): address it to
// the destination node's most frequently visited villages.
//
//   $ ./village_network [--seed N]
#include <cstdio>

#include "core/dtn_flow_router.hpp"
#include "metrics/metrics.hpp"
#include "routing/direct.hpp"
#include "routing/prophet.hpp"
#include "trace/bus_generator.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"

int main(int argc, char** argv) {
  const dtn::CliOptions opts(argc, argv);
  opts.reject_unknown("village_network", {"seed"});

  // Villages as landmarks; buses on market routes plus villagers who
  // mostly shuttle between their home village and the district town.
  // The bus generator covers both: buses are the long fixed routes,
  // "villagers" are short two-stop routes.
  dtn::trace::BusTraceConfig cfg;
  cfg.num_buses = 30;          // 30 carriers
  cfg.num_landmarks = 12;      // 12 villages
  cfg.num_routes = 9;          // market-day circuits + village shuttles
  cfg.route_length_min = 2;    // villagers: home <-> town
  cfg.route_length_max = 6;    // buses: longer circuits
  cfg.num_hubs = 2;            // district towns
  cfg.days = 20.0;
  cfg.weekdays_only = false;
  cfg.inter_stop_minutes = 35.0;  // villages are far apart
  cfg.stop_dwell_minutes = 20.0;
  cfg.seed = opts.get_seed(3);
  const auto trace = dtn::trace::generate_bus_trace(cfg);
  std::printf("village network: %zu carriers over %zu villages, %.0f days\n",
              trace.num_nodes(), trace.num_landmarks(),
              trace.duration() / dtn::trace::kDay);

  dtn::net::WorkloadConfig workload;
  workload.packets_per_landmark_per_day = 30.0;
  workload.ttl = 4.0 * dtn::trace::kDay;
  workload.node_memory_kb = 80;
  workload.time_unit = 0.5 * dtn::trace::kDay;
  workload.seed = opts.get_seed(3) * 5 + 1;

  dtn::TablePrinter table(
      {"router", "success rate", "avg delay (h)", "forwards"});
  auto run = [&](dtn::net::Router& router) {
    const auto r = dtn::metrics::run_experiment(trace, router, workload);
    table.add_row(r.router,
                  {r.success_rate, r.avg_delay / dtn::trace::kHour,
                   r.forwarding_cost},
                  3);
  };
  dtn::core::DtnFlowRouter dtn_flow;
  dtn::routing::ProphetRouter prophet;
  dtn::routing::DirectDeliveryRouter direct;
  run(dtn_flow);
  run(prophet);
  run(direct);
  table.print("inter-village data exchange");

  // Routing to a person (§IV-E.4): find where node 5 can be reached.
  // `frequent_landmarks` summarizes its visiting history; addressing a
  // packet to those villages delivers it where the person shows up.
  {
    dtn::core::DtnFlowRouter router;
    dtn::net::Network net(trace, router, dtn::net::WorkloadConfig{});
    net.run();
    const auto home = dtn::core::DtnFlowRouter::frequent_landmarks(net, 5, 2);
    std::printf("\nrouting to a person: node 5 is best reached via village");
    for (const auto l : home) std::printf(" %u", l);
    std::printf(" (its most frequently visited places)\n");
  }
  return 0;
}
