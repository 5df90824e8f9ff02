// Single-copy DTN-FLOW against the classic multi-copy references — an
// extra-paper calibration: Epidemic flooding is the delivery ceiling at
// maximal cost, binary Spray-and-Wait the bounded compromise, Direct
// the floor.  The interesting number is how close single-copy DTN-FLOW
// gets to the ceiling and at what fraction of the replication cost.
#include <cstdio>

#include "bench_common.hpp"
#include "routing/factory.hpp"

int main(int argc, char** argv) {
  const dtn::CliOptions opts =
      dtn::bench::parse_cli(argc, argv, "bench_multicopy");
  for (const auto& scenario : dtn::bench::make_scenarios(opts)) {
    // Flooding only bounds delivery when buffers are not the binding
    // constraint; compare in a lighter-load regime (multi-copy schemes
    // are known to collapse under the congestion of Figs. 11-14).
    auto workload = scenario.workload;
    workload.node_memory_kb *= 20;
    workload.packets_per_landmark_per_day /= 3.0;
    dtn::TablePrinter table({"router", "success rate", "avg delay (days)",
                             "forwards", "replications"});
    for (const std::string name :
         {"DTN-FLOW", "Epidemic", "SprayWait", "Direct"}) {
      const auto router = dtn::routing::make_router(name);
      dtn::net::Network net(scenario.trace, *router, workload);
      net.run();
      const auto r = dtn::metrics::summarize(net, *router);
      table.add_row(name,
                    {r.success_rate, dtn::bench::to_days(r.avg_delay),
                     r.forwarding_cost,
                     static_cast<double>(net.counters().replications)},
                    4);
    }
    table.print("multi-copy calibration (" + scenario.name + ")");
    table.write_csv(
        dtn::bench::csv_path(opts, "multicopy_" + scenario.name));
  }
  std::printf("\n(not a paper experiment: Epidemic/SprayWait bound the "
              "achievable delivery; DTN-FLOW is single-copy)\n");
  return 0;
}
