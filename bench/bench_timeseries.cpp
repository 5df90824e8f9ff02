// Congestion dynamics over time (not a paper figure): per-time-unit
// backlog and delivery progression of DTN-FLOW vs PROPHET on the DART
// scenario.  Makes the architectural difference visible: DTN-FLOW
// offloads to landmark stations (station backlog, bounded node
// buffers), the node-only baseline saturates its carriers.
#include <cstdio>

#include "bench_common.hpp"
#include "metrics/observer.hpp"
#include "routing/factory.hpp"

int main(int argc, char** argv) {
  const dtn::CliOptions opts =
      dtn::bench::parse_cli(argc, argv, "bench_timeseries");
  const auto scenario =
      dtn::bench::make_dart_scenario(opts.full_scale(), opts.get_seed(1));

  for (const std::string name : {"DTN-FLOW", "PROPHET"}) {
    dtn::metrics::ObservedRouter router(dtn::routing::make_router(name));
    dtn::net::Network net(scenario.trace, router, scenario.workload);
    net.run();
    dtn::TablePrinter table({"unit", "delivered", "dropped", "station pkts",
                             "max station", "origin pkts", "on nodes"});
    // Print at most 16 evenly spaced samples.
    const auto& samples = router.samples();
    const std::size_t step =
        std::max<std::size_t>(1, samples.size() / 16);
    for (std::size_t i = 0; i < samples.size(); i += step) {
      const auto& s = samples[i];
      table.add_row("u" + std::to_string(s.unit),
                    {static_cast<double>(s.delivered),
                     static_cast<double>(s.dropped_ttl),
                     static_cast<double>(s.station_backlog_total),
                     static_cast<double>(s.station_backlog_max),
                     static_cast<double>(s.origin_backlog_total),
                     static_cast<double>(s.node_buffered_total)},
                    6);
    }
    table.print("congestion dynamics: " + name + " (DART)");
    table.write_csv(dtn::bench::csv_path(opts, "timeseries_" + name));
  }
  std::printf("\n(shape check: DTN-FLOW parks queued traffic at stations "
              "and keeps node buffers circulating; the node-only baseline "
              "fills carrier buffers and strands the origin queues)\n");
  return 0;
}
