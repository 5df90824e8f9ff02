// Table I — characteristics of the mobility traces.
//
// Prints one row per trace (nodes, landmarks, visits, transits,
// duration) for both the quick and the paper-scale synthetic stand-ins.
#include <cstdio>

#include "bench_common.hpp"
#include "trace/trace_stats.hpp"

int main(int argc, char** argv) {
  const dtn::CliOptions opts =
      dtn::bench::parse_cli(argc, argv, "bench_trace_stats");
  dtn::TablePrinter table({"trace", "nodes", "landmarks", "visits", "transits",
                           "days", "mean visit (min)", "transits/node/day"});
  for (const auto& scenario : dtn::bench::make_scenarios(opts)) {
    const auto c = dtn::trace::characterize(scenario.trace);
    table.add_row(scenario.name,
                  {static_cast<double>(c.num_nodes),
                   static_cast<double>(c.num_landmarks),
                   static_cast<double>(c.num_visits),
                   static_cast<double>(c.num_transits), c.duration_days,
                   c.mean_visit_minutes, c.mean_transits_per_node_day});
  }
  table.print("Table I: trace characteristics");
  table.write_csv(dtn::bench::csv_path(opts, "table1_trace_stats"));
  std::printf("\n(paper: DART 320 nodes / 159 landmarks / 119 days; "
              "DNET 34 nodes / 18 landmarks / 26 days; run with "
              "--scale full for paper-scale synthetic traces)\n");
  return 0;
}
