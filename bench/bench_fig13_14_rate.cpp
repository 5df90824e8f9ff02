// Figs. 13 & 14 — the same four metrics as the packet generation rate
// varies (paper: 100..1000 packets per landmark per day; quick scale
// uses a proportionally scaled axis).
#include <cstdio>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  const dtn::CliOptions opts = dtn::bench::parse_cli(
      argc, argv, "bench_fig13_14_rate", {"replicates", "threads"});
  // Read before any trace is built: a bad count exits at once.
  const std::size_t replicates = opts.get_count("replicates", 1, 1);
  const std::size_t threads =
      opts.get_count("threads", 0, 0, dtn::bench::kMaxThreads);
  const auto factories = dtn::bench::standard_factories();

  for (const auto& scenario : dtn::bench::make_scenarios(opts)) {
    dtn::metrics::SweepConfig sweep;
    sweep.values = scenario.rate_sweep;
    sweep.apply = [](dtn::net::WorkloadConfig& cfg, double v) {
      cfg.packets_per_landmark_per_day = v;
    };
    sweep.replicates = replicates;
    sweep.threads = threads;
    const auto cells = dtn::metrics::run_sweep(scenario.trace,
                                               scenario.workload, factories,
                                               sweep);

    struct Metric {
      const char* title;
      double (*pick)(const dtn::metrics::CellResult&);
      const char* csv;
    };
    const Metric metrics[] = {
        {"(a) success rate",
         [](const dtn::metrics::CellResult& c) { return c.success_rate.mean; },
         "a_success"},
        {"(b) average delay (days)",
         [](const dtn::metrics::CellResult& c) {
           return dtn::bench::to_days(c.avg_delay.mean);
         },
         "b_delay"},
        {"(c) forwarding cost (x1000 ops)",
         [](const dtn::metrics::CellResult& c) {
           return c.forwarding_cost.mean / 1000.0;
         },
         "c_fwdcost"},
        {"(d) total cost (x1000 ops)",
         [](const dtn::metrics::CellResult& c) {
           return c.total_cost.mean / 1000.0;
         },
         "d_totalcost"},
    };

    const std::string fig = scenario.name == "DART" ? "Fig. 13" : "Fig. 14";
    for (const auto& metric : metrics) {
      std::vector<std::string> headers = {"pkts/landmark/day"};
      for (const auto& [name, factory] : factories) headers.push_back(name);
      dtn::TablePrinter table(headers);
      for (std::size_t v = 0; v < sweep.values.size(); ++v) {
        std::vector<double> row;
        for (std::size_t f = 0; f < factories.size(); ++f) {
          row.push_back(metric.pick(cells[f * sweep.values.size() + v]));
        }
        table.add_row(dtn::format_double(sweep.values[v], 6), row, 4);
      }
      table.print(fig + " (" + scenario.name + ") " + metric.title);
      table.write_csv(dtn::bench::csv_path(
          opts, (scenario.name == "DART" ? "fig13" : "fig14") +
                    std::string(metric.csv)));
    }
  }
  std::printf("\n(paper shapes: success decreases with packet rate for all "
              "methods, DTN-FLOW stays highest; delays increase with rate; "
              "forwarding costs increase with rate)\n");
  return 0;
}
