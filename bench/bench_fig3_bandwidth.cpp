// Fig. 3 — bandwidth distribution of transit links.
//
// Prints the bandwidth of every directed transit link in decreasing
// order (binned for readability), the share of total bandwidth carried
// by the top 20% of links (observation O2), and the symmetry of
// matching links as the correlation between B(i->j) and B(j->i)
// (observation O3).
#include <cstdio>

#include "bench_common.hpp"
#include "trace/trace_stats.hpp"

int main(int argc, char** argv) {
  const dtn::CliOptions opts =
      dtn::bench::parse_cli(argc, argv, "bench_fig3_bandwidth");
  for (const auto& scenario : dtn::bench::make_scenarios(opts)) {
    const double unit = scenario.workload.time_unit;
    const auto links = dtn::trace::link_bandwidths(scenario.trace, unit);
    dtn::TablePrinter table({"link rank", "from", "to", "bandwidth/unit"});
    // Print the head of the distribution plus evenly spaced tail samples.
    for (std::size_t i = 0; i < links.size();
         i += (i < 10 ? 1 : links.size() / 20 + 1)) {
      table.add_row("#" + std::to_string(i + 1),
                    {static_cast<double>(links[i].from),
                     static_cast<double>(links[i].to), links[i].bandwidth});
    }
    table.print("Fig. 3 (" + scenario.name + "): transit-link bandwidths");
    table.write_csv(
        dtn::bench::csv_path(opts, "fig3_bandwidth_" + scenario.name));

    double total = 0.0, top = 0.0;
    for (std::size_t i = 0; i < links.size(); ++i) {
      total += links[i].bandwidth;
      if (i < links.size() / 5) top += links[i].bandwidth;
    }
    const double symmetry = dtn::trace::matching_link_symmetry(scenario.trace);
    std::printf("  %s: %zu links with traffic; top-20%% of links carry "
                "%.1f%% of bandwidth (O2); matching-link symmetry r = %.3f "
                "(O3)\n",
                scenario.name.c_str(), links.size(),
                100.0 * top / std::max(total, 1e-12), symmetry);
  }
  return 0;
}
