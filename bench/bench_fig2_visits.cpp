// Fig. 2 — visiting distribution of the top-5 most visited landmarks.
//
// For each of the five most visited landmarks of each trace, prints how
// concentrated its visits are across nodes: the visit count of the
// busiest node, the number of "frequent" visitors (>= half the busiest),
// and the share of visits contributed by the top 10% of nodes.  The
// paper's observation O1 is that each landmark has only a small portion
// of frequent visitors.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "trace/trace_stats.hpp"

int main(int argc, char** argv) {
  const dtn::CliOptions opts =
      dtn::bench::parse_cli(argc, argv, "bench_fig2_visits");
  for (const auto& scenario : dtn::bench::make_scenarios(opts)) {
    const auto counts = dtn::trace::visit_count_matrix(scenario.trace);
    const auto popular = dtn::trace::landmarks_by_popularity(scenario.trace);
    dtn::TablePrinter table({"landmark rank", "total visits", "max/node",
                             "frequent visitors", "frequent share (%)",
                             "top-10% node share (%)"});
    const std::size_t nodes = scenario.trace.num_nodes();
    for (std::size_t k = 0; k < 5 && k < popular.size(); ++k) {
      const auto l = popular[k];
      std::vector<double> per_node(nodes, 0.0);
      double total = 0.0;
      for (std::size_t n = 0; n < nodes; ++n) {
        per_node[n] = counts.at(static_cast<dtn::trace::NodeId>(n), l);
        total += per_node[n];
      }
      std::sort(per_node.rbegin(), per_node.rend());
      const double max_count = per_node.front();
      std::size_t frequent = 0;
      for (const double c : per_node) {
        if (c * 2.0 >= max_count && c > 0.0) ++frequent;
      }
      double top10 = 0.0;
      for (std::size_t i = 0; i < std::max<std::size_t>(1, nodes / 10); ++i) {
        top10 += per_node[i];
      }
      table.add_row("#" + std::to_string(k + 1) + " (L" + std::to_string(l) + ")",
                    {total, max_count, static_cast<double>(frequent),
                     100.0 * static_cast<double>(frequent) /
                         static_cast<double>(nodes),
                     100.0 * top10 / std::max(total, 1.0)});
    }
    table.print("Fig. 2 (" + scenario.name +
                "): visiting distribution of top-5 landmarks");
    table.write_csv(
        dtn::bench::csv_path(opts, "fig2_visits_" + scenario.name));
  }
  std::printf("\n(shape check: only a small portion of nodes visit each "
              "landmark frequently -- observation O1)\n");
  return 0;
}
