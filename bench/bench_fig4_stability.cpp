// Fig. 4 — per-time-unit bandwidth of the three highest-bandwidth
// transit links (observation O4: the measured bandwidth of a unit
// reflects the overall bandwidth; DART shows holiday dips, DNET is
// stable).  Also sweeps the EWMA weight rho of eq. (4) to show the
// estimator tracking the series (the DESIGN.md rho ablation).
#include <cstdio>

#include "bench_common.hpp"
#include "core/bandwidth.hpp"
#include "trace/trace_stats.hpp"
#include "util/stats.hpp"

int main(int argc, char** argv) {
  const dtn::CliOptions opts =
      dtn::bench::parse_cli(argc, argv, "bench_fig4_stability");
  for (const auto& scenario : dtn::bench::make_scenarios(opts)) {
    const double unit = scenario.workload.time_unit;
    const auto links = dtn::trace::link_bandwidths(scenario.trace, unit);
    dtn::TablePrinter table({"unit", "link1", "link2", "link3"});
    std::vector<std::vector<double>> series;
    for (std::size_t k = 0; k < 3 && k < links.size(); ++k) {
      series.push_back(dtn::trace::link_bandwidth_series(
          scenario.trace, links[k].from, links[k].to, unit));
    }
    if (series.empty()) continue;
    for (std::size_t u = 0; u < series[0].size(); ++u) {
      std::vector<double> row;
      for (const auto& s : series) row.push_back(u < s.size() ? s[u] : 0.0);
      table.add_row("u" + std::to_string(u + 1), row, 3);
    }
    table.print("Fig. 4 (" + scenario.name +
                "): bandwidth of top-3 links per time unit");
    table.write_csv(
        dtn::bench::csv_path(opts, "fig4_stability_" + scenario.name));

    // O4 check: coefficient of variation of each top link.
    for (std::size_t k = 0; k < series.size(); ++k) {
      dtn::RunningStats rs;
      for (const double v : series[k]) rs.add(v);
      std::printf("  %s link%zu (L%u->L%u): mean %.2f/unit, cv %.2f\n",
                  scenario.name.c_str(), k + 1, links[k].from, links[k].to,
                  rs.mean(), rs.mean() > 0 ? rs.stddev() / rs.mean() : 0.0);
    }

    // rho ablation: mean absolute EWMA tracking error of the top link.
    dtn::TablePrinter rho_table({"rho", "mean |ewma - next unit count|"});
    for (const double rho : {0.1, 0.3, 0.5, 0.7, 0.9, 1.0}) {
      dtn::core::BandwidthEstimator bw(scenario.trace.num_landmarks(), rho);
      double err = 0.0;
      std::size_t count = 0;
      for (const double v : series[0]) {
        const double predicted = bw.bandwidth(links[0].from, links[0].to);
        err += std::abs(predicted - v);
        ++count;
        for (int i = 0; i < static_cast<int>(v); ++i) {
          bw.record_transit(links[0].from, links[0].to);
        }
        bw.close_unit();
      }
      rho_table.add_row(dtn::format_double(rho, 2),
                        {count > 0 ? err / static_cast<double>(count) : 0.0});
    }
    rho_table.print("eq. (4) rho ablation (" + scenario.name +
                    ", top link tracking error)");
  }
  return 0;
}
