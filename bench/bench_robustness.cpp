// Carrier-failure robustness (not a paper table; motivated by §IV-A.5's
// maintenance discussion and the dead-end extension): withdraw a
// fraction of the nodes halfway through the workload phase — their
// carried packets are lost — and measure how gracefully each router
// degrades.  DTN-FLOW's landmark stations hold queued traffic through
// the failure; node-only baselines lose everything the failed carriers
// hoarded.
#include <cstdio>

#include "bench_common.hpp"
#include "routing/factory.hpp"
#include "trace/preprocess.hpp"
#include "util/rng.hpp"

int main(int argc, char** argv) {
  const dtn::CliOptions opts =
      dtn::bench::parse_cli(argc, argv, "bench_robustness");
  const auto scenario =
      dtn::bench::make_dart_scenario(opts.full_scale(), opts.get_seed(1));

  dtn::TablePrinter table({"failed nodes", "DTN-FLOW", "PROPHET", "PER"});
  for (const double fraction : {0.0, 0.1, 0.2, 0.3, 0.4}) {
    // Fail the chosen nodes at 60% of the trace.
    dtn::Rng rng(opts.get_seed(1) ^ 0xfa11);
    auto trace = scenario.trace;
    const auto to_fail = static_cast<std::size_t>(
        fraction * static_cast<double>(trace.num_nodes()));
    const auto order = rng.permutation(trace.num_nodes());
    const double fail_at =
        trace.begin_time() + 0.6 * trace.duration();
    for (std::size_t k = 0; k < to_fail; ++k) {
      trace = dtn::trace::remove_node_after(
          trace, static_cast<dtn::trace::NodeId>(order[k]), fail_at);
    }

    std::vector<double> row;
    for (const std::string name : {"DTN-FLOW", "PROPHET", "PER"}) {
      const auto router = dtn::routing::make_router(name);
      const auto r =
          dtn::metrics::run_experiment(trace, *router, scenario.workload);
      row.push_back(r.success_rate);
    }
    table.add_row(dtn::format_double(fraction * 100.0, 3) + "%", row, 4);
  }
  table.print("success rate under carrier failures (DART)");
  table.write_csv(dtn::bench::csv_path(opts, "robustness"));
  std::printf("\n(shape check: all routers degrade with failures; DTN-FLOW "
              "retains the largest share of its failure-free success "
              "rate)\n");
  return 0;
}
