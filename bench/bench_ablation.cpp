// Ablation of DTN-FLOW's design choices (DESIGN.md §5) — not a paper
// table; quantifies what each §IV mechanism contributes on the DART
// scenario:
//   * direct-delivery opportunities (§IV-D.2) on/off,
//   * accuracy-refined carrier selection (§IV-D.4) on/off,
//   * predictor order k = 1/2/3 (§IV-B) as the *routing* predictor,
//   * bandwidth EWMA weight rho (eq. 4),
//   * §IV-D.5 communication scheduling on/off.
#include <cstdio>

#include "bench_common.hpp"
#include "core/dtn_flow_router.hpp"

int main(int argc, char** argv) {
  const dtn::CliOptions opts =
      dtn::bench::parse_cli(argc, argv, "bench_ablation");
  const auto scenario =
      dtn::bench::make_dart_scenario(opts.full_scale(), opts.get_seed(1));

  dtn::TablePrinter table({"variant", "success rate", "avg delay (days)",
                           "forwarding cost", "maintenance cost"});
  auto run_variant = [&](const std::string& label,
                         const dtn::core::DtnFlowConfig& rc) {
    dtn::core::DtnFlowRouter router(rc);
    const auto r =
        dtn::metrics::run_experiment(scenario.trace, router, scenario.workload);
    table.add_row(label,
                  {r.success_rate, dtn::bench::to_days(r.avg_delay),
                   r.forwarding_cost, r.control_cost},
                  4);
  };

  dtn::core::DtnFlowConfig base;
  run_variant("full DTN-FLOW", base);

  {
    auto rc = base;
    rc.direct_delivery = false;
    run_variant("- direct delivery", rc);
  }
  {
    auto rc = base;
    rc.refine_carrier_selection = false;
    run_variant("- accuracy refinement", rc);
  }
  {
    auto rc = base;
    rc.direct_delivery = false;
    rc.refine_carrier_selection = false;
    run_variant("- both", rc);
  }
  for (const std::size_t order : {2u, 3u}) {
    auto rc = base;
    rc.predictor_order = order;
    run_variant("predictor order " + std::to_string(order), rc);
  }
  for (const double rho : {0.1, 0.2, 0.3, 0.9, 1.0}) {
    auto rc = base;
    rc.bandwidth_rho = rho;
    run_variant("rho = " + dtn::format_double(rho, 2), rc);
  }
  {
    auto rc = base;
    rc.scheduled_communication = true;
    run_variant("+ IV-D.5 scheduling", rc);
  }
  {
    auto rc = base;
    rc.distributed_bandwidth = true;
    run_variant("+ IV-C.1 token protocol", rc);
  }
  for (const std::size_t every : {4u, 16u}) {
    auto rc = base;
    rc.dv_exchange_every = every;
    run_variant("DV every " + std::to_string(every) + " transits", rc);
  }
  {
    auto rc = base;
    rc.node_to_node_relay = true;
    run_variant("+ node-to-node relay (SVI)", rc);
  }

  table.print("DTN-FLOW design ablation (DART scenario)");
  table.write_csv(dtn::bench::csv_path(opts, "ablation"));
  std::printf("\n(expected: order-1 routing beats order-2/3 under missing "
              "records; direct delivery and refinement each contribute "
              "modest success-rate/delay improvements)\n");
  return 0;
}
