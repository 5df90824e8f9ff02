// Tables VIII & IX — load balancing (§IV-E.3).
//
// As in the paper, the packet rate is pushed past the normal range to
// create overloaded links ([1100, 1500] pkts/landmark/day at paper
// scale; the quick scale pushes the equivalent 110%-150% of its own
// overload point), and DTN-FLOW runs with and without the backup-next-
// hop diversion.
#include <cstdio>

#include "bench_common.hpp"
#include "core/dtn_flow_router.hpp"

int main(int argc, char** argv) {
  const dtn::CliOptions opts =
      dtn::bench::parse_cli(argc, argv, "bench_table8_9_loadbalance");
  for (const auto& scenario : dtn::bench::make_scenarios(opts)) {
    // Overload rates: 1100..1500 at paper scale; 2.2x..3x the default
    // rate at quick scale (the same ratio to the Figs. 13/14 axis).
    std::vector<double> rates;
    if (opts.full_scale()) {
      for (double r = 1100.0; r <= 1500.0; r += 100.0) rates.push_back(r);
    } else {
      const double base = scenario.workload.packets_per_landmark_per_day;
      for (double f = 1.2; f <= 2.01; f += 0.2) rates.push_back(base * f);
    }

    dtn::TablePrinter succ({"rate", "W/O-Balance", "W-Balance", "diversions"});
    dtn::TablePrinter delay({"rate", "W/O-Balance (days)", "W-Balance (days)"});
    // Hot-spot traffic: a third of the demand targets three landmarks,
    // overloading the links feeding them while the rest of the network
    // keeps spare capacity — the localized overload of Fig. 10 that the
    // backup next hop exists to absorb.
    std::vector<double> dst_weights(scenario.trace.num_landmarks(), 1.0);
    for (std::size_t h = 0; h < 3 && h < dst_weights.size(); ++h) {
      dst_weights[h] = static_cast<double>(dst_weights.size()) / 6.0;
    }

    for (const double rate : rates) {
      auto workload = scenario.workload;
      workload.packets_per_landmark_per_day = rate;
      workload.destination_weights = dst_weights;
      double succ_wo = 0.0, succ_w = 0.0, delay_wo = 0.0, delay_w = 0.0;
      double diversions = 0.0;
      for (const bool balance : {false, true}) {
        dtn::core::DtnFlowConfig rc;
        rc.load_balancing = balance;
        dtn::core::DtnFlowRouter router(rc);
        const auto r =
            dtn::metrics::run_experiment(scenario.trace, router, workload);
        if (balance) {
          succ_w = r.success_rate;
          delay_w = r.avg_delay;
          diversions =
              static_cast<double>(router.diagnostics().balancing_diversions);
        } else {
          succ_wo = r.success_rate;
          delay_wo = r.avg_delay;
        }
      }
      succ.add_row(dtn::format_double(rate, 5), {succ_wo, succ_w, diversions},
                   4);
      delay.add_row(dtn::format_double(rate, 5),
                    {dtn::bench::to_days(delay_wo),
                     dtn::bench::to_days(delay_w)},
                    4);
    }
    succ.print("Table VIII (" + scenario.name +
               "): load balancing, success rate");
    succ.write_csv(
        dtn::bench::csv_path(opts, "table8_balance_success_" + scenario.name));
    delay.print("Table IX (" + scenario.name +
                "): load balancing, average delay");
    delay.write_csv(
        dtn::bench::csv_path(opts, "table9_balance_delay_" + scenario.name));
  }
  std::printf("\n(paper shape: with balancing the success rate rises and the "
              "average delay falls at overload rates)\n");
  return 0;
}
