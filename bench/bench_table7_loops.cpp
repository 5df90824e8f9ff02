// Table VII — routing-loop detection and correction (§IV-E.2).
//
// Loops are injected as in the paper's test: N_loop routing cycles are
// purposely created (here by pinning poisoned next hops for randomly
// chosen destinations once the tables have formed — the controlled
// analogue of an untimely distance-vector update).  ORG-x runs without
// the correction machinery, W-x with it.  The delay column is the
// *overall* average delay counting an unsuccessful packet as the
// experiment duration, exactly as the paper measures O.Delay.
#include <cstdio>

#include "bench_common.hpp"
#include "core/dtn_flow_router.hpp"
#include "util/rng.hpp"

int main(int argc, char** argv) {
  const dtn::CliOptions opts =
      dtn::bench::parse_cli(argc, argv, "bench_table7_loops");
  for (const auto& scenario : dtn::bench::make_scenarios(opts)) {
    dtn::TablePrinter table({"variant", "success rate", "O.delay (days)",
                             "loops detected", "loops corrected"});

    auto make_injections = [&](std::size_t n_loops) {
      dtn::Rng rng(opts.get_seed(11) + n_loops);
      std::vector<dtn::core::DtnFlowConfig::LoopInjection> out;
      const std::size_t m = scenario.trace.num_landmarks();
      const auto inject_unit = static_cast<std::size_t>(
          0.3 * (scenario.trace.duration() / scenario.workload.time_unit));
      for (std::size_t k = 0; k < n_loops; ++k) {
        dtn::core::DtnFlowConfig::LoopInjection inj;
        inj.dst = static_cast<dtn::net::LandmarkId>(rng.uniform_index(m));
        dtn::net::LandmarkId a, b;
        do {
          a = static_cast<dtn::net::LandmarkId>(rng.uniform_index(m));
          b = static_cast<dtn::net::LandmarkId>(rng.uniform_index(m));
        } while (a == b || a == inj.dst || b == inj.dst);
        inj.cycle = {a, b};
        inj.at_unit = std::max<std::size_t>(1, inject_unit);
        out.push_back(inj);
      }
      return out;
    };

    auto run_variant = [&](const std::string& label, std::size_t n_loops,
                           bool correction) {
      dtn::core::DtnFlowConfig rc;
      rc.loop_correction = correction;
      rc.loop_injections = make_injections(n_loops);
      dtn::core::DtnFlowRouter router(rc);
      const auto r =
          dtn::metrics::run_experiment(scenario.trace, router,
                                       scenario.workload);
      table.add_row(
          label,
          {r.success_rate, dtn::bench::to_days(r.overall_delay),
           static_cast<double>(router.diagnostics().loops_detected),
           static_cast<double>(router.diagnostics().loops_corrected)},
          4);
    };

    run_variant("no loops", 0, false);
    run_variant("ORG-2", 2, false);
    run_variant("W-2", 2, true);
    run_variant("ORG-3", 3, false);
    run_variant("W-3", 3, true);
    table.print("Table VII (" + scenario.name +
                "): loop detection and correction");
    table.write_csv(
        dtn::bench::csv_path(opts, "table7_loops_" + scenario.name));
  }
  std::printf("\n(paper shape: injected loops depress the hit rate without "
              "correction; with correction W-x recovers to near the "
              "loop-free rate and the overall delay drops)\n");
  return 0;
}
