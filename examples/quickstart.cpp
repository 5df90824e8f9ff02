// Quickstart: generate a mobility trace, run DTN-FLOW over it, and read
// the metrics — the minimal end-to-end use of the library.
//
//   $ ./quickstart [--seed N]
#include <cstdio>

#include "core/dtn_flow_router.hpp"
#include "metrics/metrics.hpp"
#include "trace/campus_generator.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  const dtn::CliOptions opts(argc, argv);
  opts.reject_unknown("quickstart", {"seed"});

  // 1. A mobility trace: who visited which landmark when.  Here a
  //    synthetic campus; real traces load via trace::read_trace_csv.
  dtn::trace::CampusTraceConfig trace_cfg;
  trace_cfg.num_nodes = 48;
  trace_cfg.num_landmarks = 20;
  trace_cfg.days = 21.0;
  trace_cfg.seed = opts.get_seed(42);
  const dtn::trace::Trace trace = dtn::trace::generate_campus_trace(trace_cfg);
  std::printf("trace: %zu nodes, %zu landmarks, %zu visits over %.1f days\n",
              trace.num_nodes(), trace.num_landmarks(), trace.total_visits(),
              trace.duration() / dtn::trace::kDay);

  // 2. A workload: packets per landmark per day, TTL, node memory.
  dtn::net::WorkloadConfig workload;
  workload.packets_per_landmark_per_day = 25.0;
  workload.ttl = 4.0 * dtn::trace::kDay;
  workload.node_memory_kb = 50;
  workload.time_unit = 1.0 * dtn::trace::kDay;

  // 3. A router: DTN-FLOW with default configuration (order-1 Markov
  //    predictor, direct delivery, accuracy-refined carrier selection).
  dtn::core::DtnFlowRouter router;

  // 4. Run and summarize.
  const dtn::metrics::RunResult result =
      dtn::metrics::run_experiment(trace, router, workload);
  std::printf("router:          %s\n", result.router.c_str());
  std::printf("packets:         %lu generated, %lu delivered\n",
              static_cast<unsigned long>(result.generated),
              static_cast<unsigned long>(result.delivered));
  std::printf("success rate:    %.3f\n", result.success_rate);
  std::printf("average delay:   %.2f days\n",
              result.avg_delay / dtn::trace::kDay);
  std::printf("forwarding cost: %.0f operations\n", result.forwarding_cost);
  std::printf("total cost:      %.0f operations\n", result.total_cost);

  // 5. Router internals are inspectable: e.g. the routing table that
  //    landmark 0 built purely from tables carried by mobile nodes.
  const auto& table = router.routing_table(0);
  std::printf("landmark 0 routing-table coverage: %.0f%%\n",
              100.0 * table.coverage());
  return 0;
}
