// Overload degradation sweep (docs/bounded-store.md; not a paper
// figure).  Bound the landmark stations well below the offered load and
// compare how each eviction policy degrades: a bounded replay must shed
// or evict traffic deterministically instead of growing without limit.
// Success rates shrink with capacity.
#include <cstdio>
#include <string>

#include "bench_common.hpp"
#include "core/dtn_flow_router.hpp"
#include "net/bundle_store.hpp"

namespace {

struct Cell {
  double success = 0.0;
  dtn::net::RunCounters counters;
};

Cell run_cell(const dtn::bench::Scenario& scenario,
              const dtn::net::WorkloadConfig& workload) {
  dtn::core::DtnFlowRouter router;
  dtn::net::Network net(scenario.trace, router, workload);
  net.run();
  const auto res = dtn::metrics::summarize(net, router);
  return {res.success_rate, net.counters()};
}

}  // namespace

int main(int argc, char** argv) {
  const dtn::CliOptions opts =
      dtn::bench::parse_cli(argc, argv, "bench_overload");
  const auto scenario =
      dtn::bench::make_dart_scenario(opts.full_scale(), opts.get_seed(1));

  // Offered load well past what bounded stations can hold.
  auto workload = scenario.workload;
  workload.packets_per_landmark_per_day *= 3.0;

  dtn::TablePrinter table({"station kB / policy", "success", "delivered",
                           "evicted", "shed"});
  const auto add_cell = [&](const std::string& label, const Cell& cell) {
    table.add_row(label,
                  {cell.success, static_cast<double>(cell.counters.delivered),
                   static_cast<double>(cell.counters.evicted_policy),
                   static_cast<double>(cell.counters.admission_shed)},
                  3);
  };

  add_cell("unbounded", run_cell(scenario, workload));
  for (const std::uint64_t kb : {40, 20, 10}) {
    for (const dtn::net::EvictionPolicy policy :
         {dtn::net::EvictionPolicy::kReject,
          dtn::net::EvictionPolicy::kDropOldest,
          dtn::net::EvictionPolicy::kDropLargestExpectedDelay,
          dtn::net::EvictionPolicy::kTtlExpire}) {
      auto wl = workload;
      wl.store.station_memory_kb = kb;
      wl.store.policy = policy;
      add_cell(std::to_string(kb) + " / " + dtn::net::to_string(policy),
               run_cell(scenario, wl));
    }
  }

  table.print("overload degradation sweep (DART, 3x offered load)");
  table.write_csv(dtn::bench::csv_path(opts, "overload"));
  std::printf("\n(shape check: success falls as stations shrink; eviction "
              "policies beat reject)\n");
  return 0;
}
