// Table VI — dead-end prevention (§IV-E.1).
//
// Dead ends are injected at the trace level: randomly chosen visits are
// stretched into long "parked" stays (a bus heading to the garage, a
// student leaving their device in an office), swallowing any following
// movement.  The bench compares the original DTN-FLOW (ORG) against
// dead-end prevention with theta = 2..5 on success rate and average
// delay; the paper finds theta = 2 best.
#include <cstdio>

#include "bench_common.hpp"
#include "core/dtn_flow_router.hpp"
#include "util/rng.hpp"

namespace {

// Stretch `events` random visits into parked stays of `park_seconds`,
// dropping the visits they swallow.
dtn::trace::Trace inject_dead_ends(const dtn::trace::Trace& trace,
                                   std::size_t events, double park_seconds,
                                   std::uint64_t seed) {
  dtn::Rng rng(seed);
  // Choose (node, visit ordinal) pairs; restrict to the workload phase
  // (after warmup) so the parked packets actually exist.
  std::vector<std::pair<dtn::trace::NodeId, std::size_t>> chosen;
  for (std::size_t e = 0; e < events; ++e) {
    const auto node = static_cast<dtn::trace::NodeId>(
        rng.uniform_index(trace.num_nodes()));
    const auto visits = trace.visits(node);
    if (visits.size() < 10) continue;
    const std::size_t idx =
        visits.size() / 2 + rng.uniform_index(visits.size() / 2);
    chosen.emplace_back(node, idx);
  }
  dtn::trace::Trace out(trace.num_nodes(), trace.num_landmarks());
  for (dtn::trace::NodeId n = 0; n < trace.num_nodes(); ++n) {
    const auto visits = trace.visits(n);
    double skip_until = -1.0;
    for (std::size_t i = 0; i < visits.size(); ++i) {
      dtn::trace::Visit v = visits[i];
      if (v.start < skip_until) continue;  // swallowed by a parked stay
      for (const auto& [cn, ci] : chosen) {
        if (cn == n && ci == i) {
          v.end = v.start + park_seconds;
          skip_until = v.end;
        }
      }
      out.add_visit(v);
    }
  }
  out.finalize();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const dtn::CliOptions opts =
      dtn::bench::parse_cli(argc, argv, "bench_table6_deadend");
  for (auto& scenario : dtn::bench::make_scenarios(opts)) {
    // Enough parked stays to matter: ~2 per node on average.
    const std::size_t events = scenario.trace.num_nodes() * 2;
    const auto trace = inject_dead_ends(scenario.trace, events,
                                        1.2 * scenario.workload.ttl,
                                        opts.get_seed(3));
    dtn::TablePrinter table(
        {"variant", "success rate", "avg delay (days)", "dead ends detected"});
    auto run_variant = [&](const std::string& label, bool prevention,
                           double theta) {
      dtn::core::DtnFlowConfig rc;
      rc.dead_end_prevention = prevention;
      rc.dead_end_theta = theta;
      dtn::core::DtnFlowRouter router(rc);
      const auto r =
          dtn::metrics::run_experiment(trace, router, scenario.workload);
      table.add_row(label,
                    {r.success_rate, dtn::bench::to_days(r.avg_delay),
                     static_cast<double>(
                         router.diagnostics().dead_ends_detected)},
                    4);
    };
    run_variant("ORG", false, 2.0);
    for (const double theta : {2.0, 3.0, 4.0, 5.0}) {
      run_variant("theta=" + dtn::format_double(theta, 2), true, theta);
    }
    table.print("Table VI (" + scenario.name + "): dead-end prevention");
    table.write_csv(
        dtn::bench::csv_path(opts, "table6_deadend_" + scenario.name));
  }
  std::printf("\n(paper shape: prevention raises success rate and lowers "
              "delay; theta = 2 is best -- larger theta detects late)\n");
  return 0;
}
