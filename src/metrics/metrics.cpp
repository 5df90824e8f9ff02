#include "metrics/metrics.hpp"

#include "util/assert.hpp"

namespace dtn::metrics {

RunResult summarize(const net::Network& network,
                    const std::string& router_name, const CostModel& cost) {
  DTN_ASSERT(cost.entries_per_op > 0.0);
  const net::RunCounters& c = network.counters();
  RunResult r;
  r.router = router_name;
  r.generated = c.generated;
  r.delivered = c.delivered;
  r.dropped_ttl = c.dropped_ttl;
  r.success_rate =
      c.generated == 0
          ? 0.0
          : static_cast<double>(c.delivered) / static_cast<double>(c.generated);
  r.avg_delay =
      c.delivered == 0 ? 0.0 : c.total_delay / static_cast<double>(c.delivered);
  r.failure_delay = network.trace_end() - network.workload_start();
  const auto failures = c.generated - c.delivered;
  r.overall_delay =
      c.generated == 0
          ? 0.0
          : (c.total_delay + static_cast<double>(failures) * r.failure_delay) /
                static_cast<double>(c.generated);
  r.forwarding_cost = static_cast<double>(c.packet_forwards);
  r.control_cost = c.control_entries / cost.entries_per_op;
  r.total_cost = r.forwarding_cost + r.control_cost;
  r.delivery_delays = c.delivery_delays;
  if (!c.delivery_hops.empty()) {
    double total_hops = 0.0;
    for (const auto h : c.delivery_hops) total_hops += h;
    r.mean_hops = total_hops / static_cast<double>(c.delivery_hops.size());
  }
  r.node_crashes = c.node_crashes;
  r.station_outages = c.station_outages;
  r.packets_lost_fault = c.packets_lost_fault;
  r.kb_lost_fault = static_cast<double>(c.kb_lost_fault);
  r.transfers_interrupted = c.transfers_interrupted;
  r.transfers_resumed = c.transfers_resumed;
  if (!c.outage_recovery_delays.empty()) {
    double total = 0.0;
    for (const double d : c.outage_recovery_delays) total += d;
    r.mean_outage_recovery =
        total / static_cast<double>(c.outage_recovery_delays.size());
  }
  return r;
}

RunResult run_experiment(const trace::Trace& trace, net::Router& router,
                         const net::WorkloadConfig& workload,
                         const CostModel& cost) {
  net::Network network(trace, router, workload);
  network.run();
  return summarize(network, router.name(), cost);
}

}  // namespace dtn::metrics
