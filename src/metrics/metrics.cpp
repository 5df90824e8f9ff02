#include "metrics/metrics.hpp"

#include "core/dtn_flow_router.hpp"
#include "util/assert.hpp"
#include "util/fnv.hpp"

namespace dtn::metrics {

namespace {

// Walks a field list (RunCounters::fields, DtnFlowDiagnostics::fields)
// into the digest: each scalar, and each vector as its size followed by
// its elements.
struct DigestArchive {
  Fnv1a& h;
  template <typename T>
  void value(const char* /*name*/, T v) {
    h.mix(v);
  }
  template <typename T>
  void vec(const char* /*name*/, const std::vector<T>& v) {
    h.mix(v.size());
    for (const T x : v) h.mix(x);
  }
};

}  // namespace

std::uint64_t run_digest(const net::Network& network,
                         const net::Router& router) {
  Fnv1a h;
  DigestArchive ar{h};
  // The field lists take their archive's side of a load too; this one
  // only reads.
  const_cast<net::RunCounters&>(network.counters()).fields(ar);
  h.mix(network.events_executed());
  h.mix(network.now());
  if (const auto* flow = dynamic_cast<const core::DtnFlowRouter*>(&router)) {
    const_cast<core::DtnFlowDiagnostics&>(flow->diagnostics()).fields(ar);
  }
  return h.value();
}

RunResult summarize(const net::Network& network, const net::Router& router,
                    const CostModel& cost) {
  DTN_ASSERT(cost.entries_per_op > 0.0);
  const net::RunCounters& c = network.counters();
  RunResult r;
  r.router = router.name();
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
  r.transfers_interrupted = c.transfers_interrupted;
  r.transfers_resumed = c.transfers_resumed;
  if (!c.outage_recovery_delays.empty()) {
    double total = 0.0;
    for (const double d : c.outage_recovery_delays) total += d;
    r.mean_outage_recovery =
        total / static_cast<double>(c.outage_recovery_delays.size());
  }
  r.digest = run_digest(network, router);
  return r;
}

RunResult run_experiment(const trace::Trace& trace, net::Router& router,
                         const net::WorkloadConfig& workload,
                         const CostModel& cost) {
  net::Network network(trace, router, workload);
  network.run();
  return summarize(network, router, cost);
}

}  // namespace dtn::metrics
