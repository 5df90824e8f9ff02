// Shared deterministic trace and workload builders for router tests.
//
// The "relay chain" topology is the paper's Fig. 1(b) in miniature:
// node A shuttles L0<->L1, node B shuttles L1<->L2, node C shuttles
// L2<->L3, with visit windows arranged so that *no two nodes are ever
// co-located*.  Packets from L0 to L3 can therefore only be delivered
// through landmark stations (inter-landmark data flow); node-only
// baselines are structurally unable to deliver them.
#pragma once

#include "net/network.hpp"
#include "trace/trace.hpp"

namespace dtn::testing {

using trace::kDay;
using trace::kHour;
using trace::kMinute;
using trace::Trace;
using trace::Visit;

/// Period of one shuttle cycle in the relay-chain trace.
inline constexpr double kShuttlePeriod = 2.0 * kHour;

/// Three nodes relaying across four landmarks; see header comment.
/// Node i shuttles between landmark i (at [0, 30min) of each period)
/// and landmark i+1 (at [60min, 90min)).
inline Trace relay_chain_trace(double days, std::size_t num_nodes = 3) {
  const auto num_landmarks = static_cast<std::uint32_t>(num_nodes + 1);
  Trace t(num_nodes, num_landmarks);
  const auto periods = static_cast<std::size_t>(days * kDay / kShuttlePeriod);
  for (std::uint32_t n = 0; n < num_nodes; ++n) {
    for (std::size_t p = 0; p < periods; ++p) {
      const double base = static_cast<double>(p) * kShuttlePeriod;
      t.add_visit(Visit{n, n, base, base + 30.0 * kMinute});
      t.add_visit(
          Visit{n, n + 1, base + 60.0 * kMinute, base + 90.0 * kMinute});
    }
  }
  t.finalize();
  return t;
}

/// Manual-packet workload over the relay chain: 40 packets L0 -> L3, one
/// every 10 minutes from day 4, and no Poisson traffic, so a replay is
/// RNG-free (the determinism suite's golden scenario).
inline net::WorkloadConfig relay_chain_workload() {
  net::WorkloadConfig cfg;
  cfg.packets_per_landmark_per_day = 0.0;
  cfg.warmup_fraction = 0.0;
  cfg.time_unit = 0.5 * kDay;
  cfg.node_memory_kb = 10;
  cfg.ttl = 2.0 * kDay;
  for (int i = 0; i < 40; ++i) {
    cfg.manual_packets.push_back({0, 3, 4.0 * kDay + i * 10.0 * kMinute, 0.0});
  }
  return cfg;
}

}  // namespace dtn::testing
