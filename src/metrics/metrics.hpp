// Derived metrics (§V-A.1) and the single-run harness.
//
//  * success rate  — delivered / generated;
//  * average delay — mean delay of delivered packets;
//  * overall delay — mean over all packets, an undelivered packet
//    counting as the experiment duration (used by the Table VII bench);
//  * forwarding cost — packet forwarding operations;
//  * total cost — forwarding cost + control-information cost, where
//    transferring a table of m entries counts as m / alpha operations
//    (the paper's alpha is unreadable in the source text; we default to
//    50, roughly one packet's worth of entries, see DESIGN.md).
#pragma once

#include <string>
#include <vector>

#include "net/network.hpp"
#include "net/router.hpp"
#include "trace/trace.hpp"

namespace dtn::metrics {

struct CostModel {
  /// Table entries per forwarding-operation equivalent.
  double entries_per_op = 50.0;
};

struct RunResult {
  std::string router;
  std::uint64_t generated = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped_ttl = 0;
  double success_rate = 0.0;
  double avg_delay = 0.0;      ///< seconds, delivered packets only
  double overall_delay = 0.0;  ///< seconds, failures count as `failure_delay`
  double forwarding_cost = 0.0;
  double control_cost = 0.0;
  double total_cost = 0.0;
  /// The delay each failure contributes to `overall_delay` (experiment
  /// duration, per the paper's Table VII methodology).
  double failure_delay = 0.0;
  std::vector<double> delivery_delays;  ///< seconds, for quantile figures
  /// Mean forwarding operations per delivered packet (path length).
  double mean_hops = 0.0;

  // -- resilience (all zero unless a fault plan was attached) -----------
  std::uint64_t node_crashes = 0;
  std::uint64_t station_outages = 0;
  std::uint64_t packets_lost_fault = 0;
  std::uint64_t transfers_interrupted = 0;
  std::uint64_t transfers_resumed = 0;
  /// Mean seconds from a station's recovery to its first successful
  /// transfer (0 when no recovery was exercised).
  double mean_outage_recovery = 0.0;

  /// run_digest of the finished run.
  std::uint64_t digest = 0;
};

/// The run's determinism digest: an order-sensitive FNV-1a over every
/// RunCounters field (each vector's size before its elements), the
/// executed-event count, the final clock and, for a DTN-FLOW router,
/// every DtnFlowDiagnostics field.  Plain, audited, checkpoint-resumed
/// and threaded runs of one input must agree on it bit for bit.
[[nodiscard]] std::uint64_t run_digest(const net::Network& network,
                                       const net::Router& router);

/// Derive a RunResult from a network `router` ran to completion.
[[nodiscard]] RunResult summarize(const net::Network& network,
                                  const net::Router& router,
                                  const CostModel& cost = {});

/// Convenience: build a network over `trace`, run `router`, summarize.
[[nodiscard]] RunResult run_experiment(const trace::Trace& trace,
                                       net::Router& router,
                                       const net::WorkloadConfig& workload,
                                       const CostModel& cost = {});

}  // namespace dtn::metrics
