// Shared configuration for the paper-reproduction benches.
//
// Every bench accepts:
//   --scale quick|full   workload scale (default quick: minutes, shape-
//                        preserving; full: paper-scale, slow)
//   --csv <dir>          mirror printed tables to CSV files
//   --seed <n>           override the trace seed
//
// The memory and rate sweeps also take --replicates (at least 1) and
// --threads (0 to kMaxThreads); a value outside those bounds, or any
// other option, exits with status 2.
//
// "DART" is the synthetic campus trace standing in for the Dartmouth
// WLAN log, "DNET" the synthetic bus trace standing in for the UMass
// DieselNet log (see DESIGN.md for the substitution argument).
#pragma once

#include <string>
#include <vector>

#include "metrics/experiment.hpp"
#include "metrics/metrics.hpp"
#include "net/network.hpp"
#include "trace/bus_generator.hpp"
#include "trace/campus_generator.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"

namespace dtn::bench {

/// Cap on the sweeps' --threads (0 picks the hardware concurrency).
inline constexpr std::int64_t kMaxThreads = 256;

struct Scenario {
  std::string name;              // "DART" or "DNET"
  trace::Trace trace;
  net::WorkloadConfig workload;  // paper defaults for this trace
  /// Memory sweep values (kB) matching Figs. 11-12's x axis.
  std::vector<double> memory_sweep;
  /// Packet-rate sweep values matching Figs. 13-14's x axis.
  std::vector<double> rate_sweep;
};

/// Parse argv, exiting with status 2 and "<program>: unknown option
/// --KEY" on a key outside the shared options above and `extra_keys`.
[[nodiscard]] CliOptions parse_cli(
    int argc, const char* const* argv, const std::string& program,
    const std::vector<std::string>& extra_keys = {});

/// The campus scenario (DART stand-in).
[[nodiscard]] Scenario make_dart_scenario(bool full_scale, std::uint64_t seed);

/// The bus scenario (DNET stand-in).
[[nodiscard]] Scenario make_dnet_scenario(bool full_scale, std::uint64_t seed);

/// Both scenarios in paper order.
[[nodiscard]] std::vector<Scenario> make_scenarios(const CliOptions& opts);

/// The six compared routers as experiment factories.
[[nodiscard]] std::vector<std::pair<std::string, metrics::RouterFactory>>
standard_factories();

/// Compose "<dir>/<name>.csv" or "" when CSV output is disabled.
[[nodiscard]] std::string csv_path(const CliOptions& opts,
                                   const std::string& name);

/// Seconds -> days, for printing delays in the paper's units.
[[nodiscard]] inline double to_days(double seconds) {
  return seconds / trace::kDay;
}

}  // namespace dtn::bench
