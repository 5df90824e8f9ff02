// simulate — the full-surface CLI driver: pick a trace (synthetic or
// CSV), a router, and workload parameters; get the paper's four metrics
// plus delay quantiles.  Everything the benches do, parameterized.
//
//   $ ./simulate --router DTN-FLOW --kind campus --nodes 64
//         --landmarks 30 --days 32 --rate 30 --memory 40 --ttl-days 4
//         [--input trace.csv] [--replicates 3] [--seed 1]
//         [--fault-node-crash-rate 0.05 --fault-station-outage-rate 0.1
//          --fault-transfer-fail 0.02 ...]   (docs/fault-injection.md)
//         [--station-memory 20 --store-policy drop-oldest --store-dedup]
//                                            (docs/bounded-store.md)
//
// Routers: DTN-FLOW, SimBet, PROPHET, PGR, GeoComm, PER, Direct,
// Epidemic, SprayWait, or "all".
//
// --kind city generates the city-scale tier (districts + buses).
//
// --serve turns the run into a long-running service with checkpoint /
// restore (docs/checkpointing.md): snapshots land in --checkpoint-dir
// every --checkpoint-every-events events (and/or --checkpoint-every-days
// of simulated time), and a restarted process resumes from the newest
// snapshot with bit-identical final metrics: the table's `digest` column
// (metrics::run_digest) matches an uninterrupted run's.
// --serve-exit-after-events N snapshots and exits with status 3 after N
// events — a deterministic stand-in for kill -9 used by the CI
// round-trip smoke.
//
// Bad input (an unknown option, an unknown --kind, --router or --fault-*
// name, a count below the generator's minimum, a negative size or rate,
// a non-positive --days, --ttl-days or --unit-days, a --warmup outside
// [0, 1), an --input trace CSV that fails validation, an --out path that
// cannot be opened) exits with status 2 and a one-line message, like
// CliOptions' own usage errors.  --out is opened before the replay, so
// an unwritable path costs no run.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "metrics/experiment.hpp"
#include "net/bundle_store.hpp"
#include "persist/checkpoint.hpp"
#include "routing/factory.hpp"
#include "sim/fault_injector.hpp"
#include "trace/bus_generator.hpp"
#include "trace/campus_generator.hpp"
#include "trace/city_generator.hpp"
#include "trace/trace_io.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/fnv.hpp"
#include "util/stats.hpp"

namespace {

bool positive(double v) { return v > 0.0; }
bool non_negative(double v) { return v >= 0.0; }
bool fraction(double v) { return v >= 0.0 && v < 1.0; }

/// A finite real option, rejected unless `ok` holds; `rule` says what
/// `ok` asks for (the network asserts these ranges rather than report
/// them).
double real_arg(const dtn::CliOptions& opts, const std::string& key,
                double fallback, bool (*ok)(double), const char* rule) {
  const double v = opts.get_double(key, fallback);
  if (!std::isfinite(v) || !ok(v)) {
    throw std::invalid_argument("--" + key + " must be " + rule + ", got " +
                                opts.get(key, ""));
  }
  return v;
}

double days_arg(const dtn::CliOptions& opts, double fallback) {
  return real_arg(opts, "days", fallback, positive, "positive");
}

/// Opens the --out CSV (none when the option is absent); a path that
/// cannot be opened is a usage error.
std::optional<dtn::CsvWriter> open_out(const dtn::CliOptions& opts) {
  const std::string path = opts.get("out", "");
  if (path.empty()) return std::nullopt;
  try {
    return std::optional<dtn::CsvWriter>(std::in_place, path);
  } catch (const std::runtime_error&) {
    throw std::invalid_argument("cannot open --out " + path);
  }
}

/// Prints the results table and mirrors it to `out`.  One row per
/// router: metric means over its replicates, delay quantiles over every
/// delivered packet, and the run digest (metrics::run_digest; with
/// replicates, their digests folded in order), which plain, audited and
/// resumed runs of one input print identically.
int print_results(
    std::optional<dtn::CsvWriter>& out,
    const std::vector<std::vector<dtn::metrics::RunResult>>& per_router) {
  dtn::TablePrinter table({"router", "success", "avg delay (d)",
                           "P50 delay (d)", "P90 delay (d)", "fwd cost",
                           "total cost", "digest"});
  for (const auto& runs : per_router) {
    dtn::RunningStats success, delay, fwd, total;
    std::vector<double> all_delays;
    dtn::Fnv1a folded;
    for (const auto& res : runs) {
      success.add(res.success_rate);
      delay.add(res.avg_delay);
      fwd.add(res.forwarding_cost);
      total.add(res.total_cost);
      all_delays.insert(all_delays.end(), res.delivery_delays.begin(),
                        res.delivery_delays.end());
      folded.mix(res.digest);
    }
    const double p50 =
        all_delays.empty() ? 0.0 : dtn::quantile(all_delays, 0.5);
    const double p90 =
        all_delays.empty() ? 0.0 : dtn::quantile(all_delays, 0.9);
    std::vector<std::string> row = {runs.front().router};
    for (const double v : {success.mean(), delay.mean() / dtn::trace::kDay,
                           p50 / dtn::trace::kDay, p90 / dtn::trace::kDay,
                           fwd.mean(), total.mean()}) {
      row.push_back(dtn::format_double(v, 4));
    }
    char digest[17];
    std::snprintf(digest, sizeof(digest), "%016llx",
                  static_cast<unsigned long long>(
                      runs.size() == 1 ? runs.front().digest : folded.value()));
    row.emplace_back(digest);
    table.add_row(std::move(row));
  }
  table.print("simulation results");
  if (out.has_value()) table.write_csv(*out);
  return 0;
}

dtn::trace::Trace make_trace(const dtn::CliOptions& opts) {
  const std::string kind = opts.get("kind", "campus");
  if (kind != "campus" && kind != "bus" && kind != "city") {
    throw std::invalid_argument("unknown --kind " + kind +
                                " (use campus, bus or city)");
  }
  const std::string input = opts.get("input", "");
  if (!input.empty()) {
    // A malformed trace file is bad input like a bad flag: exit 2.
    try {
      return dtn::trace::read_trace_csv(input);
    } catch (const std::runtime_error& e) {
      throw std::invalid_argument(e.what());
    }
  }
  if (kind == "bus") {
    dtn::trace::BusTraceConfig cfg;
    cfg.num_buses = opts.get_count("nodes", 34, 1);
    // Every route must fit, and some stop must not be a hub.
    const auto min_landmarks = static_cast<std::int64_t>(
        std::max(cfg.route_length_max, cfg.num_hubs + 1));
    cfg.num_landmarks = opts.get_count("landmarks", 18, min_landmarks);
    cfg.days = days_arg(opts, 26.0);
    cfg.seed = opts.get_seed(1);
    return dtn::trace::generate_bus_trace(cfg);
  }
  if (kind == "city") {
    dtn::trace::CityTraceConfig cfg;
    cfg.num_pedestrians = opts.get_count("nodes", 2000, 0);
    cfg.num_buses = opts.get_count("buses", 40, 0);
    if (cfg.num_pedestrians + cfg.num_buses == 0) {
      throw std::invalid_argument("--nodes plus --buses must be at least 1");
    }
    cfg.num_landmarks = opts.get_count("landmarks", 400, 2);
    cfg.num_districts = opts.get_count("districts", 16, 1);
    cfg.days = days_arg(opts, 2.0);
    cfg.seed = opts.get_seed(1);
    return dtn::trace::generate_city_trace(cfg);
  }
  dtn::trace::CampusTraceConfig cfg;
  cfg.num_nodes = opts.get_count("nodes", 64, 1);
  cfg.num_landmarks = opts.get_count("landmarks", 30, 2);
  cfg.num_communities = opts.get_count("communities", 14, 1);
  cfg.days = days_arg(opts, 32.0);
  cfg.seed = opts.get_seed(1);
  return dtn::trace::generate_campus_trace(cfg);
}

// Replicate `r` of `base`: its own workload seed and, when a fault plan is
// attached, its own fault stream.  Replicate 0 is what a single run and
// a --serve run replay.
dtn::net::WorkloadConfig replicate_workload(
    const dtn::net::WorkloadConfig& base, std::size_t r) {
  auto wl = base;
  wl.seed = base.seed + r * 1237;
  if (wl.faults.has_value()) {
    wl.faults->seed ^= 0x5bd1e995ULL * (r + 1);
  }
  return wl;
}

// One router, one replicate, snapshots on: the service path deliberately
// bypasses run_experiment so the Network object survives a suspension.
int run_service(const dtn::CliOptions& opts, const dtn::trace::Trace& trace,
                const dtn::net::WorkloadConfig& workload,
                const std::string& router_name,
                std::optional<dtn::CsvWriter>& out) {
  dtn::persist::CheckpointConfig cc;
  cc.dir = opts.get("checkpoint-dir", "");
  if (cc.dir.empty()) {
    std::fprintf(stderr, "simulate: --serve requires --checkpoint-dir\n");
    return 2;
  }
  cc.every_events = opts.get_count("checkpoint-every-events", 250000, 0);
  cc.every_time = real_arg(opts, "checkpoint-every-days", 0.0, non_negative,
                           "at least 0") *
                  dtn::trace::kDay;
  cc.keep = opts.get_count("checkpoint-keep", 4, 0);
  cc.stop_after_events = opts.get_count("serve-exit-after-events", 0, 0);
  dtn::persist::CheckpointManager mgr(cc);

  const auto router = dtn::routing::make_router(router_name);
  if (!router->checkpointable()) {
    std::fprintf(stderr,
                 "simulate: router %s does not support checkpointing; "
                 "--serve needs a checkpointable router\n",
                 router_name.c_str());
    return 2;
  }
  dtn::net::Network network(trace, *router, replicate_workload(workload, 0));
  if (mgr.has_checkpoint()) {
    std::string from;
    mgr.read_latest(&from);
    std::printf("serve: resuming from %s\n", from.c_str());
  } else {
    std::printf("serve: no snapshot in %s, starting fresh\n", cc.dir.c_str());
  }
  bool completed = false;
  try {
    completed = network.run(mgr);
  } catch (const dtn::persist::FormatError& e) {
    // A snapshot from another schema version or configuration, or a
    // corrupt one: refuse it without touching the directory.
    std::fprintf(stderr, "simulate: cannot resume from %s: %s\n",
                 cc.dir.c_str(), e.what());
    return 2;
  }
  if (!completed) {
    std::printf("serve: suspended after %llu events (snapshot written); "
                "run again with the same arguments to resume\n",
                static_cast<unsigned long long>(network.events_executed()));
    return 3;
  }
  return print_results(out, {{dtn::metrics::summarize(network, *router)}});
}

int run(const dtn::CliOptions& opts) {
  const dtn::trace::Trace trace = make_trace(opts);
  std::printf("trace: %zu nodes, %zu landmarks, %zu visits, %.1f days\n",
              trace.num_nodes(), trace.num_landmarks(), trace.total_visits(),
              trace.duration() / dtn::trace::kDay);

  dtn::net::WorkloadConfig workload;
  workload.packets_per_landmark_per_day =
      real_arg(opts, "rate", 30.0, non_negative, "at least 0");
  workload.ttl = real_arg(opts, "ttl-days", 4.0, positive, "positive") *
                 dtn::trace::kDay;
  workload.node_memory_kb = opts.get_count("memory", 40, 0);
  workload.time_unit = real_arg(opts, "unit-days", 1.0, positive, "positive") *
                       dtn::trace::kDay;
  workload.warmup_fraction = real_arg(opts, "warmup", 0.25, fraction,
                                      "at least 0 and below 1");
  workload.seed = opts.get_seed(1) * 97 + 3;
  // Bounded-store overload knobs (docs/bounded-store.md); the defaults
  // keep stations unbounded and every policy off.
  workload.store.station_memory_kb = opts.get_count("station-memory", 0, 0);
  const std::string policy_name = opts.get("store-policy", "reject");
  if (!dtn::net::parse_eviction_policy(policy_name, &workload.store.policy)) {
    std::fprintf(stderr,
                 "simulate: unknown --store-policy %s (use reject, "
                 "drop-oldest, drop-largest-expected-delay or ttl-expire)\n",
                 policy_name.c_str());
    return 2;
  }
  workload.store.dedup = opts.has("store-dedup");
  if (workload.store.station_memory_kb > 0) {
    std::printf("stations: bounded to %llu kB, policy %s%s\n",
                static_cast<unsigned long long>(
                    workload.store.station_memory_kb),
                dtn::net::to_string(workload.store.policy),
                workload.store.dedup ? ", dedup on" : "");
  }
  workload.faults = dtn::sim::fault_plan_from_cli(opts);
  if (workload.faults.has_value()) {
    std::printf("faults: seeded plan %llu (crash rate %.3f/day, outage rate "
                "%.3f/day, transfer fail %.3f)\n",
                static_cast<unsigned long long>(workload.faults->seed),
                workload.faults->node_crash_rate_per_day,
                workload.faults->station_outage_rate_per_day,
                workload.faults->transfer_failure_prob);
  }

  std::optional<dtn::CsvWriter> out = open_out(opts);
  const std::string choice = opts.get("router", "DTN-FLOW");
  if (opts.has("serve")) {
    if (choice == "all") {
      std::fprintf(stderr, "simulate: --serve runs a single router, not "
                           "--router all\n");
      return 2;
    }
    if (opts.get_int("replicates", 1) != 1) {
      std::fprintf(stderr, "simulate: --serve is single-replicate\n");
      return 2;
    }
    return run_service(opts, trace, workload, choice, out);
  }

  std::vector<std::string> routers;
  if (choice == "all") {
    routers = dtn::routing::standard_router_names();
  } else {
    routers.push_back(choice);
  }

  const std::size_t replicates = opts.get_count("replicates", 1, 1);
  std::vector<std::vector<dtn::metrics::RunResult>> results;
  for (const auto& name : routers) {
    auto& runs = results.emplace_back();
    std::uint64_t crashes = 0, outages = 0, lost = 0, interrupted = 0;
    for (std::size_t r = 0; r < replicates; ++r) {
      const auto router = dtn::routing::make_router(name);
      const auto& res = runs.emplace_back(dtn::metrics::run_experiment(
          trace, *router, replicate_workload(workload, r)));
      crashes += res.node_crashes;
      outages += res.station_outages;
      lost += res.packets_lost_fault;
      interrupted += res.transfers_interrupted;
    }
    if (workload.faults.has_value()) {
      std::printf("%s resilience: %llu crashes, %llu outages, %llu packets "
                  "lost to faults, %llu transfers interrupted\n",
                  name.c_str(), static_cast<unsigned long long>(crashes),
                  static_cast<unsigned long long>(outages),
                  static_cast<unsigned long long>(lost),
                  static_cast<unsigned long long>(interrupted));
    }
  }
  return print_results(out, results);
}

}  // namespace

int main(int argc, char** argv) {
  const dtn::CliOptions opts(argc, argv, {"serve", "store-dedup"});
  // fault-* keys are checked by fault_plan_from_cli, which names the
  // family in its message.
  opts.reject_unknown(
      "simulate",
      {"kind", "input", "nodes", "buses", "landmarks", "districts",
       "communities", "days", "seed", "router", "replicates", "rate",
       "ttl-days", "memory", "unit-days", "warmup", "station-memory",
       "store-policy", "store-dedup", "out", "serve",
       "checkpoint-dir", "checkpoint-every-events", "checkpoint-every-days",
       "checkpoint-keep", "serve-exit-after-events", "fault-*"});
  try {
    return run(opts);
  } catch (const std::invalid_argument& e) {
    // Unknown router or fault option, out-of-range count: a usage error.
    std::fprintf(stderr, "simulate: %s\n", e.what());
    return 2;
  }
}
