#include "bench_common.hpp"

#include "routing/factory.hpp"

namespace dtn::bench {

Scenario make_dart_scenario(bool full_scale, std::uint64_t seed) {
  Scenario s;
  s.name = "DART";
  if (full_scale) {
    s.trace = trace::generate_campus_trace(trace::dart_scale_config(seed));
    s.workload.packets_per_landmark_per_day = 500.0;
    s.workload.ttl = 20.0 * trace::kDay;
    s.workload.node_memory_kb = 2000;
    s.workload.time_unit = 3.0 * trace::kDay;
    for (double m = 1200.0; m <= 3000.0; m += 200.0) s.memory_sweep.push_back(m);
    for (double r = 100.0; r <= 1000.0; r += 100.0) s.rate_sweep.push_back(r);
  } else {
    trace::CampusTraceConfig cfg;
    cfg.num_nodes = 64;
    cfg.num_landmarks = 30;
    cfg.num_communities = 14;
    cfg.community_landmarks = 4;
    cfg.community_bias = 0.85;
    cfg.days = 32.0;
    cfg.seed = seed;
    s.trace = trace::generate_campus_trace(cfg);
    s.workload.packets_per_landmark_per_day = 30.0;
    s.workload.ttl = 4.0 * trace::kDay;
    s.workload.node_memory_kb = 40;
    s.workload.time_unit = 1.0 * trace::kDay;
    for (double m = 10.0; m <= 100.0; m += 10.0) s.memory_sweep.push_back(m);
    for (double r = 10.0; r <= 100.0; r += 10.0) s.rate_sweep.push_back(r);
  }
  s.workload.warmup_fraction = 0.25;
  s.workload.seed = seed * 31 + 7;
  return s;
}

Scenario make_dnet_scenario(bool full_scale, std::uint64_t seed) {
  Scenario s;
  s.name = "DNET";
  // DNET is small enough that "full" and "quick" share the trace shape;
  // full uses the paper's exact node/landmark counts and packet rates.
  trace::BusTraceConfig cfg = trace::dnet_scale_config(seed);
  // The paper's DNET trace excludes holidays and weekends (§III-B.3);
  // modelling that as continuous weekday-like service keeps the Fig. 4
  // per-unit series comparable to theirs.
  cfg.weekdays_only = false;
  if (!full_scale) {
    cfg.num_buses = 24;
    cfg.num_landmarks = 14;
    cfg.num_routes = 8;
    cfg.days = 20.0;
  }
  s.trace = trace::generate_bus_trace(cfg);
  s.workload.ttl = 4.0 * trace::kDay;
  s.workload.time_unit = 0.5 * trace::kDay;
  s.workload.warmup_fraction = 0.25;
  s.workload.seed = seed * 57 + 13;
  if (full_scale) {
    s.workload.packets_per_landmark_per_day = 500.0;
    s.workload.node_memory_kb = 2000;
    for (double m = 1200.0; m <= 3000.0; m += 200.0) s.memory_sweep.push_back(m);
    for (double r = 100.0; r <= 1000.0; r += 100.0) s.rate_sweep.push_back(r);
  } else {
    s.workload.packets_per_landmark_per_day = 40.0;
    s.workload.node_memory_kb = 60;
    for (double m = 15.0; m <= 150.0; m += 15.0) s.memory_sweep.push_back(m);
    for (double r = 10.0; r <= 100.0; r += 10.0) s.rate_sweep.push_back(r);
  }
  return s;
}

CliOptions parse_cli(int argc, const char* const* argv,
                     const std::string& program,
                     const std::vector<std::string>& extra_keys) {
  CliOptions opts(argc, argv);
  std::vector<std::string> accepted = {"scale", "csv", "seed"};
  accepted.insert(accepted.end(), extra_keys.begin(), extra_keys.end());
  opts.reject_unknown(program, accepted);
  return opts;
}

std::vector<Scenario> make_scenarios(const CliOptions& opts) {
  const bool full = opts.full_scale();
  const std::uint64_t seed = opts.get_seed(1);
  std::vector<Scenario> out;
  out.push_back(make_dart_scenario(full, seed));
  out.push_back(make_dnet_scenario(full, seed + 1));
  return out;
}

std::vector<std::pair<std::string, metrics::RouterFactory>>
standard_factories() {
  std::vector<std::pair<std::string, metrics::RouterFactory>> out;
  for (const auto& name : routing::standard_router_names()) {
    out.emplace_back(name, [name] { return routing::make_router(name); });
  }
  return out;
}

std::string csv_path(const CliOptions& opts, const std::string& name) {
  const std::string dir = opts.csv_dir();
  if (dir.empty()) return "";
  return dir + "/" + name + ".csv";
}

}  // namespace dtn::bench
