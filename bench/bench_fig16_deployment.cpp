// Fig. 16 + Table X — the campus deployment (§V-C).
//
// Reproduces the paper's real deployment in simulation: eight campus
// landmarks laid out as in Fig. 15(a) — L1 the library, L2/L4/L5/L7
// department buildings, L3/L6/L8 the student center and dining halls —
// nine students from four departments carrying phones, every landmark
// generating 75 packets per day all destined to the library, TTL 3
// days, 50 kB phone memory, 12 h time unit.
//
// Outputs: success rate and delay quantiles (Fig. 16(a)), the transit-
// link bandwidth map above the paper's 0.14 display threshold
// (Fig. 16(b)), and the routing tables of three landmarks (Table X).
#include <cmath>
#include <cstdio>

#include "bench_common.hpp"
#include "core/dtn_flow_router.hpp"
#include "trace/geo_generator.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace {

using dtn::trace::kDay;
using dtn::trace::kHour;
using dtn::trace::kMinute;

// Landmark ids (paper names): 0=L1 library, 1=L2, 3=L4, 4=L5, 6=L7
// department buildings, 2=L3, 5=L6, 7=L8 student center / dining.
constexpr dtn::trace::LandmarkId kLibrary = 0;

// Nine students from four departments walking the Fig. 15(a) map:
// geographic mobility with a library-heavy attraction profile, so
// travel times follow the building distances.
dtn::trace::Trace deployment_trace(double days, std::uint64_t seed) {
  dtn::trace::GeoTraceConfig cfg;
  cfg.landmark_positions = dtn::trace::fig15_positions();
  cfg.num_nodes = 9;
  cfg.days = days;
  cfg.seed = seed;
  // Students 0-2 from department L2, 3-4 from L4, 5-6 from L5, 7-8 from
  // L7 (paper: most participants from the L2/L4 departments).
  cfg.homes = {1, 1, 1, 3, 3, 4, 4, 6, 6};
  // Library-centric student life; dining/student-center visited less.
  cfg.attraction = {6.0, 1.0, 0.8, 1.0, 0.8, 0.8, 1.0, 0.8};
  cfg.home_bias = 0.45;
  cfg.mean_stay_minutes = 65.0;
  return dtn::trace::generate_geo_trace(cfg);
}

}  // namespace

int main(int argc, char** argv) {
  const dtn::CliOptions opts =
      dtn::bench::parse_cli(argc, argv, "bench_fig16_deployment");
  const double days = opts.full_scale() ? 30.0 : 12.0;
  const auto trace = deployment_trace(days, opts.get_seed(21));

  dtn::net::WorkloadConfig workload;
  workload.packets_per_landmark_per_day = 75.0;
  workload.ttl = 3.0 * kDay;
  workload.node_memory_kb = 50;
  workload.time_unit = 12.0 * kHour;
  workload.warmup_fraction = 0.25;
  workload.seed = opts.get_seed(21) * 7 + 1;

  dtn::core::DtnFlowRouter router;

  // All packets target the library: replace the Poisson uniform-dst
  // workload with manual generation (75/landmark/day, evenly in the
  // daytime, as deployed).
  workload.packets_per_landmark_per_day = 0.0;
  const double start = trace.begin_time() +
                       workload.warmup_fraction * trace.duration();
  for (dtn::trace::LandmarkId l = 1; l < 8; ++l) {
    for (double day = std::floor(start / kDay); day < days; day += 1.0) {
      for (int k = 0; k < 75; ++k) {
        const double at =
            day * kDay + 8.0 * kHour + (13.0 * kHour) * (k + 0.5) / 75.0;
        if (at < start || at > trace.end_time()) continue;
        workload.manual_packets.push_back({l, kLibrary, at, 0.0});
      }
    }
  }
  dtn::net::Network net2(trace, router, workload);
  net2.run();
  const auto result = dtn::metrics::summarize(net2, router);

  // Fig. 16(a): success rate and delay quantiles.
  std::printf("== Fig. 16(a): deployment success rate and delay ==\n");
  std::printf("packets generated: %lu, delivered: %lu, success rate: %.3f\n",
              static_cast<unsigned long>(result.generated),
              static_cast<unsigned long>(result.delivered),
              result.success_rate);
  if (!result.delivery_delays.empty()) {
    std::vector<double> minutes;
    for (const double d : result.delivery_delays) {
      minutes.push_back(d / kMinute);
    }
    const auto f = dtn::five_number_summary(minutes);
    std::printf("delay (minutes): min %.0f, Q1 %.0f, mean %.0f, Q3 %.0f, "
                "max %.0f\n",
                f.min, f.q1, f.mean, f.q3, f.max);
  }
  std::printf("(paper: >82%% delivered, 75%% within 1400 min, mean ~1000 min "
              "with only 9 nodes)\n");

  // Fig. 16(b): link bandwidths above the display threshold.
  dtn::TablePrinter links({"from", "to", "bandwidth/unit"});
  const auto& bw = router.bandwidth();
  for (dtn::trace::LandmarkId i = 0; i < 8; ++i) {
    for (dtn::trace::LandmarkId j = 0; j < 8; ++j) {
      if (i == j) continue;
      const double b = bw.bandwidth(i, j);
      if (b >= 0.14) {
        links.add_row("L" + std::to_string(i + 1),
                      {static_cast<double>(j + 1), b}, 3);
      }
    }
  }
  links.print("Fig. 16(b): transit-link bandwidths (>= 0.14/unit)");
  links.write_csv(dtn::bench::csv_path(opts, "fig16b_bandwidths"));

  // Table X: routing tables of three landmarks.
  for (const dtn::trace::LandmarkId l : {1u, 4u, 6u}) {
    dtn::TablePrinter table({"destination", "next hop", "delay (h)"});
    const auto& rt = router.routing_table(l);
    for (dtn::trace::LandmarkId d = 0; d < 8; ++d) {
      if (d == l) continue;
      const auto r = rt.route(d);
      table.add_row("L" + std::to_string(d + 1),
                    {static_cast<double>(r.next == dtn::trace::kNoLandmark
                                             ? -1.0
                                             : r.next + 1.0),
                     r.delay == dtn::core::kInfiniteDelay
                         ? -1.0
                         : r.delay / kHour},
                    3);
    }
    table.print("Table X: routing table on L" + std::to_string(l + 1));
  }
  std::printf("\n(shape check: tables route through the library/department "
              "high-bandwidth links, consistent with Fig. 16(b))\n");
  return 0;
}
