// Campus data collection: every building streams sensor logs to the
// library (the paper's §V-C deployment scenario, and an instance of the
// "collect data from different areas" application class in §I).
//
// Demonstrates the full planning pipeline:
//   1. landmark selection from candidate popular places (§IV-A):
//      spacing rule + popularity;
//   2. subarea division (nearest-landmark assignment);
//   3. skewed-destination workload (all packets to one landmark);
//   4. per-source delivery statistics.
//
//   $ ./campus_data_collection [--seed N] [--days D]
#include <cstdio>
#include <stdexcept>
#include <vector>

#include "core/dtn_flow_router.hpp"
#include "core/landmark_select.hpp"
#include "metrics/metrics.hpp"
#include "trace/geo_generator.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/rng.hpp"

namespace {

int run(const dtn::CliOptions& opts) {
  dtn::Rng rng(opts.get_seed(7));

  // -- 1. plan the landmark deployment ---------------------------------
  // Candidate popular places: building positions with historical visit
  // counts (in a real deployment these come from a site survey).
  std::vector<dtn::core::CandidatePlace> candidates;
  for (int i = 0; i < 40; ++i) {
    candidates.push_back({{rng.uniform(0.0, 2000.0), rng.uniform(0.0, 1500.0)},
                          rng.uniform(50.0, 5000.0)});
  }
  const auto selected = dtn::core::select_landmarks(
      candidates, /*min_distance=*/250.0, /*max_landmarks=*/16);
  std::printf("landmark selection: %zu of %zu candidate buildings kept "
              "(min spacing 250 m)\n",
              selected.size(), candidates.size());

  // Subarea division: which landmark serves each candidate building.
  std::vector<dtn::trace::Point> landmark_positions;
  for (const auto idx : selected) {
    landmark_positions.push_back(candidates[idx].position);
  }
  std::vector<dtn::trace::Point> all_positions;
  for (const auto& c : candidates) all_positions.push_back(c.position);
  const auto subarea =
      dtn::core::assign_subareas(all_positions, landmark_positions);
  std::vector<int> subarea_sizes(selected.size(), 0);
  for (const auto s : subarea) ++subarea_sizes[s];
  std::printf("subarea division: largest subarea covers %d buildings\n",
              *std::max_element(subarea_sizes.begin(), subarea_sizes.end()));

  // -- 2. mobility over the selected map --------------------------------
  // The geographic generator walks people between the *actual selected
  // landmark positions*, so travel times are consistent with the map
  // the landmarks were planned on.
  dtn::trace::GeoTraceConfig trace_cfg;
  trace_cfg.landmark_positions = landmark_positions;
  trace_cfg.num_nodes = 54;
  trace_cfg.days = opts.get_double("days", 24.0);
  trace_cfg.seed = opts.get_seed(7) + 1;
  // Attraction proportional to the surveyed popularity; the most
  // visited selected place (index 0 by construction) is the "library".
  for (const auto idx : selected) {
    trace_cfg.attraction.push_back(candidates[idx].visit_count);
  }
  const auto trace = dtn::trace::generate_geo_trace(trace_cfg);

  const dtn::trace::LandmarkId library = 0;  // most popular place
  dtn::net::WorkloadConfig workload;
  workload.packets_per_landmark_per_day = 40.0;
  workload.ttl = 3.0 * dtn::trace::kDay;
  workload.node_memory_kb = 50;
  workload.time_unit = 0.5 * dtn::trace::kDay;
  // All traffic flows to the library.
  workload.destination_weights.assign(trace.num_landmarks(), 0.0);
  workload.destination_weights[library] = 1.0;

  // -- 3. run DTN-FLOW --------------------------------------------------
  dtn::core::DtnFlowRouter router;
  dtn::net::Network net(trace, router, workload);
  net.run();
  const auto result = dtn::metrics::summarize(net, router);

  std::printf("\ncollection run: %lu packets, %.1f%% reached the library, "
              "mean delay %.1f h\n",
              static_cast<unsigned long>(result.generated),
              100.0 * result.success_rate,
              result.avg_delay / dtn::trace::kHour);

  // -- 4. per-source-building statistics -------------------------------
  dtn::TablePrinter table({"source", "generated", "delivered", "rate"});
  std::vector<std::size_t> gen(trace.num_landmarks(), 0);
  std::vector<std::size_t> done(trace.num_landmarks(), 0);
  for (const auto& p : net.all_packets()) {
    ++gen[p.src];
    if (p.state == dtn::net::PacketState::kDelivered) ++done[p.src];
  }
  for (dtn::trace::LandmarkId l = 1; l < trace.num_landmarks(); ++l) {
    if (gen[l] == 0) continue;
    table.add_row("building " + std::to_string(l),
                  {static_cast<double>(gen[l]), static_cast<double>(done[l]),
                   static_cast<double>(done[l]) / static_cast<double>(gen[l])},
                  3);
  }
  table.print("per-building delivery to the library");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const dtn::CliOptions opts(argc, argv);
  opts.reject_unknown("campus_data_collection", {"days", "seed"});
  try {
    return run(opts);
  } catch (const std::invalid_argument& e) {
    // A --days the trace generator refuses is a usage error.
    std::fprintf(stderr, "campus_data_collection: %s\n", e.what());
    return 2;
  }
}
