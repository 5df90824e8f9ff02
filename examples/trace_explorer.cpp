// Trace explorer: the trace-analysis side of the library as a CLI.
//
// Generates (or loads) a trace, prints its Table-I characteristics, the
// most popular landmarks, the strongest transit links and per-node
// order-k predictability — the §III-B analyses a deployment planner
// runs before placing landmarks.  Round-trips the trace through the CSV
// format on the way to demonstrate trace I/O.
//
//   $ ./trace_explorer [--input trace.csv] [--kind campus|bus]
//                      [--seed N] [--save out.csv]
#include <cstdio>

#include "core/markov_predictor.hpp"
#include "trace/bus_generator.hpp"
#include "trace/campus_generator.hpp"
#include "trace/contacts.hpp"
#include "trace/trace_io.hpp"
#include "trace/trace_stats.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/stats.hpp"

int main(int argc, char** argv) {
  const dtn::CliOptions opts(argc, argv);
  opts.reject_unknown("trace_explorer", {"input", "kind", "save", "seed"});

  dtn::trace::Trace trace;
  const std::string input = opts.get("input", "");
  if (!input.empty()) {
    trace = dtn::trace::read_trace_csv(input);
    std::printf("loaded %s\n", input.c_str());
  } else if (opts.get("kind", "campus") == "bus") {
    dtn::trace::BusTraceConfig cfg;
    cfg.seed = opts.get_seed(2);
    trace = dtn::trace::generate_bus_trace(cfg);
  } else {
    dtn::trace::CampusTraceConfig cfg;
    cfg.num_nodes = 64;
    cfg.num_landmarks = 24;
    cfg.days = 28.0;
    cfg.seed = opts.get_seed(1);
    trace = dtn::trace::generate_campus_trace(cfg);
  }

  const std::string save = opts.get("save", "");
  if (!save.empty()) {
    dtn::trace::write_trace_csv(trace, save);
    std::printf("saved to %s\n", save.c_str());
  }

  const auto c = dtn::trace::characterize(trace);
  std::printf("nodes %zu | landmarks %zu | visits %zu | transits %zu | "
              "%.1f days | mean visit %.1f min | %.1f transits/node/day\n",
              c.num_nodes, c.num_landmarks, c.num_visits, c.num_transits,
              c.duration_days, c.mean_visit_minutes,
              c.mean_transits_per_node_day);

  dtn::TablePrinter popular({"landmark", "total visits"});
  const auto order = dtn::trace::landmarks_by_popularity(trace);
  const auto counts = dtn::trace::visit_count_matrix(trace);
  for (std::size_t k = 0; k < 5 && k < order.size(); ++k) {
    double total = 0.0;
    for (dtn::trace::NodeId n = 0; n < trace.num_nodes(); ++n) {
      total += counts.at(n, order[k]);
    }
    popular.add_row("L" + std::to_string(order[k]), {total}, 6);
  }
  popular.print("most visited landmarks");

  dtn::TablePrinter links({"from", "to", "bandwidth/day"});
  const auto bw = dtn::trace::link_bandwidths(trace, dtn::trace::kDay);
  for (std::size_t k = 0; k < 8 && k < bw.size(); ++k) {
    links.add_row("L" + std::to_string(bw[k].from),
                  {static_cast<double>(bw[k].to), bw[k].bandwidth}, 4);
  }
  links.print("strongest transit links");
  std::printf("matching-link symmetry r = %.3f\n",
              dtn::trace::matching_link_symmetry(trace));

  // Contact structure: how often do carriers actually meet?
  {
    const auto contacts = dtn::trace::derive_contacts(trace);
    const auto cs = dtn::trace::analyze_contacts(trace, contacts);
    std::printf("\ncontacts: %zu total between %zu node pairs | "
                "%.1f per node-day | mean duration %.1f min | "
                "mean inter-contact %.1f h\n",
                cs.contacts, cs.pairs_met, cs.contacts_per_node_day,
                cs.mean_duration / dtn::trace::kMinute,
                cs.mean_intercontact / dtn::trace::kHour);
  }

  dtn::TablePrinter pred({"order", "mean accuracy", "rated nodes"});
  for (const std::size_t order_k : {1u, 2u, 3u}) {
    dtn::RunningStats acc;
    for (dtn::trace::NodeId n = 0; n < trace.num_nodes(); ++n) {
      const auto seq = dtn::core::visiting_sequence(trace.visits(n));
      const auto score =
          dtn::core::score_sequence(trace.num_landmarks(), order_k, seq);
      if (score.predictions >= 20) acc.add(score.accuracy());
    }
    pred.add_row("k=" + std::to_string(order_k),
                 {acc.mean(), static_cast<double>(acc.count())}, 3);
  }
  pred.print("order-k Markov predictability");
  return 0;
}
