// Fig. 6 — accuracy of the order-k Markov transit prediction.
//
// (a) average per-node accuracy for k = 1, 2, 3 on both traces (the
//     paper finds k = 1 best because position records are incomplete);
// (b) min / Q1 / mean / Q3 / max of per-node accuracy for k = 1
//     (paper: DART mean ~0.77, DNET mean ~0.66 — lower despite more
//     repetitive mobility, due to neighbouring-AP ambiguity).
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "core/markov_predictor.hpp"
#include "util/stats.hpp"

int main(int argc, char** argv) {
  const dtn::CliOptions opts =
      dtn::bench::parse_cli(argc, argv, "bench_fig6_predictor");
  dtn::TablePrinter avg_table({"trace", "order-1", "order-2", "order-3"});
  dtn::TablePrinter quant_table(
      {"trace", "min", "Q1", "mean", "Q3", "max", "nodes"});

  for (const auto& scenario : dtn::bench::make_scenarios(opts)) {
    std::vector<double> averages;
    std::vector<double> order1_accuracies;
    for (const std::size_t order : {1u, 2u, 3u}) {
      dtn::RunningStats acc;
      for (dtn::trace::NodeId n = 0; n < scenario.trace.num_nodes(); ++n) {
        const auto seq =
            dtn::core::visiting_sequence(scenario.trace.visits(n));
        const auto score =
            dtn::core::score_sequence(scenario.trace.num_landmarks(), order, seq);
        if (score.predictions < 20) continue;  // too few to rate, as in §IV-B
        acc.add(score.accuracy());
        if (order == 1) order1_accuracies.push_back(score.accuracy());
      }
      averages.push_back(acc.mean());
    }
    avg_table.add_row(scenario.name, averages, 3);
    if (!order1_accuracies.empty()) {
      const auto f = dtn::five_number_summary(order1_accuracies);
      quant_table.add_row(
          scenario.name,
          {f.min, f.q1, f.mean, f.q3, f.max,
           static_cast<double>(order1_accuracies.size())},
          3);
    }
  }

  avg_table.print("Fig. 6(a): average order-k prediction accuracy");
  avg_table.write_csv(dtn::bench::csv_path(opts, "fig6a_predictor_order"));
  quant_table.print("Fig. 6(b): per-node order-1 accuracy quantiles");
  quant_table.write_csv(dtn::bench::csv_path(opts, "fig6b_predictor_quantiles"));
  std::printf("\n(paper: order-1 best on both traces; DART mean ~0.77, "
              "DNET mean ~0.66)\n");
  return 0;
}
