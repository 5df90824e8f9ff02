// Fig. 8 — average routing-table coverage and stability at ten evenly
// distributed observation points.
//
// Coverage at observation point t: fraction of destination landmarks a
// landmark's table can route to.  Stability: fraction of destinations
// whose next hop is unchanged since the previous observation point.
// Both are averaged over all landmarks, sampled by running DTN-FLOW
// over the trace with an observer router wrapper.
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "core/dtn_flow_router.hpp"

namespace {

// DTN-FLOW plus snapshots of coverage/stability at each time unit.
class ObservedDtnFlow final : public dtn::net::Router {
 public:
  explicit ObservedDtnFlow(std::size_t observation_points)
      : points_(observation_points) {}

  [[nodiscard]] std::string name() const override { return "DTN-FLOW"; }
  [[nodiscard]] bool uses_stations() const override { return true; }
  void on_init(dtn::net::Network& net) override {
    inner_.on_init(net);
    total_units_ = static_cast<std::size_t>(
        (net.trace_end() - net.trace_begin()) / net.config().time_unit);
    prev_hops_.assign(net.num_landmarks(), {});
  }
  void on_arrival(dtn::net::Network& net, dtn::net::NodeId n,
                  dtn::net::LandmarkId l) override {
    inner_.on_arrival(net, n, l);
  }
  void on_departure(dtn::net::Network& net, dtn::net::NodeId n,
                    dtn::net::LandmarkId l) override {
    inner_.on_departure(net, n, l);
  }
  void on_packet_generated(dtn::net::Network& net,
                           dtn::net::PacketId pid) override {
    inner_.on_packet_generated(net, pid);
  }
  void on_time_unit(dtn::net::Network& net, std::size_t unit) override {
    inner_.on_time_unit(net, unit);
    const std::size_t every = std::max<std::size_t>(1, total_units_ / points_);
    if (unit % every != 0) return;
    double coverage = 0.0;
    double stability = 0.0;
    const std::size_t m = net.num_landmarks();
    for (dtn::net::LandmarkId l = 0; l < m; ++l) {
      const auto& table = inner_.routing_table(l);
      coverage += table.coverage();
      const auto hops = table.next_hops();
      if (!prev_hops_[l].empty()) {
        std::size_t same = 0;
        for (std::size_t d = 0; d < hops.size(); ++d) {
          if (hops[d] == prev_hops_[l][d]) ++same;
        }
        stability +=
            static_cast<double>(same) / static_cast<double>(hops.size());
      } else {
        stability += 0.0;  // first observation: fully "new"
      }
      prev_hops_[l] = hops;
    }
    coverages.push_back(coverage / static_cast<double>(m));
    stabilities.push_back(stability / static_cast<double>(m));
  }

  std::vector<double> coverages;
  std::vector<double> stabilities;

 private:
  dtn::core::DtnFlowRouter inner_;
  std::size_t points_;
  std::size_t total_units_ = 1;
  std::vector<std::vector<dtn::net::LandmarkId>> prev_hops_;
};

}  // namespace

int main(int argc, char** argv) {
  const dtn::CliOptions opts =
      dtn::bench::parse_cli(argc, argv, "bench_fig8_routing_table");
  for (const auto& scenario : dtn::bench::make_scenarios(opts)) {
    ObservedDtnFlow router(10);
    dtn::net::Network net(scenario.trace, router, scenario.workload);
    net.run();
    dtn::TablePrinter table({"observation", "coverage", "stability"});
    for (std::size_t i = 0; i < router.coverages.size(); ++i) {
      table.add_row("t" + std::to_string(i + 1),
                    {router.coverages[i], router.stabilities[i]}, 3);
    }
    table.print("Fig. 8 (" + scenario.name +
                "): routing-table coverage and stability");
    table.write_csv(
        dtn::bench::csv_path(opts, "fig8_routing_table_" + scenario.name));
  }
  std::printf("\n(shape check: coverage approaches 1 after the first few "
              "observation points and next hops become stable)\n");
  return 0;
}
