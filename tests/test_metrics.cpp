#include "metrics/experiment.hpp"
#include "metrics/metrics.hpp"

#include <gtest/gtest.h>

#include "routing/direct.hpp"
#include "routing/prophet.hpp"
#include "test_helpers.hpp"

namespace dtn::metrics {
namespace {

using dtn::testing::relay_chain_trace;
using trace::kDay;
using trace::kMinute;

net::WorkloadConfig quiet() {
  net::WorkloadConfig cfg;
  cfg.packets_per_landmark_per_day = 0.0;
  cfg.warmup_fraction = 0.0;
  cfg.time_unit = 0.5 * kDay;
  cfg.node_memory_kb = 50;
  cfg.ttl = 2.0 * kDay;
  return cfg;
}

// Two nodes; node 0 visits L0 then L1 (deliverable), packets to L2 fail.
trace::Trace mini_trace() {
  trace::Trace t(1, 3);
  for (int d = 0; d < 8; ++d) {
    const double base = d * kDay;
    t.add_visit({0, 0, base, base + 30.0 * kMinute});
    t.add_visit({0, 1, base + 60.0 * kMinute, base + 90.0 * kMinute});
  }
  t.finalize();
  return t;
}

TEST(Summarize, SuccessRateAndDelays) {
  const auto trace = mini_trace();
  routing::DirectDeliveryRouter router;
  auto cfg = quiet();
  cfg.manual_packets = {{0, 1, 2.0 * kDay + 5.0 * kMinute, 0.0},   // delivered
                        {0, 2, 2.0 * kDay + 6.0 * kMinute, 0.0}};  // fails
  net::Network net(trace, router, cfg);
  net.run();
  const RunResult r = summarize(net, router);
  EXPECT_EQ(r.generated, 2u);
  EXPECT_EQ(r.delivered, 1u);
  EXPECT_DOUBLE_EQ(r.success_rate, 0.5);
  // Delivered at the next L1 arrival: 2d+60min; created 2d+5min.
  EXPECT_NEAR(r.avg_delay, 55.0 * kMinute, 1.0);
  // Overall delay averages the failure as experiment duration.
  EXPECT_GT(r.overall_delay, r.avg_delay);
  EXPECT_NEAR(r.overall_delay, (r.avg_delay + r.failure_delay) / 2.0, 1.0);
  ASSERT_EQ(r.delivery_delays.size(), 1u);
}

TEST(Summarize, CostModelConvertsEntries) {
  const auto trace = relay_chain_trace(4.0);
  routing::ProphetRouter router;
  net::Network net(trace, router, quiet());
  net.run();
  CostModel cm;
  cm.entries_per_op = 50.0;
  const RunResult r50 = summarize(net, router, cm);
  cm.entries_per_op = 25.0;
  const RunResult r25 = summarize(net, router, cm);
  EXPECT_NEAR(r25.control_cost, 2.0 * r50.control_cost, 1e-9);
  EXPECT_DOUBLE_EQ(r50.total_cost, r50.forwarding_cost + r50.control_cost);
}

TEST(Summarize, EmptyWorkloadIsAllZero) {
  const auto trace = mini_trace();
  routing::DirectDeliveryRouter router;
  net::Network net(trace, router, quiet());
  net.run();
  const RunResult r = summarize(net, router);
  EXPECT_EQ(r.generated, 0u);
  EXPECT_DOUBLE_EQ(r.success_rate, 0.0);
  EXPECT_DOUBLE_EQ(r.avg_delay, 0.0);
}

TEST(RunExperiment, EndToEnd) {
  const auto trace = mini_trace();
  routing::DirectDeliveryRouter router;
  auto cfg = quiet();
  cfg.manual_packets = {{0, 1, 2.0 * kDay, 0.0}};
  const RunResult r = run_experiment(trace, router, cfg);
  EXPECT_EQ(r.router, "Direct");
  EXPECT_EQ(r.delivered, 1u);
}

TEST(RunSweep, GridShapeAndDeterminism) {
  const auto trace = mini_trace();
  net::WorkloadConfig base = quiet();
  base.packets_per_landmark_per_day = 6.0;
  base.warmup_fraction = 0.25;

  std::vector<std::pair<std::string, RouterFactory>> factories;
  factories.emplace_back("Direct", [] {
    return std::make_unique<routing::DirectDeliveryRouter>();
  });

  SweepConfig sweep;
  sweep.values = {10.0, 50.0};
  sweep.apply = [](net::WorkloadConfig& cfg, double v) {
    cfg.node_memory_kb = static_cast<std::uint64_t>(v);
  };
  sweep.replicates = 3;
  sweep.threads = 2;

  const auto cells = run_sweep(trace, base, factories, sweep);
  ASSERT_EQ(cells.size(), 2u);
  EXPECT_EQ(cells[0].router, "Direct");
  EXPECT_DOUBLE_EQ(cells[0].sweep_value, 10.0);
  EXPECT_EQ(cells[0].replicates.size(), 3u);
  // Replicates use distinct seeds but identical configuration shape.
  for (const auto& cell : cells) {
    for (const auto& rep : cell.replicates) {
      EXPECT_GT(rep.generated, 0u);
    }
    EXPECT_GE(cell.success_rate.mean, 0.0);
    EXPECT_LE(cell.success_rate.mean, 1.0);
    EXPECT_GE(cell.success_rate.ci_half_width, 0.0);
  }

  // Serial run must produce identical numbers (thread-count invariance).
  SweepConfig serial = sweep;
  serial.threads = 1;
  const auto cells2 = run_sweep(trace, base, factories, serial);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_DOUBLE_EQ(cells[i].success_rate.mean, cells2[i].success_rate.mean);
    EXPECT_DOUBLE_EQ(cells[i].total_cost.mean, cells2[i].total_cost.mean);
  }
}

TEST(RunSweep, MultipleRoutersKeepOrder) {
  const auto trace = mini_trace();
  net::WorkloadConfig base = quiet();
  base.packets_per_landmark_per_day = 4.0;

  std::vector<std::pair<std::string, RouterFactory>> factories;
  factories.emplace_back("Direct", [] {
    return std::make_unique<routing::DirectDeliveryRouter>();
  });
  factories.emplace_back("PROPHET", [] {
    return std::make_unique<routing::ProphetRouter>();
  });

  SweepConfig sweep;
  sweep.values = {100.0};
  sweep.apply = nullptr;  // sweep value unused
  sweep.replicates = 1;
  sweep.threads = 1;
  const auto cells = run_sweep(trace, base, factories, sweep);
  ASSERT_EQ(cells.size(), 2u);
  EXPECT_EQ(cells[0].router, "Direct");
  EXPECT_EQ(cells[1].router, "PROPHET");
}

}  // namespace
}  // namespace dtn::metrics
