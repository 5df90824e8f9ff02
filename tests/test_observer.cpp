#include "metrics/observer.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "core/dtn_flow_router.hpp"
#include "routing/factory.hpp"
#include "sim/fault_injector.hpp"
#include "sim/invariant_auditor.hpp"
#include "test_helpers.hpp"

namespace dtn::metrics {
namespace {

using dtn::testing::relay_chain_trace;
using dtn::testing::relay_chain_workload;
using trace::kDay;

net::WorkloadConfig workload() {
  net::WorkloadConfig cfg;
  cfg.packets_per_landmark_per_day = 10.0;
  cfg.warmup_fraction = 0.25;
  cfg.time_unit = 0.5 * kDay;
  cfg.node_memory_kb = 20;
  cfg.ttl = 2.0 * kDay;
  cfg.seed = 3;
  return cfg;
}

TEST(ObservedRouter, ForwardsBehaviorUnchanged) {
  const auto trace = relay_chain_trace(8.0);
  // The wrapped router must produce byte-identical results.
  const auto plain_router = routing::make_router("DTN-FLOW");
  net::Network plain(trace, *plain_router, workload());
  plain.run();

  ObservedRouter observed(routing::make_router("DTN-FLOW"));
  net::Network wrapped(trace, observed, workload());
  wrapped.run();

  EXPECT_EQ(plain.counters().delivered, wrapped.counters().delivered);
  EXPECT_EQ(plain.counters().packet_forwards,
            wrapped.counters().packet_forwards);
  EXPECT_DOUBLE_EQ(plain.counters().control_entries,
                   wrapped.counters().control_entries);
}

TEST(ObservedRouter, OneSamplePerTimeUnit) {
  const auto trace = relay_chain_trace(8.0);
  ObservedRouter observed(routing::make_router("DTN-FLOW"));
  net::Network net(trace, observed, workload());
  net.run();
  const auto& samples = observed.samples();
  // 8 days / 0.5-day units -> 16 boundaries, the final one may exceed
  // the trace end and be skipped.
  EXPECT_GE(samples.size(), 14u);
  EXPECT_LE(samples.size(), 16u);
  for (std::size_t i = 1; i < samples.size(); ++i) {
    EXPECT_GT(samples[i].time, samples[i - 1].time);
    EXPECT_EQ(samples[i].unit, samples[i - 1].unit + 1);
  }
}

TEST(ObservedRouter, CumulativeCountersMonotone) {
  const auto trace = relay_chain_trace(10.0);
  ObservedRouter observed(routing::make_router("DTN-FLOW"));
  net::Network net(trace, observed, workload());
  net.run();
  const auto& samples = observed.samples();
  ASSERT_GE(samples.size(), 3u);
  for (std::size_t i = 1; i < samples.size(); ++i) {
    EXPECT_GE(samples[i].generated, samples[i - 1].generated);
    EXPECT_GE(samples[i].delivered, samples[i - 1].delivered);
    EXPECT_GE(samples[i].dropped_ttl, samples[i - 1].dropped_ttl);
  }
  EXPECT_GT(samples.back().generated, 0u);
}

TEST(ObservedRouter, StationBacklogOnlyForStationRouters) {
  const auto trace = relay_chain_trace(8.0);
  ObservedRouter direct(routing::make_router("Direct"));
  net::Network net(trace, direct, workload());
  net.run();
  for (const auto& s : direct.samples()) {
    EXPECT_EQ(s.station_backlog_total, 0u);  // no stations in use
  }
  EXPECT_FALSE(direct.uses_stations());
  EXPECT_EQ(direct.name(), "Direct");
}

TEST(ObservedRouter, ForwardsFaultHooksUnchanged) {
  // Overlapping outages of the two middle stations while the relay
  // chain's packets are in flight: the router reroutes around them and
  // counts what it saw, so a wrapper that drops the fault hooks shows.
  const auto trace = relay_chain_trace(8.0);
  net::WorkloadConfig cfg = relay_chain_workload();
  sim::FaultPlan plan;
  plan.station_outages.push_back({1, 4.05 * kDay, 4.6 * kDay});
  plan.station_outages.push_back({2, 4.3 * kDay, 4.9 * kDay});
  cfg.faults = plan;

  const auto plain_router = routing::make_router("DTN-FLOW");
  net::Network plain(trace, *plain_router, cfg);
  plain.run();

  ObservedRouter observed(routing::make_router("DTN-FLOW"));
  net::Network wrapped(trace, observed, cfg);
  wrapped.run();

  EXPECT_EQ(plain.counters().station_outages, 2u);
  EXPECT_TRUE(plain.counters() == wrapped.counters());
  const auto& plain_diag =
      dynamic_cast<const core::DtnFlowRouter&>(*plain_router).diagnostics();
  const auto& wrapped_diag =
      dynamic_cast<const core::DtnFlowRouter&>(observed.inner()).diagnostics();
  EXPECT_EQ(plain_diag.station_outages_seen, 2u);
  EXPECT_TRUE(plain_diag == wrapped_diag);
}

// A router whose audit always fails.
class FailingAudit final : public net::Router {
 public:
  [[nodiscard]] std::string name() const override { return "FailingAudit"; }
  void audit(const net::Network& /*net*/,
             sim::AuditReport& report) const override {
    report.fail("inner router audited");
  }
};

TEST(ObservedRouter, ForwardsTheRouterAudit) {
  const auto trace = relay_chain_trace(2.0);
  ObservedRouter observed(std::make_unique<FailingAudit>());
  net::Network net(trace, observed, workload());
  sim::AuditReport report;
  net.audit(report);
  EXPECT_NE(report.to_string().find("inner router audited"),
            std::string::npos)
      << report.to_string();
}

}  // namespace
}  // namespace dtn::metrics
