// DTN-FLOW configuration-variant conformance: every meaningful
// combination of the §IV options must keep the network invariants and
// deliver on a friendly workload.
#include <gtest/gtest.h>

#include "core/dtn_flow_router.hpp"
#include "net/network.hpp"
#include "test_helpers.hpp"
#include "trace/campus_generator.hpp"

namespace dtn::core {
namespace {

using dtn::testing::relay_chain_trace;
using net::Network;
using net::WorkloadConfig;
using trace::kDay;

struct Variant {
  const char* label;
  DtnFlowConfig config;
};

std::vector<Variant> variants() {
  std::vector<Variant> out;
  out.push_back({"default", {}});
  {
    DtnFlowConfig c;
    c.direct_delivery = false;
    c.refine_carrier_selection = false;
    out.push_back({"bare", c});
  }
  {
    DtnFlowConfig c;
    c.predictor_order = 2;
    out.push_back({"order2", c});
  }
  {
    DtnFlowConfig c;
    c.predictor_order = 3;
    c.bandwidth_rho = 1.0;
    out.push_back({"order3-rho1", c});
  }
  {
    DtnFlowConfig c;
    c.dead_end_prevention = true;
    c.loop_correction = true;
    c.load_balancing = true;
    out.push_back({"all-extensions", c});
  }
  {
    DtnFlowConfig c;
    c.scheduled_communication = true;
    out.push_back({"scheduled", c});
  }
  {
    DtnFlowConfig c;
    c.distributed_bandwidth = true;
    out.push_back({"distributed-bw", c});
  }
  {
    DtnFlowConfig c;
    c.node_to_node_relay = true;
    out.push_back({"hybrid-relay", c});
  }
  {
    DtnFlowConfig c;
    c.dv_exchange_every = 8;
    out.push_back({"thinned-dv", c});
  }
  {
    DtnFlowConfig c;
    c.dead_end_prevention = true;
    c.loop_correction = true;
    c.load_balancing = true;
    c.scheduled_communication = true;
    c.distributed_bandwidth = true;
    c.node_to_node_relay = true;
    c.dv_exchange_every = 2;
    out.push_back({"everything", c});
  }
  return out;
}

class DtnFlowVariantTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(DtnFlowVariantTest, DeliversOnRelayChain) {
  const auto variant = variants()[GetParam()];
  const auto trace = relay_chain_trace(12.0);
  DtnFlowRouter router(variant.config);
  WorkloadConfig cfg;
  cfg.packets_per_landmark_per_day = 0.0;
  cfg.warmup_fraction = 0.0;
  cfg.time_unit = 0.5 * kDay;
  cfg.node_memory_kb = 50;
  cfg.ttl = 3.0 * kDay;
  cfg.manual_packets = {{0, 3, 6.0 * kDay, 0.0}, {3, 0, 6.5 * kDay, 0.0}};
  Network net(trace, router, cfg);
  net.run();
  net.validate_invariants();
  EXPECT_EQ(net.counters().delivered, 2u) << variant.label;
}

TEST_P(DtnFlowVariantTest, InvariantsOnCampusWorkload) {
  const auto variant = variants()[GetParam()];
  trace::CampusTraceConfig tc;
  tc.num_nodes = 24;
  tc.num_landmarks = 10;
  tc.num_communities = 4;
  tc.days = 10.0;
  tc.add_default_holiday = false;
  tc.seed = 13;
  const auto trace = generate_campus_trace(tc);
  DtnFlowRouter router(variant.config);
  WorkloadConfig cfg;
  cfg.packets_per_landmark_per_day = 10.0;
  cfg.warmup_fraction = 0.25;
  cfg.time_unit = 0.5 * kDay;
  cfg.node_memory_kb = 40;
  cfg.ttl = 3.0 * kDay;
  Network net(trace, router, cfg);
  net.run();
  net.validate_invariants();
  EXPECT_GT(net.counters().generated, 100u) << variant.label;
  EXPECT_GT(net.counters().delivered, net.counters().generated / 4)
      << variant.label;
}

INSTANTIATE_TEST_SUITE_P(Variants, DtnFlowVariantTest,
                         ::testing::Range<std::size_t>(0, 10));

}  // namespace
}  // namespace dtn::core
