// §IV-D.5 communication scheduling: the landmark channel alternates
// between uploading and forwarding modes by the ratio of station-held
// packets to packets on connected nodes, with B_up bounding uploads.
#include <gtest/gtest.h>

#include "core/dtn_flow_router.hpp"
#include "net/network.hpp"
#include "test_helpers.hpp"

namespace dtn::core {
namespace {

using dtn::testing::relay_chain_trace;
using net::Network;
using net::WorkloadConfig;
using trace::kDay;
using trace::kMinute;

WorkloadConfig quiet() {
  WorkloadConfig cfg;
  cfg.packets_per_landmark_per_day = 0.0;
  cfg.warmup_fraction = 0.0;
  cfg.time_unit = 0.5 * kDay;
  cfg.node_memory_kb = 200;
  cfg.ttl = 2.0 * kDay;
  return cfg;
}

TEST(Scheduling, StillDeliversAlongChain) {
  const auto trace = relay_chain_trace(10.0);
  DtnFlowConfig rc;
  rc.scheduled_communication = true;
  DtnFlowRouter router(rc);
  auto cfg = quiet();
  cfg.manual_packets = {{0, 3, 5.0 * kDay, 0.0}};
  Network net(trace, router, cfg);
  net.run();
  net.validate_invariants();
  EXPECT_EQ(net.counters().delivered, 1u);
}

TEST(Scheduling, UploadCapBoundsPerArrivalUploads) {
  // A carrier holding many packets may only upload B_up = 50 per
  // association in uploading mode.
  const auto trace = relay_chain_trace(10.0);
  DtnFlowConfig rc;
  rc.scheduled_communication = true;
  DtnFlowRouter router(rc);
  auto cfg = quiet();
  // 120 packets from L0 to L2 generated in one of node 0's L0 windows:
  // node 0 carries them all to L1 but may only upload 50 per visit.
  for (int i = 0; i < 120; ++i) {
    cfg.manual_packets.push_back(
        {0, 2, 5.0 * kDay + kMinute + i * 10.0, 0.0});
  }
  Network net(trace, router, cfg);
  net.run();
  net.validate_invariants();
  // Deliveries trickle in over several shuttle cycles instead of one:
  // at most 50 packets can land at L1 per node-0 visit, so the spread
  // between first and last delivery spans multiple 2 h periods.
  const auto& delays = net.counters().delivery_delays;
  ASSERT_GE(delays.size(), 101u);
  const auto [min_it, max_it] =
      std::minmax_element(delays.begin(), delays.end());
  EXPECT_GT(*max_it - *min_it, 3.0 * 3600.0);
}

TEST(Scheduling, ModeRespondsToBacklogRatio) {
  // Observe the mode of the middle landmark: with a station piled full
  // of packets and empty-handed visitors it must be in forwarding mode.
  const auto trace = relay_chain_trace(12.0);
  DtnFlowConfig rc;
  rc.scheduled_communication = true;
  DtnFlowRouter router(rc);
  auto cfg = quiet();
  cfg.node_memory_kb = 2;  // tiny carriers: station backlog builds at L1
  for (int i = 0; i < 60; ++i) {
    cfg.manual_packets.push_back(
        {0, 3, 4.0 * kDay + i * 5.0 * kMinute, 0.0});
  }
  Network net(trace, router, cfg);
  net.run();
  // After the run L1 accumulated a backlog (node buffers hold 2):
  // its channel must have switched to forwarding mode.
  if (net.station_packets(1).size() > 4) {
    EXPECT_FALSE(router.landmark_uploading_mode(1));
  }
  // L3 never stores packets (it is the destination): stays uploading.
  EXPECT_TRUE(router.landmark_uploading_mode(3));
}

TEST(Scheduling, ComparableSuccessToUnscheduled) {
  // The scheduler reorders service but must not break routing: success
  // stays within a reasonable band of the unscheduled variant.
  const auto trace = relay_chain_trace(14.0);
  auto cfg = quiet();
  cfg.node_memory_kb = 10;
  for (int i = 0; i < 100; ++i) {
    cfg.manual_packets.push_back(
        {0, 3, 4.0 * kDay + i * 10.0 * kMinute, 0.0});
  }
  auto run_with = [&](bool scheduled) {
    DtnFlowConfig rc;
    rc.scheduled_communication = scheduled;
    DtnFlowRouter router(rc);
    Network net(trace, router, cfg);
    net.run();
    return net.counters().delivered;
  };
  const auto unscheduled = run_with(false);
  const auto scheduled = run_with(true);
  EXPECT_GT(scheduled, unscheduled / 2);
}

}  // namespace
}  // namespace dtn::core
