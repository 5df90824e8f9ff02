#include "net/network.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace dtn::net {
namespace {

using trace::kDay;
using trace::Visit;

// Records every callback and optionally performs scripted transfers.
class RecordingRouter : public Router {
 public:
  struct Event {
    std::string kind;
    std::uint32_t a = 0;
    std::uint32_t b = 0;
    double time = 0.0;
  };

  [[nodiscard]] std::string name() const override { return "Recorder"; }
  [[nodiscard]] bool uses_stations() const override { return stations; }

  void on_arrival(Network& net, NodeId node, LandmarkId l) override {
    events.push_back({"arrive", node, l, net.now()});
    if (pickup_on_arrival) {
      const auto origin = net.origin_packets(l);
      const std::vector<PacketId> waiting(origin.begin(), origin.end());
      for (const PacketId pid : waiting) {
        (void)net.pickup_from_origin(node, pid);
      }
    }
  }
  void on_departure(Network& net, NodeId node, LandmarkId l) override {
    events.push_back({"depart", node, l, net.now()});
  }
  void on_contact(Network& net, NodeId arriving, NodeId present,
                  LandmarkId l) override {
    (void)l;
    events.push_back({"contact", arriving, present, net.now()});
  }
  void on_packet_generated(Network& net, PacketId pid) override {
    events.push_back({"packet", pid, net.packet(pid).src, net.now()});
  }
  void on_time_unit(Network& net, std::size_t unit) override {
    events.push_back({"unit", static_cast<std::uint32_t>(unit), 0, net.now()});
  }

  std::vector<Event> events;
  bool pickup_on_arrival = false;
  bool stations = false;
};

// Node 0: L0[0,10] -> L1[20,30] -> L2[40,50];
// Node 1: L0[5,12] -> L2[20,35].
trace::Trace script_trace() {
  trace::Trace t(2, 3);
  t.add_visit({0, 0, 0.0, 10.0});
  t.add_visit({0, 1, 20.0, 30.0});
  t.add_visit({0, 2, 40.0, 50.0});
  t.add_visit({1, 0, 5.0, 12.0});
  t.add_visit({1, 2, 20.0, 35.0});
  t.finalize();
  return t;
}

WorkloadConfig quiet_workload() {
  WorkloadConfig cfg;
  cfg.packets_per_landmark_per_day = 0.0;
  cfg.warmup_fraction = 0.0;
  cfg.time_unit = 100.0;
  cfg.node_memory_kb = 10;
  cfg.ttl = 1000.0;
  return cfg;
}

TEST(Network, ReplaysArrivalsAndDepartures) {
  const auto trace = script_trace();
  RecordingRouter router;
  Network net(trace, router, quiet_workload());
  net.run();
  std::vector<std::string> kinds;
  for (const auto& e : router.events) kinds.push_back(e.kind);
  // t=0 arrive(0,L0); t=5 arrive(1,L0) + contact(1,0); t=10 depart(0);
  // t=12 depart(1); t=20 arrive both (insertion order: node 0 first);
  // t=30/35 departs; t=40 arrive; t=50 depart.
  const std::vector<std::string> expected = {
      "arrive", "arrive", "contact", "depart", "depart",
      "arrive", "arrive", "depart",  "depart", "arrive", "depart"};
  EXPECT_EQ(kinds, expected);
}

TEST(Network, ContactPairIsArrivingThenPresent) {
  const auto trace = script_trace();
  RecordingRouter router;
  Network net(trace, router, quiet_workload());
  net.run();
  const auto it = std::find_if(router.events.begin(), router.events.end(),
                               [](const auto& e) { return e.kind == "contact"; });
  ASSERT_NE(it, router.events.end());
  EXPECT_EQ(it->a, 1u);  // node 1 arrives
  EXPECT_EQ(it->b, 0u);  // node 0 already present
  EXPECT_DOUBLE_EQ(it->time, 5.0);
}

TEST(Network, LocationAndPresenceTracking) {
  const auto trace = script_trace();
  class Probe : public RecordingRouter {
   public:
    void on_arrival(Network& net, NodeId node, LandmarkId l) override {
      RecordingRouter::on_arrival(net, node, l);
      EXPECT_EQ(net.location(node), l);
      const auto at = net.nodes_at(l);
      EXPECT_NE(std::find(at.begin(), at.end(), node), at.end());
    }
    void on_departure(Network& net, NodeId node, LandmarkId l) override {
      RecordingRouter::on_departure(net, node, l);
      EXPECT_EQ(net.location(node), l);  // still present during callback
    }
  } router;
  Network net(trace, router, quiet_workload());
  net.run();
  EXPECT_EQ(net.location(0), trace::kNoLandmark);
}

TEST(Network, HistoryGrowsWithCompletedVisits) {
  const auto trace = script_trace();
  RecordingRouter router;
  Network net(trace, router, quiet_workload());
  net.run();
  const auto h0 = net.history(0);
  ASSERT_EQ(h0.size(), 3u);
  EXPECT_EQ(h0[0].landmark, 0u);
  EXPECT_EQ(h0[1].landmark, 1u);
  EXPECT_EQ(h0[2].landmark, 2u);
  EXPECT_EQ(net.previous_landmark(0), 2u);
}

TEST(Network, ManualPacketGeneratedAtOrigin) {
  const auto trace = script_trace();
  RecordingRouter router;  // no station use
  auto cfg = quiet_workload();
  cfg.manual_packets = {{0, 2, 1.0, 0.0}};
  Network net(trace, router, cfg);
  net.run();
  EXPECT_EQ(net.counters().generated, 1u);
  const Packet& p = net.packet(0);
  EXPECT_EQ(p.src, 0u);
  EXPECT_EQ(p.dst, 2u);
  EXPECT_DOUBLE_EQ(p.created, 1.0);
  // Nobody picked it up: still waiting at the origin.
  EXPECT_EQ(p.state, PacketState::kAtOrigin);
  EXPECT_EQ(net.origin_packets(0).size(), 1u);
}

TEST(Network, PickupAndAutoDelivery) {
  const auto trace = script_trace();
  RecordingRouter router;
  router.pickup_on_arrival = true;
  auto cfg = quiet_workload();
  // Generated at L0 at t=1 for L2; node 1 is at L0 (5..12), carries it
  // and arrives at L2 at t=20: delivered with delay 19.
  cfg.manual_packets = {{0, 2, 1.0, 0.0}};
  Network net(trace, router, cfg);
  net.run();
  EXPECT_EQ(net.counters().delivered, 1u);
  const Packet& p = net.packet(0);
  EXPECT_EQ(p.state, PacketState::kDelivered);
  EXPECT_DOUBLE_EQ(p.delivered_at, 20.0);
  ASSERT_EQ(net.counters().delivery_delays.size(), 1u);
  EXPECT_DOUBLE_EQ(net.counters().delivery_delays[0], 19.0);
  // Pickup + delivery handover = 2 forwarding operations.
  EXPECT_EQ(net.counters().packet_forwards, 2u);
}

TEST(Network, StationModeGeneratesAtStation) {
  const auto trace = script_trace();
  RecordingRouter router;
  router.stations = true;
  auto cfg = quiet_workload();
  cfg.manual_packets = {{1, 2, 0.5, 0.0}};
  Network net(trace, router, cfg);
  net.run();
  const Packet& p = net.packet(0);
  EXPECT_EQ(p.state, PacketState::kAtStation);
  ASSERT_EQ(p.station_path.size(), 1u);
  EXPECT_EQ(p.station_path[0], 1u);
  EXPECT_EQ(net.station_packets(1).size(), 1u);
}

TEST(Network, TtlExpiryDropsFromOrigin) {
  const auto trace = script_trace();
  RecordingRouter router;
  auto cfg = quiet_workload();
  cfg.time_unit = 10.0;
  cfg.manual_packets = {{0, 2, 1.0, /*ttl=*/5.0}};
  Network net(trace, router, cfg);
  net.run();
  EXPECT_EQ(net.counters().dropped_ttl, 1u);
  EXPECT_EQ(net.packet(0).state, PacketState::kDroppedTtl);
  EXPECT_TRUE(net.origin_packets(0).empty());
}

TEST(Network, TtlExpiryDropsFromNodeBuffer) {
  const auto trace = script_trace();
  RecordingRouter router;
  router.pickup_on_arrival = true;
  auto cfg = quiet_workload();
  cfg.time_unit = 6.0;
  cfg.manual_packets = {{0, 1, 1.0, /*ttl=*/8.0}};  // node 1 never visits L1
  Network net(trace, router, cfg);
  net.run();
  EXPECT_EQ(net.counters().dropped_ttl, 1u);
  EXPECT_TRUE(net.node_packets(0).empty());
  EXPECT_TRUE(net.node_packets(1).empty());
}

TEST(Network, TtlSweepRetiresFromEveryHolderInIdOrder) {
  // Node 1 picks up p0, p3, p4 and p5 at L0 (t = 5); p1 waits at L2's
  // origin and p2 at L1's.  The sweep at t = 15 retires p0, p1 and p3, in id order:
  // removing p0 moves p5 into its slot, then removing p3 moves p4.
  const auto trace = script_trace();
  RecordingRouter router;
  router.pickup_on_arrival = true;
  auto cfg = quiet_workload();
  cfg.time_unit = 15.0;
  cfg.manual_packets = {{0, 1, 1.0, /*ttl=*/8.0},   {2, 0, 2.0, 8.0},
                        {1, 0, 3.0, 100.0},          {0, 2, 4.0, 7.0},
                        {0, 1, 4.2, 100.0},          {0, 1, 4.4, 100.0}};
  Network net(trace, router, cfg);
  net.run();
  EXPECT_EQ(net.counters().dropped_ttl, 3u);
  for (const PacketId pid : {0u, 1u, 3u}) {
    EXPECT_EQ(net.packet(pid).state, PacketState::kDroppedTtl) << pid;
  }
  const auto held = net.node_packets(1);
  EXPECT_EQ(std::vector<PacketId>(held.begin(), held.end()),
            (std::vector<PacketId>{5, 4}));
  EXPECT_TRUE(net.origin_packets(2).empty());
  // p2 outlives the sweep at L1's origin; node 0 picks it up at t = 20.
  EXPECT_EQ(net.packet(2).state, PacketState::kOnNode);
}

TEST(Network, NodeToNodeTransfer) {
  const auto trace = script_trace();
  class Forwarder : public RecordingRouter {
   public:
    void on_contact(Network& net, NodeId arriving, NodeId present,
                    LandmarkId l) override {
      RecordingRouter::on_contact(net, arriving, present, l);
      // Hand everything from the present node to the arriving node.
      const auto carried = net.node_packets(present);
      const std::vector<PacketId> pids(carried.begin(), carried.end());
      for (const PacketId pid : pids) {
        EXPECT_TRUE(net.node_to_node(present, arriving, pid));
      }
    }
  } router;
  router.pickup_on_arrival = true;
  auto cfg = quiet_workload();
  cfg.manual_packets = {{0, 2, 0.5, 0.0}};
  Network net(trace, router, cfg);
  net.run();
  // Node 0 picks up at t=0.5? No: packet generated at t=0.5 while node 0
  // is present; pickup happens on *arrival* only, so node 1 (arriving at
  // t=5) picks it up... unless node 0's arrival preceded generation.
  // Node 1 carries to L2 at t=20: delivered.
  EXPECT_EQ(net.counters().delivered, 1u);
}

TEST(Network, BufferLimitsRefuseTransfers) {
  const auto trace = script_trace();
  RecordingRouter router;
  router.pickup_on_arrival = true;
  auto cfg = quiet_workload();
  cfg.node_memory_kb = 1;  // room for a single 1 kB packet
  cfg.manual_packets = {{0, 2, 0.1, 0.0}, {0, 2, 0.2, 0.0}, {0, 2, 0.3, 0.0}};
  Network net(trace, router, cfg);
  net.run();
  EXPECT_GT(net.counters().refused_buffer, 0u);
  // Only one of the three can ever be carried per node.
  EXPECT_LE(net.counters().delivered, 2u);
}

TEST(Network, TimeUnitTicksFire) {
  const auto trace = script_trace();
  RecordingRouter router;
  auto cfg = quiet_workload();
  cfg.time_unit = 20.0;  // trace spans [0, 50] -> ticks at 20, 40
  Network net(trace, router, cfg);
  net.run();
  int units = 0;
  for (const auto& e : router.events) {
    if (e.kind == "unit") ++units;
  }
  EXPECT_EQ(units, 2);
}

TEST(Network, PoissonWorkloadRespectsWarmupAndRate) {
  // A long dense trace so the Poisson process has room.
  trace::Trace t(1, 2);
  for (int d = 0; d < 20; ++d) {
    t.add_visit({0, static_cast<trace::LandmarkId>(d % 2), d * kDay,
                 d * kDay + kDay / 2});
  }
  t.finalize();
  RecordingRouter router;
  WorkloadConfig cfg;
  cfg.packets_per_landmark_per_day = 10.0;
  cfg.warmup_fraction = 0.25;
  cfg.time_unit = kDay;
  cfg.seed = 11;
  Network net(t, router, cfg);
  net.run();
  // ~2 landmarks * 10/day * ~14.6 days of workload window.
  EXPECT_GT(net.counters().generated, 150u);
  EXPECT_LT(net.counters().generated, 450u);
  for (const auto& e : router.events) {
    if (e.kind == "packet") {
      EXPECT_GE(e.time, net.workload_start());
    }
  }
}

TEST(Network, DestinationWeightsSkewTraffic) {
  // Long trace so the Poisson workload has volume.
  trace::Trace t(1, 4);
  for (int d = 0; d < 40; ++d) {
    t.add_visit({0, static_cast<trace::LandmarkId>(d % 4), d * kDay,
                 d * kDay + kDay / 2});
  }
  t.finalize();
  RecordingRouter router;
  WorkloadConfig cfg;
  cfg.packets_per_landmark_per_day = 20.0;
  cfg.warmup_fraction = 0.0;
  cfg.time_unit = kDay;
  cfg.seed = 5;
  cfg.destination_weights = {10.0, 0.0, 1.0, 0.0};
  Network net(t, router, cfg);
  net.run();
  std::size_t to0 = 0, to2 = 0;
  for (const auto& p : net.all_packets()) {
    EXPECT_TRUE(p.dst == 0 || p.dst == 2) << "dst " << p.dst;
    EXPECT_NE(p.dst, p.src);
    if (p.dst == 0) ++to0;
    if (p.dst == 2) ++to2;
  }
  ASSERT_GT(net.counters().generated, 500u);
  // Expected mix: sources 1-3 send ~10/11 of their traffic to L0, but
  // everything source 0 emits goes to L2 (self excluded) — overall
  // roughly 0.70 : 0.30.
  EXPECT_GT(to0, 2 * to2);
}

TEST(Network, PacketIdsFollowGenerationOrder) {
  // Ids are handed out at birth: dense, in the order packets are
  // generated, with manual packets interleaved among the Poisson ones
  // by time.
  trace::Trace t(1, 3);
  for (int d = 0; d < 10; ++d) {
    t.add_visit({0, static_cast<trace::LandmarkId>(d % 3), d * kDay,
                 d * kDay + kDay / 2});
  }
  t.finalize();
  RecordingRouter router;
  WorkloadConfig cfg;
  cfg.packets_per_landmark_per_day = 3.0;
  cfg.warmup_fraction = 0.1;
  cfg.time_unit = kDay;
  cfg.seed = 5;
  cfg.manual_packets = {{2, 0, 7.25 * kDay, 0.0}, {0, 1, 3.5 * kDay, 0.0}};
  Network net(t, router, cfg);
  net.run();

  std::vector<PacketId> order;
  for (const auto& e : router.events) {
    if (e.kind == "packet") order.push_back(e.a);
  }
  ASSERT_GT(order.size(), 20u);
  ASSERT_EQ(order.size(), net.counters().generated);
  ASSERT_EQ(net.all_packets().size(), order.size());
  int manual_seen = 0;
  for (std::size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(order[i], i);
    if (i > 0) {
      EXPECT_GE(net.packet(order[i]).created, net.packet(order[i - 1]).created);
    }
    const double created = net.packet(order[i]).created;
    if (created == 7.25 * kDay || created == 3.5 * kDay) ++manual_seen;
  }
  EXPECT_EQ(manual_seen, 2);
}

TEST(Network, DeliveryHopsRecorded) {
  const auto trace = script_trace();
  RecordingRouter router;
  router.pickup_on_arrival = true;
  auto cfg = quiet_workload();
  cfg.manual_packets = {{0, 2, 1.0, 0.0}};
  Network net(trace, router, cfg);
  net.run();
  ASSERT_EQ(net.counters().delivery_hops.size(), 1u);
  EXPECT_EQ(net.counters().delivery_hops[0], 2u);  // pickup + handover
}

TEST(Network, DeterministicAcrossRuns) {
  const auto trace = script_trace();
  auto run_once = [&] {
    RecordingRouter router;
    router.pickup_on_arrival = true;
    auto cfg = quiet_workload();
    cfg.manual_packets = {{0, 2, 1.0, 0.0}};
    Network net(trace, router, cfg);
    net.run();
    return net.counters().packet_forwards;
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace dtn::net
