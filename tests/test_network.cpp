#include "net/network.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <ostream>
#include <string>
#include <utility>
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


// -- transfer rules -------------------------------------------------------
//
// Every transfer passes the same gate before it moves anything: a lapsed
// TTL retires the packet, a copy of a delivered logical retires as
// suppressed, a down endpoint blocks, an injected break interrupts.  A
// transfer that passes hands the packet to a receiver that is its
// destination node on the spot, else admits it into the target store.
// The suite pins each rule's return value, packet state and counter
// deltas, transfer by transfer.

enum class Transfer {
  kPickup,
  kStationToNode,
  kNodeToStation,
  kNodeToNode,
  kReplicate
};
enum class Case {
  kMoves,
  kExpired,
  kDeliveredCopy,         // another copy of the logical was delivered
  kDeliveredExpiredCopy,  // ... and this copy's TTL lapsed too
  kNodeDown,
  kStationDown,
  kTargetFull,
  kDedup,
  kToDstNode,  // the receiver is the packet's destination node
  kInterrupted,
  kMovesAfterRecovery,
};

// Node and landmark roles of the transfer trace.  Everything happens at
// landmark kHere; kCourier carries a copy to kThere, the packet's
// destination; kClock's arrivals at kElsewhere only mark time.
constexpr NodeId kClock = 0, kA = 1, kB = 2, kCourier = 3, kDstNode = 4;
constexpr LandmarkId kHere = 0, kThere = 1, kElsewhere = 2;
constexpr double kActAt = 10.0;

trace::Trace transfer_trace() {
  trace::Trace t(5, 3);
  t.add_visit({kClock, kElsewhere, kActAt, kActAt + 1.0});
  t.add_visit({kA, kHere, 0.0, 100.0});
  t.add_visit({kB, kHere, 1.0, 100.0});
  t.add_visit({kCourier, kHere, 2.0, 2.5});
  t.add_visit({kCourier, kThere, 3.0, 100.0});
  t.add_visit({kDstNode, kHere, 3.2, 100.0});
  t.finalize();
  return t;
}

// Runs each scripted step on the arrival at its time (every arrival of
// the transfer trace has its own time).
class ScriptRouter : public Router {
 public:
  [[nodiscard]] std::string name() const override { return "Script"; }
  [[nodiscard]] bool uses_stations() const override { return stations; }
  void on_arrival(Network& net, NodeId node, LandmarkId l) override {
    (void)node;
    (void)l;
    for (const auto& [time, step] : steps) {
      if (time == net.now()) step(net);
    }
  }

  bool stations = true;
  std::vector<std::pair<double, std::function<void(Network&)>>> steps;
};

struct Deltas {
  std::uint64_t dropped_ttl = 0;
  std::uint64_t suppressed = 0;
  std::uint64_t blocked = 0;
  std::uint64_t interrupted = 0;
  std::uint64_t refused_buffer = 0;
  std::uint64_t dedup_refused = 0;
  std::uint64_t forwards = 0;
  std::uint64_t replications = 0;
  std::uint64_t delivered = 0;

  friend bool operator==(const Deltas&, const Deltas&) = default;
  friend std::ostream& operator<<(std::ostream& os, const Deltas& d) {
    return os << "{ttl " << d.dropped_ttl << ", suppressed " << d.suppressed
              << ", blocked " << d.blocked << ", interrupted "
              << d.interrupted << ", refused " << d.refused_buffer
              << ", dedup " << d.dedup_refused << ", forwards " << d.forwards
              << ", replications " << d.replications << ", delivered "
              << d.delivered << "}";
  }
};

Deltas operator-(const RunCounters& after, const RunCounters& before) {
  return {after.dropped_ttl - before.dropped_ttl,
          after.duplicates_suppressed - before.duplicates_suppressed,
          after.transfers_blocked_fault - before.transfers_blocked_fault,
          after.transfers_interrupted - before.transfers_interrupted,
          after.refused_buffer - before.refused_buffer,
          after.dedup_refused - before.dedup_refused,
          after.packet_forwards - before.packet_forwards,
          after.replications - before.replications,
          after.delivered - before.delivered};
}

struct Outcome {
  bool moved = false;
  /// The packet the transfer left behind: the new copy when a
  /// replication made one, else packet 0.
  PacketState state = PacketState::kAtOrigin;
  std::uint32_t holder = 0;
  std::uint32_t hops = 0;
  Deltas deltas;
  std::vector<double> recovery_delays;
};

// Packet 0 is generated at kHere for kThere, placed at the transfer's
// source by t = 2 and handed to the transfer under test at kActAt.
Outcome run_transfer(Transfer transfer, Case c) {
  const auto trace = transfer_trace();
  ScriptRouter router;
  router.stations = transfer != Transfer::kPickup;
  auto cfg = quiet_workload();
  cfg.time_unit = 1000.0;  // no TTL sweep: only the gate retires packets
  WorkloadConfig::ManualPacket packet{kHere, kThere, 0.5, 0.0};
  if (c == Case::kExpired || c == Case::kDeliveredExpiredCopy) {
    packet.ttl = 5.0;  // lapses at 5.5
  }
  if (c == Case::kToDstNode) packet.dst_node = kDstNode;
  cfg.manual_packets = {packet};
  const bool from_node = transfer == Transfer::kNodeToStation ||
                         transfer == Transfer::kNodeToNode ||
                         transfer == Transfer::kReplicate;
  const NodeId receiver = c == Case::kToDstNode ? kDstNode : kB;

  sim::FaultPlan plan;
  plan.crash_buffer_loss = 0.0;
  switch (c) {
    case Case::kNodeDown:
      plan.node_crashes = {
          {transfer == Transfer::kNodeToStation ? kA : kB, 8.0, 10.0}};
      break;
    case Case::kStationDown:
      plan.station_outages = {{kHere, 8.0, 12.0}};
      break;
    case Case::kMovesAfterRecovery:
      plan.station_outages = {{kHere, 5.0, 8.0}};
      break;
    case Case::kToDstNode:
      // The destination node arrives crashed, so the arrival handover
      // misses the packet and the transfer under test meets it.
      plan.node_crashes = {{kDstNode, 3.0, 0.5}};
      break;
    case Case::kInterrupted:
      plan.transfer_failure_prob = 1.0;
      break;
    default:
      break;
  }
  if (plan.any()) cfg.faults = plan;

  auto& steps = router.steps;
  const bool copied =
      c == Case::kDeliveredCopy || c == Case::kDeliveredExpiredCopy;
  if (from_node || copied) {
    steps.push_back({1.0, [c](Network& net) {
                       if (c == Case::kDedup) {
                         // kB sees the logical before passing it to kA.
                         ASSERT_TRUE(net.station_to_node(kHere, kB, 0));
                         ASSERT_TRUE(net.node_to_node(kB, kA, 0));
                       } else {
                         ASSERT_TRUE(net.station_to_node(kHere, kA, 0));
                       }
                     }});
  }
  if (copied) {
    // The courier takes a copy to kThere, where it is delivered on
    // arrival at t = 3; the station transfer starts from the station
    // again.
    steps.push_back({2.0, [transfer](Network& net) {
                       ASSERT_NE(net.replicate_node_to_node(kA, kCourier, 0),
                                 kNoPacket);
                       if (transfer == Transfer::kStationToNode) {
                         ASSERT_TRUE(net.node_to_station(kA, 0));
                       }
                     }});
  }
  if (c == Case::kDedup) cfg.store.dedup = true;
  if (c == Case::kTargetFull) {
    cfg.node_memory_kb = 1;
    if (transfer == Transfer::kNodeToStation) {
      // A station of one slot, filled once packet 0 left it.
      cfg.store.station_memory_kb = 1;
      cfg.manual_packets.push_back({kHere, kThere, 1.5, 0.0});
    } else {
      cfg.manual_packets.push_back({kHere, kThere, 0.6, 0.0});
      steps.push_back({1.0, [transfer](Network& net) {
                         ASSERT_TRUE(transfer == Transfer::kPickup
                                         ? net.pickup_from_origin(kB, 1)
                                         : net.station_to_node(kHere, kB, 1));
                       }});
    }
  }

  Outcome out;
  steps.push_back({kActAt, [&](Network& net) {
                     const RunCounters before = net.counters();
                     PacketId subject = 0;
                     switch (transfer) {
                       case Transfer::kPickup:
                         out.moved = net.pickup_from_origin(receiver, 0);
                         break;
                       case Transfer::kStationToNode:
                         out.moved = net.station_to_node(kHere, receiver, 0);
                         break;
                       case Transfer::kNodeToStation:
                         out.moved = net.node_to_station(kA, 0);
                         break;
                       case Transfer::kNodeToNode:
                         out.moved = net.node_to_node(kA, receiver, 0);
                         break;
                       case Transfer::kReplicate: {
                         const PacketId copy =
                             net.replicate_node_to_node(kA, receiver, 0);
                         out.moved = copy != kNoPacket;
                         if (out.moved) subject = copy;
                         break;
                       }
                     }
                     out.deltas = net.counters() - before;
                     const Packet& p = net.packet(subject);
                     out.state = p.state;
                     out.holder = p.holder;
                     out.hops = p.hops;
                   }});
  Network net(trace, router, cfg);
  net.run();
  out.recovery_delays = net.counters().outage_recovery_delays;
  net.validate_invariants();
  return out;
}

struct Expected {
  bool moved;
  PacketState state;
  std::uint32_t holder;
  std::uint32_t hops;
  Deltas deltas;
};

void expect_transfer(Transfer transfer, Case c, const Expected& want) {
  SCOPED_TRACE("case " + std::to_string(static_cast<int>(c)));
  const Outcome got = run_transfer(transfer, c);
  EXPECT_EQ(got.moved, want.moved);
  EXPECT_EQ(got.state, want.state);
  EXPECT_EQ(got.holder, want.holder);
  EXPECT_EQ(got.hops, want.hops);
  EXPECT_EQ(got.deltas, want.deltas);
}

using PS = PacketState;

// An origin packet is never copied, so its logical cannot have been
// delivered while it waits: the delivered-copy cases do not apply.
TEST(NetworkTransfer, PickupFromOrigin) {
  const auto t = Transfer::kPickup;
  expect_transfer(t, Case::kMoves,
                  {true, PS::kOnNode, kB, 1, {.forwards = 1}});
  expect_transfer(t, Case::kExpired,
                  {false, PS::kDroppedTtl, kHere, 0, {.dropped_ttl = 1}});
  expect_transfer(t, Case::kNodeDown,
                  {false, PS::kAtOrigin, kHere, 0, {.blocked = 1}});
  expect_transfer(t, Case::kTargetFull,
                  {false, PS::kAtOrigin, kHere, 0, {.refused_buffer = 1}});
  expect_transfer(t, Case::kToDstNode,
                  {true, PS::kDelivered, kHere, 1,
                   {.forwards = 1, .delivered = 1}});
  expect_transfer(t, Case::kInterrupted,
                  {false, PS::kAtOrigin, kHere, 0, {.interrupted = 1}});
}

TEST(NetworkTransfer, StationToNode) {
  const auto t = Transfer::kStationToNode;
  expect_transfer(t, Case::kMoves,
                  {true, PS::kOnNode, kB, 1, {.forwards = 1}});
  expect_transfer(t, Case::kExpired,
                  {false, PS::kDroppedTtl, kHere, 0, {.dropped_ttl = 1}});
  // Back at the station after a round trip through kA: two hops.
  expect_transfer(t, Case::kDeliveredCopy,
                  {false, PS::kObsoleteCopy, kHere, 2, {.suppressed = 1}});
  expect_transfer(t, Case::kDeliveredExpiredCopy,
                  {false, PS::kObsoleteCopy, kHere, 2, {}});
  expect_transfer(t, Case::kNodeDown,
                  {false, PS::kAtStation, kHere, 0, {.blocked = 1}});
  expect_transfer(t, Case::kStationDown,
                  {false, PS::kAtStation, kHere, 0, {.blocked = 1}});
  expect_transfer(t, Case::kTargetFull,
                  {false, PS::kAtStation, kHere, 0, {.refused_buffer = 1}});
  expect_transfer(t, Case::kToDstNode,
                  {true, PS::kDelivered, kHere, 1,
                   {.forwards = 1, .delivered = 1}});
  expect_transfer(t, Case::kInterrupted,
                  {false, PS::kAtStation, kHere, 0, {.interrupted = 1}});
}

TEST(NetworkTransfer, NodeToStation) {
  const auto t = Transfer::kNodeToStation;
  expect_transfer(t, Case::kMoves,
                  {true, PS::kAtStation, kHere, 2, {.forwards = 1}});
  expect_transfer(t, Case::kExpired,
                  {false, PS::kDroppedTtl, kA, 1, {.dropped_ttl = 1}});
  expect_transfer(t, Case::kDeliveredCopy,
                  {false, PS::kObsoleteCopy, kA, 1, {.suppressed = 1}});
  expect_transfer(t, Case::kDeliveredExpiredCopy,
                  {false, PS::kObsoleteCopy, kA, 1, {}});
  expect_transfer(t, Case::kNodeDown,
                  {false, PS::kOnNode, kA, 1, {.blocked = 1}});
  expect_transfer(t, Case::kStationDown,
                  {false, PS::kOnNode, kA, 1, {.blocked = 1}});
  expect_transfer(t, Case::kTargetFull,
                  {false, PS::kOnNode, kA, 1, {.refused_buffer = 1}});
  // The destination node is at this landmark: delivered on the spot.
  expect_transfer(t, Case::kToDstNode,
                  {true, PS::kDelivered, kA, 2,
                   {.forwards = 1, .delivered = 1}});
}

TEST(NetworkTransfer, NodeToNode) {
  const auto t = Transfer::kNodeToNode;
  expect_transfer(t, Case::kMoves,
                  {true, PS::kOnNode, kB, 2, {.forwards = 1}});
  expect_transfer(t, Case::kExpired,
                  {false, PS::kDroppedTtl, kA, 1, {.dropped_ttl = 1}});
  expect_transfer(t, Case::kDeliveredCopy,
                  {false, PS::kObsoleteCopy, kA, 1, {.suppressed = 1}});
  expect_transfer(t, Case::kDeliveredExpiredCopy,
                  {false, PS::kObsoleteCopy, kA, 1, {}});
  expect_transfer(t, Case::kNodeDown,
                  {false, PS::kOnNode, kA, 1, {.blocked = 1}});
  expect_transfer(t, Case::kTargetFull,
                  {false, PS::kOnNode, kA, 1, {.refused_buffer = 1}});
  expect_transfer(t, Case::kDedup,
                  {false, PS::kOnNode, kA, 2, {.dedup_refused = 1}});
  expect_transfer(t, Case::kToDstNode,
                  {true, PS::kDelivered, kA, 2,
                   {.forwards = 1, .delivered = 1}});
}

// Replication checks suppression before expiry: an expired copy of a
// delivered logical counts as suppressed here, while the other transfers
// retire it uncounted.  A copy made for the destination node is not a
// delivery.
TEST(NetworkTransfer, ReplicateNodeToNode) {
  const auto t = Transfer::kReplicate;
  expect_transfer(t, Case::kMoves,
                  {true, PS::kOnNode, kB, 2,
                   {.forwards = 1, .replications = 1}});
  expect_transfer(t, Case::kExpired,
                  {false, PS::kDroppedTtl, kA, 1, {.dropped_ttl = 1}});
  expect_transfer(t, Case::kDeliveredCopy,
                  {false, PS::kObsoleteCopy, kA, 1, {.suppressed = 1}});
  expect_transfer(t, Case::kDeliveredExpiredCopy,
                  {false, PS::kObsoleteCopy, kA, 1, {.suppressed = 1}});
  expect_transfer(t, Case::kNodeDown,
                  {false, PS::kOnNode, kA, 1, {.blocked = 1}});
  expect_transfer(t, Case::kTargetFull,
                  {false, PS::kOnNode, kA, 1, {.refused_buffer = 1}});
  expect_transfer(t, Case::kDedup,
                  {false, PS::kOnNode, kA, 2, {.dedup_refused = 1}});
  expect_transfer(t, Case::kToDstNode,
                  {true, PS::kOnNode, kDstNode, 2,
                   {.forwards = 1, .replications = 1}});
}

TEST(NetworkTransfer, OnlyStationTransfersCloseARecoveryMeasurement) {
  // kHere's station recovers at t = 8; the transfer at t = 10 closes
  // the measurement only if the station takes part.
  for (const Transfer t : {Transfer::kStationToNode, Transfer::kNodeToStation}) {
    const Outcome got = run_transfer(t, Case::kMovesAfterRecovery);
    EXPECT_TRUE(got.moved);
    EXPECT_EQ(got.recovery_delays, std::vector<double>{2.0});
  }
  for (const Transfer t : {Transfer::kPickup, Transfer::kNodeToNode,
                           Transfer::kReplicate}) {
    const Outcome got = run_transfer(t, Case::kMovesAfterRecovery);
    EXPECT_TRUE(got.moved);
    EXPECT_TRUE(got.recovery_delays.empty());
  }
}

TEST(NetworkDeathTest, ManualPacketToAnUnknownNodeAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const auto trace = script_trace();
  RecordingRouter router;
  auto cfg = quiet_workload();
  cfg.manual_packets = {{0, 2, 1.0, 0.0, /*dst_node=*/99}};
  EXPECT_DEATH({ Network net(trace, router, cfg); }, "dst_node");
}

}  // namespace
}  // namespace dtn::net
