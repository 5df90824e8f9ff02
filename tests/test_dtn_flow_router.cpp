#include "core/dtn_flow_router.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "metrics/metrics.hpp"
#include "test_helpers.hpp"

namespace dtn::core {
namespace {

using dtn::testing::kShuttlePeriod;
using dtn::testing::relay_chain_trace;
using net::Network;
using net::WorkloadConfig;
using trace::kDay;
using trace::kHour;
using trace::kMinute;

WorkloadConfig chain_workload() {
  WorkloadConfig cfg;
  cfg.packets_per_landmark_per_day = 0.0;  // manual packets only
  cfg.warmup_fraction = 0.0;
  cfg.time_unit = 0.5 * kDay;
  cfg.node_memory_kb = 50;
  cfg.ttl = 2.0 * kDay;
  return cfg;
}

TEST(DtnFlowRouter, DeliversAlongLandmarkChain) {
  const auto trace = relay_chain_trace(10.0);
  DtnFlowRouter router;
  auto cfg = chain_workload();
  // Warm for 5 days, then a packet from L0 to L3 — deliverable only by
  // the inter-landmark flow (no two nodes ever meet).
  cfg.manual_packets = {{0, 3, 5.0 * kDay, 0.0}};
  Network net(trace, router, cfg);
  net.run();
  EXPECT_EQ(net.counters().delivered, 1u);
  const net::Packet& p = net.packet(0);
  EXPECT_EQ(p.state, net::PacketState::kDelivered);
  // Expected hop sequence: station0 -> A -> station1 -> B -> station2 ->
  // C -> delivered at L3, 5 hours end to end.
  EXPECT_NEAR(p.delivered_at - p.created, 5.0 * kHour, kMinute);
  ASSERT_GE(p.station_path.size(), 3u);
  EXPECT_EQ(p.station_path[0], 0u);
  EXPECT_EQ(p.station_path[1], 1u);
  EXPECT_EQ(p.station_path[2], 2u);
}

TEST(DtnFlowRouter, RoutingTablesConvergeOverChain) {
  const auto trace = relay_chain_trace(10.0);
  DtnFlowRouter router;
  Network net(trace, router, chain_workload());
  net.run();
  // Every landmark reaches every other; next hops follow the chain.
  for (net::LandmarkId l = 0; l < 4; ++l) {
    EXPECT_DOUBLE_EQ(router.routing_table(l).coverage(), 1.0) << "l=" << l;
  }
  EXPECT_EQ(router.routing_table(0).route(3).next, 1u);
  EXPECT_EQ(router.routing_table(0).route(1).next, 1u);
  EXPECT_EQ(router.routing_table(3).route(0).next, 2u);
  // Delay to a farther destination is strictly larger.
  EXPECT_GT(router.routing_table(0).delay_to(3),
            router.routing_table(0).delay_to(1));
}

TEST(DtnFlowRouter, BandwidthMeasuredOnChainLinksOnly) {
  const auto trace = relay_chain_trace(8.0);
  DtnFlowRouter router;
  Network net(trace, router, chain_workload());
  net.run();
  const auto& bw = router.bandwidth();
  for (net::LandmarkId i = 0; i < 4; ++i) {
    for (net::LandmarkId j = 0; j < 4; ++j) {
      if (i == j) continue;
      const bool adjacent = (i + 1 == j) || (j + 1 == i);
      if (adjacent) {
        EXPECT_GT(bw.bandwidth(i, j), 0.0) << i << "->" << j;
      } else {
        EXPECT_DOUBLE_EQ(bw.bandwidth(i, j), 0.0) << i << "->" << j;
      }
    }
  }
  // 12 periods/day, one transit per period per direction, EWMA over
  // half-day units -> ~6 transits/unit.
  EXPECT_NEAR(bw.bandwidth(0, 1), 6.0, 1.5);
}

TEST(DtnFlowRouter, PredictionsNearPerfectOnDeterministicShuttles) {
  const auto trace = relay_chain_trace(6.0);
  DtnFlowRouter router;
  Network net(trace, router, chain_workload());
  net.run();
  const auto& d = router.diagnostics();
  ASSERT_GT(d.predictions_scored, 100u);
  EXPECT_GT(static_cast<double>(d.predictions_correct) /
                static_cast<double>(d.predictions_scored),
            0.95);
  // Accuracy estimates get driven to the ceiling.
  EXPECT_GT(router.accuracy(0, 0), 0.9);
  EXPECT_GT(router.accuracy(1, 1), 0.9);
}

TEST(DtnFlowRouter, TransitsFoldEveryVisit) {
  // Every completed visit is a stay, every arrival a prediction from
  // its landmark, and with k = 3 every third departure from a landmark
  // carries its vector.  Stays are kept only for the dead-end check.
  const auto trace = relay_chain_trace(4.0);
  DtnFlowConfig rc;
  rc.dv_exchange_every = 3;
  rc.dead_end_prevention = true;
  DtnFlowRouter router(rc);
  Network net(trace, router, chain_workload());
  net.run();
  for (net::NodeId n = 0; n < 3; ++n) {
    SCOPED_TRACE("node " + std::to_string(n));
    const auto visits = trace.visits(n);
    const core::NodeTransits& t = router.transits(n);
    EXPECT_EQ(t.total_stays, visits.size());
    EXPECT_DOUBLE_EQ(t.total_stay,
                     static_cast<double>(visits.size()) * 30.0 * kMinute);
    EXPECT_EQ(t.stay_count[n] + t.stay_count[n + 1], visits.size());
    EXPECT_EQ(t.arrived_at, visits.back().start);
    EXPECT_EQ(t.predicted_from, visits.back().landmark);
    EXPECT_EQ(t.predicted_next, router.predictor(n).predict());
    for (const net::LandmarkId l : {n, n + 1}) {
      EXPECT_EQ(t.departures_since_dv[l], t.stay_count[l] % 3) << l;
    }
  }
}

TEST(DtnFlowRouter, TransitArraysExistOnlyWithTheirFeature) {
  // The stay times feed only the dead-end check and the departure
  // counters only exchange thinning: without those features a node
  // keeps neither, and with them both span every landmark.
  const auto trace = relay_chain_trace(2.0);
  for (const bool on : {false, true}) {
    SCOPED_TRACE(on ? "features on" : "default config");
    DtnFlowConfig rc;
    if (on) {
      rc.dv_exchange_every = 2;
      rc.dead_end_prevention = true;
    }
    DtnFlowRouter router(rc);
    Network net(trace, router, chain_workload());
    net.run();
    const std::size_t want = on ? trace.num_landmarks() : 0;
    for (net::NodeId n = 0; n < trace.num_nodes(); ++n) {
      const core::NodeTransits& t = router.transits(n);
      EXPECT_EQ(t.stay_sum.size(), want) << n;
      EXPECT_EQ(t.stay_count.size(), want) << n;
      EXPECT_EQ(t.departures_since_dv.size(), want) << n;
      if (!on) {
        EXPECT_EQ(t.total_stays, 0u) << n;
      }
    }
  }
}

TEST(DtnFlowRouter, WorksWithoutDirectDeliveryAndRefinement) {
  const auto trace = relay_chain_trace(10.0);
  DtnFlowConfig rc;
  rc.direct_delivery = false;
  rc.refine_carrier_selection = false;
  DtnFlowRouter router(rc);
  auto cfg = chain_workload();
  cfg.manual_packets = {{0, 3, 5.0 * kDay, 0.0}};
  Network net(trace, router, cfg);
  net.run();
  EXPECT_EQ(net.counters().delivered, 1u);
}

TEST(DtnFlowRouter, HigherOrderPredictorAlsoDelivers) {
  const auto trace = relay_chain_trace(10.0);
  DtnFlowConfig rc;
  rc.predictor_order = 2;
  DtnFlowRouter router(rc);
  auto cfg = chain_workload();
  cfg.manual_packets = {{0, 3, 5.0 * kDay, 0.0}};
  Network net(trace, router, cfg);
  net.run();
  EXPECT_EQ(net.counters().delivered, 1u);
}

TEST(DtnFlowRouter, ExpectedDelayCarriedWithPacket) {
  const auto trace = relay_chain_trace(10.0);
  DtnFlowRouter router;
  auto cfg = chain_workload();
  cfg.manual_packets = {{0, 3, 5.0 * kDay, 0.0}};
  Network net(trace, router, cfg);
  net.run();
  const net::Packet& p = net.packet(0);
  EXPECT_EQ(p.next_hop, 3u);  // last assignment targeted the destination
  EXPECT_GT(p.expected_delay, 0.0);
  EXPECT_TRUE(std::isfinite(p.expected_delay));
}

TEST(DtnFlowRouter, ControlTrafficAccounted) {
  const auto trace = relay_chain_trace(4.0);
  DtnFlowRouter router;
  Network net(trace, router, chain_workload());
  net.run();
  // Every transit carries a 4-entry table each way.
  EXPECT_GT(net.counters().control_entries, 100.0);
}

TEST(DtnFlowRouter, DvExchangeThinningCutsMaintenance) {
  // §IV-C.3: stable tables allow a lower exchange frequency.  Carrying
  // a distance vector on every 4th transit must cut the control traffic
  // ~4x while routing still works.
  const auto trace = relay_chain_trace(12.0);
  auto run_with = [&](std::size_t every) {
    DtnFlowConfig rc;
    rc.dv_exchange_every = every;
    DtnFlowRouter router(rc);
    auto cfg = chain_workload();
    cfg.manual_packets = {{0, 3, 6.0 * kDay, 0.0}};
    Network net(trace, router, cfg);
    net.run();
    return std::make_pair(net.counters().control_entries,
                          net.counters().delivered);
  };
  const auto [entries_every, delivered_every] = run_with(1);
  const auto [entries_thinned, delivered_thinned] = run_with(4);
  EXPECT_EQ(delivered_every, 1u);
  EXPECT_EQ(delivered_thinned, 1u);
  EXPECT_LT(entries_thinned, entries_every / 3.0);
  EXPECT_GT(entries_thinned, entries_every / 6.0);
}

TEST(DtnFlowRouter, FrequentLandmarksFromHistory) {
  const auto trace = relay_chain_trace(4.0);
  DtnFlowRouter router;
  Network net(trace, router, chain_workload());
  net.run();
  const auto top = DtnFlowRouter::frequent_landmarks(net, 0, 3);
  ASSERT_EQ(top.size(), 2u);  // node 0 only ever visits L0 and L1
  EXPECT_TRUE((top[0] == 0 && top[1] == 1) || (top[0] == 1 && top[1] == 0));
}

// -- dead-end prevention (§IV-E.1) -------------------------------------

// Node D shuttles L0<->L1 predictably, then makes one unexpected trip to
// L2 ("garage") and parks there for good.  Node E shuttles L2<->L1 the
// whole time.  A packet from L0 to L1 given to D just before the
// unexpected trip dies with D unless dead-end prevention hands it to
// L2's station, where E can rescue it.
trace::Trace dead_end_trace(double park_day, double days) {
  trace::Trace t(2, 3);
  const double period = 2.0 * kHour;
  const double park_at = park_day * kDay;
  const auto periods = static_cast<std::size_t>(days * kDay / period);
  for (std::size_t p = 0; p < periods; ++p) {
    const double base = static_cast<double>(p) * period;
    // D: full L0->L1 shuttle cycles strictly before the park trip.
    if (base + period <= park_at) {
      t.add_visit({0, 0, base, base + 30.0 * kMinute});
      t.add_visit({0, 1, base + 60.0 * kMinute, base + 90.0 * kMinute});
    }
    // E: L2<->L1 shuttle every *other* period (so the L2->L1 link is
    // slower than L0->L1 and the hold rule keeps the packet on D).
    if (p % 2 == 0) {
      t.add_visit({1, 2, base + 30.0 * kMinute, base + 55.0 * kMinute});
      t.add_visit({1, 1, base + 95.0 * kMinute, base + 115.0 * kMinute});
    }
  }
  // D's final L0 visit (where the test packet is generated), then the
  // unexpected trip: D parks at L2 ("garage") until the end.
  t.add_visit({0, 0, park_at, park_at + 30.0 * kMinute});
  t.add_visit({0, 2, park_at + 60.0 * kMinute, days * kDay});
  t.finalize();
  return t;
}

TEST(DtnFlowRouter, DeadEndPreventionRescuesParkedPackets) {
  const double park_day = 6.0;
  const double days = 12.0;
  const auto trace = dead_end_trace(park_day, days);

  auto run_with = [&](bool prevention) {
    DtnFlowConfig rc;
    rc.dead_end_prevention = prevention;
    rc.dead_end_theta = 2.0;
    DtnFlowRouter router(rc);
    WorkloadConfig cfg = chain_workload();
    cfg.ttl = 4.0 * kDay;
    // Generated at L0 during D's final visit there, destined to L1:
    // D takes it (predicted next = 1) but drives to L2 and parks.
    cfg.manual_packets = {{0, 1, park_day * kDay + 10.0 * kMinute, 0.0}};
    Network net(trace, router, cfg);
    net.run();
    return std::make_pair(net.counters().delivered,
                          router.diagnostics().dead_ends_detected);
  };

  const auto [delivered_off, deadends_off] = run_with(false);
  const auto [delivered_on, deadends_on] = run_with(true);
  EXPECT_EQ(delivered_off, 0u);
  EXPECT_EQ(deadends_off, 0u);
  EXPECT_EQ(delivered_on, 1u);
  EXPECT_GT(deadends_on, 0u);
}

// -- loop detection & correction (§IV-E.2) ------------------------------

TEST(DtnFlowRouter, InjectedLoopDetectedAndCorrected) {
  const auto trace = relay_chain_trace(16.0);

  auto run_with = [&](bool correction) {
    DtnFlowConfig rc;
    rc.loop_correction = correction;
    // Pin a 0<->1 cycle for destination 3 after tables have formed.
    rc.loop_injections = {{3, {0, 1}, 8}};
    DtnFlowRouter router(rc);
    WorkloadConfig cfg = chain_workload();
    cfg.ttl = 3.0 * kDay;
    cfg.manual_packets = {{0, 3, 6.0 * kDay, 0.0}};
    Network net(trace, router, cfg);
    net.run();
    return std::make_pair(net.counters().delivered, router.diagnostics());
  };

  const auto [delivered_off, diag_off] = run_with(false);
  const auto [delivered_on, diag_on] = run_with(true);
  // Without correction the packet circles 0->1->0->... until TTL.
  EXPECT_GT(diag_off.loops_detected, 0u);
  EXPECT_EQ(diag_off.loops_corrected, 0u);
  EXPECT_EQ(delivered_off, 0u);
  // With correction the loop is broken and the packet gets through.
  EXPECT_GT(diag_on.loops_detected, 0u);
  EXPECT_GT(diag_on.loops_corrected, 0u);
  EXPECT_EQ(delivered_on, 1u);
}

// -- load balancing (§IV-E.3) -------------------------------------------

TEST(DtnFlowRouter, LoadBalancingDivertsToBackupUnderOverload) {
  // Six landmarks, five shuttle nodes forming two parallel routes
  // 0->1->... is overloaded by tiny carrier memory; backup via 0->2.
  // Topology: A: 0<->1, B: 1<->3, C: 0<->2, D: 2<->3 (dst 3 reachable
  // via 1 or 2); node A has the *same* buffer as others but the link
  // 0->1 is made attractive (A runs twice as often), so the optimal
  // route for everything is via 1 and it congests.
  trace::Trace t(4, 4);
  const double period = 2.0 * kHour;
  const auto periods = static_cast<std::size_t>(20.0 * kDay / period);
  auto add_shuttle = [&](std::uint32_t node, std::uint32_t a, std::uint32_t b,
                         double offset, std::size_t every) {
    for (std::size_t p = 0; p < periods; p += every) {
      const double base = static_cast<double>(p) * period + offset;
      t.add_visit({node, a, base, base + 20.0 * kMinute});
      t.add_visit({node, b, base + 40.0 * kMinute, base + 60.0 * kMinute});
    }
  };
  add_shuttle(0, 0, 1, 0.0, 1);                 // A: every period
  add_shuttle(1, 1, 3, 61.0 * kMinute, 1);      // B: every period
  add_shuttle(2, 0, 2, 2.0 * kMinute, 1);       // C: every period
  add_shuttle(3, 2, 3, 63.0 * kMinute, 2);      // D slower: every other
  t.finalize();

  auto run_with = [&](bool balancing) {
    DtnFlowConfig rc;
    rc.load_balancing = balancing;
    DtnFlowRouter router(rc);
    WorkloadConfig cfg;
    cfg.packets_per_landmark_per_day = 0.0;
    cfg.warmup_fraction = 0.0;
    cfg.time_unit = 0.5 * kDay;
    cfg.node_memory_kb = 2;  // tiny carriers: the 0->1 link saturates
    cfg.ttl = 5.0 * kDay;
    // Far more traffic than the primary route can carry within TTL
    // (~24 packets/day through A/B); the 0->2->3 backup adds capacity.
    for (int i = 0; i < 400; ++i) {
      cfg.manual_packets.push_back(
          {0, 3, 8.0 * kDay + i * 2.0 * kMinute, 0.0});
    }
    Network net(t, router, cfg);
    net.run();
    return std::make_pair(net.counters().delivered,
                          router.diagnostics().balancing_diversions);
  };

  const auto [delivered_off, diversions_off] = run_with(false);
  const auto [delivered_on, diversions_on] = run_with(true);
  EXPECT_EQ(diversions_off, 0u);
  EXPECT_GT(diversions_on, 0u);
  EXPECT_GE(delivered_on, delivered_off);
}

TEST(DtnFlowRouter, DownloadTakesTheWholeBacklogInOneVisit) {
  // Downloads have no per-arrival cap: a newly arrived carrier that
  // suits every packet the station holds takes them all at once.
  const auto trace = relay_chain_trace(10.0);
  DtnFlowRouter router;
  auto cfg = chain_workload();
  cfg.node_memory_kb = 100;
  // 10 packets land at L0's station while no suitable carrier is there
  // (generated just after node 0 departs at base+30min).
  for (int i = 0; i < 10; ++i) {
    cfg.manual_packets.push_back(
        {0, 2, 6.0 * kDay + 31.0 * kMinute + i * 10.0, 0.0});
  }
  Network net(trace, router, cfg);
  net.run();
  // Node 0 takes the backlog on its next visit to L0 and delivers it on
  // one arrival at L2, so the delays differ only by the 10 s spacing of
  // the generation times.
  const auto& delays = net.counters().delivery_delays;
  ASSERT_EQ(delays.size(), 10u);
  const auto [min_it, max_it] =
      std::minmax_element(delays.begin(), delays.end());
  EXPECT_LT(*max_it - *min_it, 2.0 * kMinute);
}

// -- node-to-node relay (§VI future work) --------------------------------

TEST(DtnFlowRouter, NodeToNodeRelayHandsOffToBetterCarrier) {
  // X shuttles L0->L1 but detours to L2 every 5th period (so its
  // prediction accuracy at L0 degrades); Y shuttles L0->L1 reliably and
  // reaches L1 *earlier* each period.  With the hybrid relay, packets X
  // picked up migrate to Y at their L0 co-location and arrive sooner.
  trace::Trace t(2, 3);
  const double period = 2.0 * kHour;
  const auto periods = static_cast<std::size_t>(20.0 * kDay / period);
  for (std::size_t p = 0; p < periods; ++p) {
    const double base = static_cast<double>(p) * period;
    t.add_visit({0, 0, base, base + 30.0 * kMinute});
    t.add_visit({0, static_cast<trace::LandmarkId>(p % 5 == 0 ? 2 : 1),
                 base + 60.0 * kMinute, base + 90.0 * kMinute});
    t.add_visit({1, 0, base + 5.0 * kMinute, base + 25.0 * kMinute});
    t.add_visit({1, 1, base + 40.0 * kMinute, base + 55.0 * kMinute});
  }
  t.finalize();

  auto run_with = [&](bool relay) {
    DtnFlowConfig rc;
    rc.node_to_node_relay = relay;
    DtnFlowRouter router(rc);
    WorkloadConfig cfg = chain_workload();
    cfg.ttl = 1.0 * kDay;
    // A packet at the start of several periods, while only X (node 0)
    // is connected at L0.
    for (int k = 0; k < 20; ++k) {
      cfg.manual_packets.push_back(
          {0, 1, (10.0 + k * 0.5) * kDay + 1.0 * kMinute, 0.0});
    }
    Network net(t, router, cfg);
    net.run();
    return std::make_pair(net.counters().delivered,
                          net.counters().total_delay /
                              std::max<double>(1.0, net.counters().delivered));
  };

  const auto [delivered_off, delay_off] = run_with(false);
  const auto [delivered_on, delay_on] = run_with(true);
  EXPECT_GE(delivered_on, delivered_off);
  EXPECT_LT(delay_on, delay_off);
}

// -- tie order ------------------------------------------------------------
//
// The §IV-D.5 priority breaks remaining-TTL ties by packet id, so the
// order never depends on where swap-erase left a packet in a store.

// Forwards the hooks a fault-free chain replay uses to a DTN-FLOW router
// and reports every arrival before and after the router handles it.
class ArrivalProbe final : public net::Router {
 public:
  using Callback = std::function<void(const Network&, net::NodeId,
                                      net::LandmarkId, bool handled)>;
  ArrivalProbe(DtnFlowRouter& inner, Callback probe)
      : inner_(inner), probe_(std::move(probe)) {}

  [[nodiscard]] std::string name() const override { return inner_.name(); }
  [[nodiscard]] bool uses_stations() const override { return true; }
  [[nodiscard]] bool observes_contacts() const override {
    return inner_.observes_contacts();
  }
  void on_init(Network& net) override { inner_.on_init(net); }
  void on_arrival(Network& net, net::NodeId node,
                  net::LandmarkId l) override {
    probe_(net, node, l, false);
    inner_.on_arrival(net, node, l);
    probe_(net, node, l, true);
  }
  void on_departure(Network& net, net::NodeId node,
                    net::LandmarkId l) override {
    inner_.on_departure(net, node, l);
  }
  void on_packet_generated(Network& net, net::PacketId pid) override {
    inner_.on_packet_generated(net, pid);
  }
  void on_time_unit(Network& net, std::size_t unit_index) override {
    inner_.on_time_unit(net, unit_index);
  }

 private:
  DtnFlowRouter& inner_;
  Callback probe_;
};

using Ids = std::vector<net::PacketId>;

Ids ids(std::span<const net::PacketId> span) {
  return {span.begin(), span.end()};
}

// Units of 4.75 h put a TTL sweep at 156.75 h, while node 0 is between
// its 156 h visit to L0 and its 157 h visit to L1 (relay_chain_trace).
WorkloadConfig tie_workload() {
  WorkloadConfig cfg = chain_workload();
  cfg.time_unit = 4.75 * kHour;
  return cfg;
}

TEST(DtnFlowRouter, OfferBreaksTtlTiesByPacketId) {
  const auto trace = relay_chain_trace(10.0);
  DtnFlowRouter router;
  auto cfg = tie_workload();
  // Packet 0 expires at L0's station before the 156.75 h sweep, which
  // swap-erases it and leaves the tied packets 1 and 2 in the order
  // (2, 1).  Node 0 comes back at 158 h and takes both.
  cfg.manual_packets = {{0, 1, 156.0 * kHour + 31.0 * kMinute, 10.0 * kMinute},
                        {0, 1, 156.0 * kHour + 35.0 * kMinute, 1.0 * kDay},
                        {0, 1, 156.0 * kHour + 35.0 * kMinute, 1.0 * kDay}};
  Ids station_before;
  Ids carried_after;
  ArrivalProbe probe(router, [&](const Network& net, net::NodeId node,
                                 net::LandmarkId l, bool handled) {
    if (node != 0 || l != 0 || net.now() != 158.0 * kHour) return;
    if (handled) {
      carried_after = ids(net.node_packets(0));
    } else {
      station_before = ids(net.station_packets(0));
    }
  });
  Network net(trace, probe, cfg);
  net.run();
  ASSERT_EQ(station_before, (Ids{2, 1}));
  EXPECT_EQ(carried_after, (Ids{1, 2}));
  EXPECT_EQ(net.counters().delivered, 2u);
}

TEST(DtnFlowRouter, UploadBreaksTtlTiesByPacketId) {
  const auto trace = relay_chain_trace(10.0);
  DtnFlowRouter router;
  auto cfg = tie_workload();
  // All three wait at L0 for node 0's 156 h visit, which takes packet 0
  // (the most urgent) first.  The 156.75 h sweep drops it from node 0,
  // leaving the tied packets 1 and 2 carried in the order (2, 1).  At
  // L1 their next hop is reached, and L1's carrier to L2 is away.
  const double created = 154.0 * kHour + 40.0 * kMinute;
  cfg.manual_packets = {{0, 2, created, 2.0 * kHour},
                        {0, 2, created, 2.0 * kHour + 35.0 * kMinute},
                        {0, 2, created, 2.0 * kHour + 35.0 * kMinute}};
  Ids carried_before;
  Ids station_after;
  ArrivalProbe probe(router, [&](const Network& net, net::NodeId node,
                                 net::LandmarkId l, bool handled) {
    if (node != 0 || l != 1 || net.now() != 157.0 * kHour) return;
    if (handled) {
      station_after = ids(net.station_packets(1));
    } else {
      carried_before = ids(net.node_packets(0));
    }
  });
  Network net(trace, probe, cfg);
  net.run();
  ASSERT_EQ(carried_before, (Ids{2, 1}));
  EXPECT_EQ(station_after, (Ids{1, 2}));
}

TEST(DtnFlowRouterDeath, InvalidConfigRejected) {
  DtnFlowConfig rc;
  rc.predictor_order = 4;
  EXPECT_DEATH(DtnFlowRouter{rc}, "DTN_ASSERT");
  DtnFlowConfig rc2;
  rc2.bandwidth_rho = 0.0;
  EXPECT_DEATH(DtnFlowRouter{rc2}, "DTN_ASSERT");
}

}  // namespace
}  // namespace dtn::core
