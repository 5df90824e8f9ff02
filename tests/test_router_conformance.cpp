// Router conformance suite: generic invariants every router must keep,
// parameterized over all nine implementations (the paper's six, the
// Direct floor and the two multi-copy references).
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <tuple>
#include <vector>

#include "core/dtn_flow_router.hpp"
#include "metrics/metrics.hpp"
#include "net/network.hpp"
#include "routing/factory.hpp"
#include "sim/fault_injector.hpp"
#include "trace/bus_generator.hpp"
#include "trace/campus_generator.hpp"

namespace dtn {
namespace {

using trace::kDay;

const char* const kRouterNames[] = {"DTN-FLOW", "SimBet", "PROPHET",
                                    "PGR",      "GeoComm", "PER",
                                    "Direct",   "Epidemic", "SprayWait"};
const char* const kTraceKinds[] = {"campus", "bus"};

using ConformanceCase = std::tuple<const char*, const char*>;

trace::Trace conformance_trace(const std::string& kind) {
  if (kind == "bus") {
    trace::BusTraceConfig cfg;
    cfg.num_buses = 16;
    cfg.num_landmarks = 10;
    cfg.num_routes = 5;
    cfg.days = 10.0;
    cfg.seed = 31;
    return trace::generate_bus_trace(cfg);
  }
  trace::CampusTraceConfig cfg;
  cfg.num_nodes = 24;
  cfg.num_landmarks = 10;
  cfg.num_communities = 4;
  cfg.days = 12.0;
  cfg.add_default_holiday = false;
  cfg.seed = 31;
  return trace::generate_campus_trace(cfg);
}

net::WorkloadConfig conformance_workload() {
  net::WorkloadConfig cfg;
  cfg.packets_per_landmark_per_day = 8.0;
  cfg.ttl = 3.0 * kDay;
  cfg.node_memory_kb = 30;
  cfg.warmup_fraction = 0.25;
  cfg.time_unit = 0.5 * kDay;
  cfg.seed = 17;
  return cfg;
}

class RouterConformanceTest
    : public ::testing::TestWithParam<ConformanceCase> {
 protected:
  [[nodiscard]] std::string router_name() const {
    return std::get<0>(GetParam());
  }
  [[nodiscard]] trace::Trace make_trace() const {
    return conformance_trace(std::get<1>(GetParam()));
  }
};

TEST_P(RouterConformanceTest, InvariantsHoldAfterFullRun) {
  const auto trace = make_trace();
  const auto router = routing::make_router(router_name());
  net::Network net(trace, *router, conformance_workload());
  net.run();
  net.validate_invariants();
}

TEST_P(RouterConformanceTest, CountersAreConsistent) {
  const auto trace = make_trace();
  const auto router = routing::make_router(router_name());
  net::Network net(trace, *router, conformance_workload());
  net.run();
  const auto& c = net.counters();
  EXPECT_GT(c.generated, 100u);
  EXPECT_LE(c.delivered, c.generated);
  EXPECT_EQ(c.delivery_delays.size(), c.delivered);
  // Terminal + active packet rows account for every row.
  std::size_t delivered = 0, dropped = 0, obsolete = 0, active = 0;
  for (const auto& p : net.all_packets()) {
    switch (p.state) {
      case net::PacketState::kDelivered: ++delivered; break;
      case net::PacketState::kDroppedTtl: ++dropped; break;
      case net::PacketState::kObsoleteCopy: ++obsolete; break;
      default: ++active; break;
    }
  }
  EXPECT_EQ(delivered, c.delivered);
  EXPECT_EQ(dropped, c.dropped_ttl);
  EXPECT_EQ(delivered + dropped + obsolete + active, net.all_packets().size());
}

TEST_P(RouterConformanceTest, DelaysWithinTtl) {
  const auto trace = make_trace();
  const auto router = routing::make_router(router_name());
  net::Network net(trace, *router, conformance_workload());
  net.run();
  for (const auto& p : net.all_packets()) {
    if (p.state != net::PacketState::kDelivered) continue;
    const double delay = p.delivered_at - p.created;
    EXPECT_GT(delay, 0.0);
    EXPECT_LE(delay, p.ttl + 1e-6);
    EXPECT_GE(p.hops, 1u);
  }
}

TEST_P(RouterConformanceTest, DeterministicAcrossRuns) {
  const auto trace = make_trace();
  auto run_once = [&] {
    const auto router = routing::make_router(router_name());
    net::Network net(trace, *router, conformance_workload());
    net.run();
    return std::make_tuple(net.counters().delivered,
                           net.counters().packet_forwards,
                           net.counters().control_entries);
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST_P(RouterConformanceTest, DeliversSomethingOnFriendlyWorkload) {
  const auto trace = make_trace();
  const auto router = routing::make_router(router_name());
  auto workload = conformance_workload();
  workload.node_memory_kb = 500;  // remove the buffer constraint
  net::Network net(trace, *router, workload);
  net.run();
  EXPECT_GT(net.counters().delivered, 0u);
  EXPECT_GT(
      static_cast<double>(net.counters().delivered) /
          static_cast<double>(net.counters().generated),
      0.10);
}

TEST_P(RouterConformanceTest, NoControlTrafficWithoutEvents) {
  // An empty trace produces no callbacks, hence no costs.
  trace::Trace empty(4, 4);
  empty.finalize();
  const auto router = routing::make_router(router_name());
  net::WorkloadConfig cfg;
  cfg.packets_per_landmark_per_day = 0.0;
  net::Network net(empty, *router, cfg);
  net.run();
  EXPECT_EQ(net.counters().generated, 0u);
  EXPECT_EQ(net.counters().packet_forwards, 0u);
  EXPECT_DOUBLE_EQ(net.counters().control_entries, 0.0);
}

// Forwards every hook to a factory router but claims to observe
// contacts, so the engine runs the full contact fan-out whatever the
// inner router declares.
class ContactObservingShim final : public net::Router {
 public:
  explicit ContactObservingShim(net::Router& inner) : inner_(inner) {}

  [[nodiscard]] std::string name() const override { return inner_.name(); }
  [[nodiscard]] bool uses_stations() const override {
    return inner_.uses_stations();
  }
  [[nodiscard]] bool observes_contacts() const override { return true; }
  void on_init(net::Network& net) override { inner_.on_init(net); }
  void on_arrival(net::Network& net, net::NodeId node,
                  net::LandmarkId l) override {
    inner_.on_arrival(net, node, l);
  }
  void on_departure(net::Network& net, net::NodeId node,
                    net::LandmarkId l) override {
    inner_.on_departure(net, node, l);
  }
  void on_contact(net::Network& net, net::NodeId arriving,
                  net::NodeId present, net::LandmarkId l) override {
    inner_.on_contact(net, arriving, present, l);
  }
  void on_packet_generated(net::Network& net, net::PacketId pid) override {
    inner_.on_packet_generated(net, pid);
  }
  void on_time_unit(net::Network& net, std::size_t unit_index) override {
    inner_.on_time_unit(net, unit_index);
  }
  void on_node_crash(net::Network& net, net::NodeId node) override {
    inner_.on_node_crash(net, node);
  }
  void on_station_outage(net::Network& net, net::LandmarkId l) override {
    inner_.on_station_outage(net, l);
  }
  void on_station_recovery(net::Network& net, net::LandmarkId l) override {
    inner_.on_station_recovery(net, l);
  }
  void audit(const net::Network& net, sim::AuditReport& report) const override {
    inner_.audit(net, report);
  }

 private:
  net::Router& inner_;
};

TEST_P(RouterConformanceTest, SkippingContactsMatchesObservingThem) {
  // A router that declares observes_contacts() == false must run
  // identically when the engine delivers every contact anyway.
  const auto trace = make_trace();
  const auto plain_router = routing::make_router(router_name());
  net::Network plain(trace, *plain_router, conformance_workload());
  plain.run();

  const auto inner = routing::make_router(router_name());
  ContactObservingShim shim(*inner);
  net::Network observed(trace, shim, conformance_workload());
  observed.run();
  EXPECT_EQ(plain.counters(), observed.counters());
}

TEST(RouterContactDeclaration, DtnFlowObservesContactsOnlyWithNodeRelay) {
  EXPECT_FALSE(core::DtnFlowRouter().observes_contacts());
  core::DtnFlowConfig cfg;
  cfg.node_to_node_relay = true;
  EXPECT_TRUE(core::DtnFlowRouter(cfg).observes_contacts());
  for (const char* name : {"SimBet", "PROPHET", "PGR", "GeoComm", "PER",
                           "Direct", "Epidemic", "SprayWait"}) {
    EXPECT_TRUE(routing::make_router(name)->observes_contacts()) << name;
  }
}

// -- DTN-FLOW arrival classifier -------------------------------------------
//
// Arrival offers sort and walk only the station packets that can move
// (docs/routing-hot-path.md, "Arrival offers and uploads").  Each case
// runs twice, once with the test seam that makes every station packet a
// candidate (a full sorted walk), and both runs must agree on counters,
// diagnostics and every packet's fate.

const char* const kClassifierCases[] = {
    "default",        "load_balancing",    "loop_correction",
    "scheduled",      "dead_end",          "no_direct_delivery",
    "no_refinement",  "tiny_node_memory",  "station_reject",
    "station_drop_oldest", "station_drop_largest_delay",
    "station_ttl_expire",  "station_outages"};

struct ClassifierSetup {
  core::DtnFlowConfig router;
  net::WorkloadConfig workload;
};

ClassifierSetup classifier_setup(const std::string& name) {
  ClassifierSetup s;
  s.workload = conformance_workload();
  // Enough traffic that arriving carriers meet long station queues.
  s.workload.packets_per_landmark_per_day = 40.0;
  const auto bounded = [&](net::EvictionPolicy policy) {
    s.workload.store.station_memory_kb = 25;
    s.workload.store.policy = policy;
  };
  if (name == "load_balancing") {
    s.router.load_balancing = true;
  } else if (name == "loop_correction") {
    s.router.loop_correction = true;
    s.router.loop_injections = {{3, {0, 1}, 4}};
  } else if (name == "scheduled") {
    s.router.scheduled_communication = true;
  } else if (name == "dead_end") {
    s.router.dead_end_prevention = true;
  } else if (name == "no_direct_delivery") {
    s.router.direct_delivery = false;
  } else if (name == "no_refinement") {
    s.router.refine_carrier_selection = false;
  } else if (name == "tiny_node_memory") {
    s.workload.node_memory_kb = 3;  // the offer walk breaks often
  } else if (name == "station_reject") {
    bounded(net::EvictionPolicy::kReject);
  } else if (name == "station_drop_oldest") {
    bounded(net::EvictionPolicy::kDropOldest);
  } else if (name == "station_drop_largest_delay") {
    bounded(net::EvictionPolicy::kDropLargestExpectedDelay);
  } else if (name == "station_ttl_expire") {
    bounded(net::EvictionPolicy::kTtlExpire);
  } else if (name == "station_outages") {
    sim::FaultPlan plan;
    plan.station_outage_rate_per_day = 0.5;
    plan.station_mean_outage = 0.25 * kDay;
    plan.transfer_failure_prob = 0.05;
    s.workload.faults = plan;
  }
  return s;
}

struct ClassifierOutcome {
  net::RunCounters counters;
  core::DtnFlowDiagnostics diagnostics;
  std::vector<std::tuple<net::PacketState, std::uint32_t, std::uint32_t>>
      packets;  // state, holder, hops
};

ClassifierOutcome run_classifier_case(const trace::Trace& trace,
                                      const ClassifierSetup& setup,
                                      bool every_packet) {
  core::DtnFlowRouter router(setup.router);
  if (every_packet) router.debug_offer_every_packet_for_test();
  net::Network net(trace, router, setup.workload);
  net.run();
  ClassifierOutcome out{net.counters(), router.diagnostics(), {}};
  for (const auto& p : net.all_packets()) {
    out.packets.emplace_back(p.state, p.holder, p.hops);
  }
  return out;
}

using ClassifierCase = std::tuple<const char*, const char*>;

class DtnFlowClassifierTest
    : public ::testing::TestWithParam<ClassifierCase> {};

TEST_P(DtnFlowClassifierTest, FilteredWalksMatchFullSortedWalks) {
  const auto trace = conformance_trace(std::get<1>(GetParam()));
  const ClassifierSetup setup = classifier_setup(std::get<0>(GetParam()));
  const ClassifierOutcome filtered = run_classifier_case(trace, setup, false);
  const ClassifierOutcome full = run_classifier_case(trace, setup, true);
  EXPECT_GT(filtered.counters.packet_forwards, 0u);
  if (setup.router.load_balancing) {
    // The diversion rule must fire, or the case would not check it.
    EXPECT_GT(filtered.diagnostics.balancing_diversions, 0u);
  }
  EXPECT_EQ(filtered.counters, full.counters);
  EXPECT_EQ(filtered.diagnostics, full.diagnostics);
  ASSERT_EQ(filtered.packets.size(), full.packets.size());
  for (std::size_t i = 0; i < full.packets.size(); ++i) {
    EXPECT_EQ(filtered.packets[i], full.packets[i]) << "packet " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, DtnFlowClassifierTest,
    ::testing::Combine(::testing::ValuesIn(kClassifierCases),
                       ::testing::ValuesIn(kTraceKinds)),
    [](const ::testing::TestParamInfo<ClassifierCase>& info) {
      return std::string(std::get<0>(info.param)) + "_" +
             std::get<1>(info.param);
    });

INSTANTIATE_TEST_SUITE_P(
    AllRouters, RouterConformanceTest,
    ::testing::Combine(::testing::ValuesIn(kRouterNames),
                       ::testing::ValuesIn(kTraceKinds)));

}  // namespace
}  // namespace dtn
