// Fault-injection subsystem tests (docs/fault-injection.md), three layers:
//
//  * unit — FaultPlan validation rejects malformed plans with messages
//    that name the offending knob, the CLI parser round-trips every
//    --fault-* flag and fails loudly on typos, and the injector's
//    bookkeeping/draw helpers honour their determinism contract;
//  * scenario — scheduled and stochastic faults produce the advertised
//    resilience counters and the router's graceful-degradation
//    diagnostics (fallback next hops, staleness expiry, DV loss/delay,
//    §IV-E recovery under injected faults);
//  * audit — the fault-state invariant checks actually detect seeded
//    ledger/counter corruption (corrupt -> detect -> revert).
#include "sim/fault_injector.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <limits>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "core/dtn_flow_router.hpp"
#include "net/network.hpp"
#include "persist/serializer.hpp"
#include "sim/invariant_auditor.hpp"
#include "test_helpers.hpp"
#include "trace/campus_generator.hpp"
#include "util/cli.hpp"

namespace dtn {
namespace {

using core::DtnFlowConfig;
using core::DtnFlowRouter;
using dtn::testing::relay_chain_trace;
using dtn::testing::relay_chain_workload;
using net::Network;
using net::WorkloadConfig;
using sim::AuditReport;
using sim::FaultInjector;
using sim::FaultPlan;
using trace::kDay;
using trace::kHour;
using trace::kMinute;

std::string validation_error(const FaultPlan& plan, std::size_t nodes = 3,
                             std::size_t landmarks = 4) {
  try {
    plan.validate(nodes, landmarks);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

// -- FaultPlan validation ------------------------------------------------

TEST(FaultPlan, DefaultPlanIsInertAndValid) {
  const FaultPlan plan;
  EXPECT_FALSE(plan.any());
  EXPECT_EQ(validation_error(plan), "");
}

TEST(FaultPlan, AnyReflectsEveryFaultFamily) {
  FaultPlan p;
  p.node_crashes.push_back({0, 1.0 * kDay, kHour});
  EXPECT_TRUE(p.any());
  p = FaultPlan{};
  p.node_crash_rate_per_day = 0.1;
  EXPECT_TRUE(p.any());
  p = FaultPlan{};
  p.station_outages.push_back({0, 1.0 * kDay, 2.0 * kDay});
  EXPECT_TRUE(p.any());
  p = FaultPlan{};
  p.station_outage_rate_per_day = 0.1;
  EXPECT_TRUE(p.any());
  p = FaultPlan{};
  p.transfer_failure_prob = 0.1;
  EXPECT_TRUE(p.any());
  p = FaultPlan{};
  p.dv_loss_prob = 0.1;
  EXPECT_TRUE(p.any());
  p = FaultPlan{};
  p.dv_delay_prob = 0.1;
  EXPECT_TRUE(p.any());
}

TEST(FaultPlan, ValidationRejectsBadRatesAndProbabilities) {
  FaultPlan p;
  p.node_crash_rate_per_day = -0.5;
  EXPECT_NE(validation_error(p).find("fault plan:"), std::string::npos)
      << validation_error(p);

  p = FaultPlan{};
  p.transfer_failure_prob = 1.5;
  EXPECT_NE(validation_error(p), "");

  p = FaultPlan{};
  p.dv_loss_prob = std::numeric_limits<double>::quiet_NaN();
  EXPECT_NE(validation_error(p), "");

  p = FaultPlan{};
  p.crash_buffer_loss = -0.1;
  EXPECT_NE(validation_error(p), "");

  p = FaultPlan{};
  p.transfer_failure_prob = 0.1;
  p.retry_backoff = -1.0;
  EXPECT_NE(validation_error(p), "");

  p = FaultPlan{};
  p.transfer_failure_prob = 0.1;
  p.retry_backoff = kHour;
  p.retry_backoff_max = kMinute;  // cap below the base backoff
  EXPECT_NE(validation_error(p), "");

  p = FaultPlan{};
  p.node_crash_rate_per_day = 0.1;
  p.node_mean_downtime = 0.0;
  EXPECT_NE(validation_error(p), "");
}

TEST(FaultPlan, ValidationRejectsUnknownIds) {
  FaultPlan p;
  p.node_crashes.push_back({7, 1.0 * kDay, kHour});  // trace has 3 nodes
  const auto err = validation_error(p);
  EXPECT_NE(err.find("unknown node"), std::string::npos) << err;
  EXPECT_NE(err.find('7'), std::string::npos) << err;

  p = FaultPlan{};
  p.station_outages.push_back({9, 1.0 * kDay, 2.0 * kDay});  // 4 landmarks
  EXPECT_NE(validation_error(p), "");
}

TEST(FaultPlan, ValidationRejectsOverlappingWindows) {
  // Two crashes of one node whose down windows overlap: the second
  // would fire while the node is still down (the double-crash abort).
  FaultPlan p;
  p.node_crashes.push_back({0, 1.0 * kDay, 12.0 * kHour});
  p.node_crashes.push_back({0, 1.0 * kDay + 6.0 * kHour, kHour});
  const auto err = validation_error(p);
  EXPECT_NE(err.find("overlapping"), std::string::npos) << err;

  // Same for station outage windows.
  FaultPlan q;
  q.station_outages.push_back({2, 1.0 * kDay, 2.0 * kDay});
  q.station_outages.push_back({2, 1.5 * kDay, 3.0 * kDay});
  EXPECT_NE(validation_error(q).find("overlapping"), std::string::npos);

  // Different ids never conflict.
  FaultPlan r;
  r.node_crashes.push_back({0, 1.0 * kDay, 12.0 * kHour});
  r.node_crashes.push_back({1, 1.0 * kDay, 12.0 * kHour});
  EXPECT_EQ(validation_error(r), "");
}

TEST(FaultPlan, ValidationRejectsScheduledMixedWithStochasticOfOneFamily) {
  FaultPlan p;
  p.node_crashes.push_back({0, 1.0 * kDay, kHour});
  p.node_crash_rate_per_day = 0.3;
  EXPECT_NE(validation_error(p).find("node_crash_rate_per_day"),
            std::string::npos)
      << validation_error(p);

  FaultPlan q;
  q.station_outages.push_back({1, 1.0 * kDay, 2.0 * kDay});
  q.station_outage_rate_per_day = 0.3;
  EXPECT_NE(validation_error(q).find("station_outage_rate_per_day"),
            std::string::npos)
      << validation_error(q);

  // Scheduled crashes with stochastic outages (and the reverse) cannot
  // collide: each family has its own down set.
  FaultPlan r;
  r.node_crashes.push_back({0, 1.0 * kDay, kHour});
  r.station_outage_rate_per_day = 0.3;
  EXPECT_EQ(validation_error(r), "");
  FaultPlan t;
  t.station_outages.push_back({1, 1.0 * kDay, 2.0 * kDay});
  t.node_crash_rate_per_day = 0.3;
  EXPECT_EQ(validation_error(t), "");
}

TEST(FaultPlan, MixedCrashPlanIsRefusedInsteadOfAbortingMidRun) {
  // Regression: this plan passed validation, and the uninterrupted run
  // aborted on the double-crash assertion when node 2's scheduled crash
  // overlapped a stochastic one.
  trace::CampusTraceConfig tc;
  tc.num_nodes = 16;
  tc.num_landmarks = 8;
  tc.num_communities = 3;
  tc.days = 6.0;
  tc.seed = 9;
  const trace::Trace trace = trace::generate_campus_trace(tc);
  WorkloadConfig cfg;
  cfg.packets_per_landmark_per_day = 30.0;
  cfg.ttl = 6.0 * kDay;
  cfg.time_unit = 1.5 * kDay;
  cfg.node_memory_kb = 6;
  cfg.seed = 11;
  FaultPlan plan;
  plan.seed = 5;
  plan.node_crashes = {{2, 2.0 * kDay, 0.5 * kDay}};
  plan.node_crash_rate_per_day = 0.3;
  cfg.faults = plan;
  {
    DtnFlowRouter router;
    EXPECT_THROW(Network(trace, router, cfg), std::invalid_argument);
  }

  // Each half alone is a valid plan, and the run completes.
  for (const bool scheduled : {true, false}) {
    FaultPlan half = plan;
    if (scheduled) {
      half.node_crash_rate_per_day = 0.0;
    } else {
      half.node_crashes.clear();
    }
    cfg.faults = half;
    DtnFlowRouter router;
    Network net(trace, router, cfg);
    net.run();
    EXPECT_GT(net.counters().node_crashes, 0u) << "scheduled " << scheduled;
  }

  // The station-outage family is refused the same way.
  FaultPlan outages;
  outages.seed = 5;
  outages.station_outages = {{2, 2.0 * kDay, 2.5 * kDay}};
  outages.station_outage_rate_per_day = 0.3;
  cfg.faults = outages;
  DtnFlowRouter router;
  EXPECT_THROW(Network(trace, router, cfg), std::invalid_argument);
}

TEST(FaultPlan, NetworkConstructionRejectsMalformedPlan) {
  const auto trace = relay_chain_trace(2.0);
  auto cfg = relay_chain_workload();
  cfg.faults.emplace();
  cfg.faults->node_crashes.push_back({99, 1.0 * kDay, kHour});
  DtnFlowRouter router;
  EXPECT_THROW(Network(trace, router, cfg), std::invalid_argument);
}

// -- CLI parsing ---------------------------------------------------------

std::optional<FaultPlan> parse_cli(std::vector<std::string> extra) {
  std::vector<std::string> args = {"prog"};
  args.insert(args.end(), extra.begin(), extra.end());
  std::vector<const char*> argv;
  argv.reserve(args.size());
  for (const auto& a : args) argv.push_back(a.c_str());
  const CliOptions opts(static_cast<int>(argv.size()), argv.data());
  return sim::fault_plan_from_cli(opts);
}

TEST(FaultPlanCli, NoFaultFlagsYieldNoPlan) {
  EXPECT_FALSE(parse_cli({"--router", "DTN-FLOW"}).has_value());
}

TEST(FaultPlanCli, ParsesEveryKnob) {
  const auto plan = parse_cli(
      {"--fault-node-crash-rate", "0.25", "--fault-node-downtime", "7200",
       "--fault-crash-loss", "0.5", "--fault-station-outage-rate", "0.125",
       "--fault-station-outage-duration", "1800", "--fault-transfer-fail",
       "0.0625", "--fault-retry-backoff", "300", "--fault-retry-backoff-max",
       "1200", "--fault-dv-loss", "0.03125", "--fault-dv-delay", "0.015625",
       "--fault-seed", "42"});
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->node_crash_rate_per_day, 0.25);
  EXPECT_EQ(plan->node_mean_downtime, 7200.0);
  EXPECT_EQ(plan->crash_buffer_loss, 0.5);
  EXPECT_EQ(plan->station_outage_rate_per_day, 0.125);
  EXPECT_EQ(plan->station_mean_outage, 1800.0);
  EXPECT_EQ(plan->transfer_failure_prob, 0.0625);
  EXPECT_EQ(plan->retry_backoff, 300.0);
  EXPECT_EQ(plan->retry_backoff_max, 1200.0);
  EXPECT_EQ(plan->dv_loss_prob, 0.03125);
  EXPECT_EQ(plan->dv_delay_prob, 0.015625);
  EXPECT_EQ(plan->seed, 42u);
  EXPECT_TRUE(plan->any());
}

TEST(FaultPlanCli, UnknownFaultKeyFailsLoudly) {
  try {
    (void)parse_cli({"--fault-transfre-fail", "0.1"});  // typo
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unknown fault option"), std::string::npos) << what;
    EXPECT_NE(what.find("fault-transfre-fail"), std::string::npos) << what;
    EXPECT_NE(what.find("docs/fault-injection.md"), std::string::npos) << what;
  }
}

// -- injector unit behaviour --------------------------------------------

TEST(FaultInjectorUnit, RetryBackoffDoublesUpToCap) {
  FaultPlan p;
  p.transfer_failure_prob = 0.5;
  p.retry_backoff = 600.0;
  p.retry_backoff_max = 3600.0;
  FaultInjector inj(p, 3, 4);
  EXPECT_EQ(inj.retry_backoff(1), 600.0);
  EXPECT_EQ(inj.retry_backoff(2), 1200.0);
  EXPECT_EQ(inj.retry_backoff(3), 2400.0);
  EXPECT_EQ(inj.retry_backoff(4), 3600.0);
  EXPECT_EQ(inj.retry_backoff(9), 3600.0);  // capped, no overflow
}

TEST(FaultInjectorUnit, OutageSetBookkeeping) {
  FaultInjector inj(FaultPlan{}, 3, 4);
  EXPECT_EQ(inj.nodes_down(), 0u);
  EXPECT_EQ(inj.stations_down(), 0u);
  inj.mark_node_down(1, 10.0);
  inj.mark_station_down(2, 10.0);
  inj.mark_station_down(3, 20.0);
  EXPECT_TRUE(inj.node_down(1));
  EXPECT_FALSE(inj.node_down(0));
  EXPECT_TRUE(inj.station_down(2));
  EXPECT_EQ(inj.nodes_down(), 1u);
  EXPECT_EQ(inj.stations_down(), 2u);
  inj.mark_node_up(1, 30.0);
  inj.mark_station_up(2, 30.0);
  EXPECT_FALSE(inj.node_down(1));
  EXPECT_EQ(inj.stations_down(), 1u);

  AuditReport report;
  inj.audit(report);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(FaultInjectorUnit, DegenerateProbabilitiesNeedNoRandomness) {
  FaultPlan p;
  p.crash_buffer_loss = 1.0;
  FaultInjector all(p, 3, 4);
  p.crash_buffer_loss = 0.0;
  FaultInjector none(p, 3, 4);
  for (int i = 0; i < 32; ++i) {
    EXPECT_TRUE(all.draw_crash_packet_loss());
    EXPECT_FALSE(none.draw_crash_packet_loss());
  }
  // Zero-probability control faults likewise never fire.
  EXPECT_FALSE(none.draw_dv_loss());
  EXPECT_FALSE(none.draw_dv_delay());
}

TEST(FaultInjectorUnit, SameSeedSameDrawSequence) {
  FaultPlan p;
  p.seed = 1234;
  p.transfer_failure_prob = 0.5;
  p.node_crash_rate_per_day = 0.5;
  p.station_outage_rate_per_day = 0.5;
  FaultInjector a(p, 3, 4);
  FaultInjector b(p, 3, 4);
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(a.draw_transfer_failure(), b.draw_transfer_failure());
    EXPECT_EQ(a.draw_crash_gap(), b.draw_crash_gap());
    EXPECT_EQ(a.draw_outage_gap(), b.draw_outage_gap());
    EXPECT_EQ(a.draw_downtime(), b.draw_downtime());
    EXPECT_EQ(a.draw_outage_duration(), b.draw_outage_duration());
  }
}

TEST(FaultInjectorDeathTest, DoubleCrashAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        FaultInjector inj(FaultPlan{}, 3, 4);
        inj.mark_node_down(0, 1.0);
        inj.mark_node_down(0, 2.0);  // plan bug: node is already down
      },
      "");
}

// -- the transition log ---------------------------------------------------

using Transition = FaultInjector::Transition;
using Kind = FaultInjector::Transition::Kind;

TEST(FaultLog, RecordsEveryTransitionInOrder) {
  FaultInjector inj(FaultPlan{}, 3, 4);
  inj.mark_node_down(1, 10.0);
  inj.mark_station_down(2, 10.0);
  inj.mark_node_up(1, 25.0);
  inj.mark_station_up(2, 40.0);
  inj.mark_node_down(1, 40.0);
  const std::vector<Transition> log(inj.log().begin(), inj.log().end());
  ASSERT_EQ(log.size(), 5u);
  const std::vector<std::tuple<double, std::uint32_t, Kind>> expected = {
      {10.0, 1, Kind::kNodeDown},
      {10.0, 2, Kind::kStationDown},
      {25.0, 1, Kind::kNodeUp},
      {40.0, 2, Kind::kStationUp},
      {40.0, 1, Kind::kNodeDown}};
  for (std::size_t i = 0; i < log.size(); ++i) {
    EXPECT_EQ(std::make_tuple(log[i].time, log[i].id, log[i].kind),
              expected[i])
        << "entry " << i;
  }
  EXPECT_TRUE(inj.node_down(1));
  EXPECT_FALSE(inj.station_down(2));
}

// The image of an injector whose log is: node 0 down at 1, node 1 down
// at 2, station 0 down at 3, node 0 up at 4, station 0 up at 5, station
// 1 down at 6.  `patch` edits entry `entry` (time f64, id u32, kind u8;
// 13 bytes each) before the load.
constexpr std::size_t kLogEntries = 6;

std::vector<std::uint8_t> log_image() {
  FaultInjector inj(FaultPlan{}, 3, 4);
  inj.mark_node_down(0, 1.0);
  inj.mark_node_down(1, 2.0);
  inj.mark_station_down(0, 3.0);
  inj.mark_node_up(0, 4.0);
  inj.mark_station_up(0, 5.0);
  inj.mark_station_down(1, 6.0);
  persist::Writer w;
  inj.save(w);
  return w.buffer();
}

// Offset of entry `i`: past the stream header, four RNG states of four
// u64 words and the entry count.
std::size_t entry_at(std::size_t i) {
  return persist::kMagicSize + 8 + 4 * 4 * 8 + 8 + 13 * i;
}

void put(std::vector<std::uint8_t>& bytes, std::size_t at, std::uint64_t v,
         std::size_t width) {
  for (std::size_t i = 0; i < width; ++i) {
    bytes[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

TEST(FaultLog, LoadRebuildsTheDownSets) {
  const std::vector<std::uint8_t> image = log_image();
  ASSERT_EQ(image.size(), entry_at(kLogEntries));
  FaultInjector inj(FaultPlan{}, 3, 4);
  inj.mark_node_down(2, 0.5);  // state the load must replace
  persist::Reader r(image);
  inj.load(r);
  EXPECT_EQ(inj.log().size(), kLogEntries);
  EXPECT_FALSE(inj.node_down(0));
  EXPECT_TRUE(inj.node_down(1));
  EXPECT_FALSE(inj.node_down(2));
  EXPECT_FALSE(inj.station_down(0));
  EXPECT_TRUE(inj.station_down(1));
  EXPECT_EQ(inj.nodes_down(), 1u);
  EXPECT_EQ(inj.stations_down(), 1u);
  persist::Writer w;
  inj.save(w);
  EXPECT_EQ(w.buffer(), image);
}

struct LogForgery {
  const char* name;
  std::size_t entry;
  std::size_t field;  // 0 time, 8 id, 12 kind
  std::uint64_t value;
  std::size_t width;
  const char* message;
};

class FaultLogLoad : public ::testing::TestWithParam<LogForgery> {};

TEST_P(FaultLogLoad, RefusesAForgedLog) {
  const LogForgery& f = GetParam();
  std::vector<std::uint8_t> image = log_image();
  put(image, entry_at(f.entry) + f.field, f.value, f.width);
  FaultInjector inj(FaultPlan{}, 3, 4);
  persist::Reader r(image);
  try {
    inj.load(r);
    ADD_FAILURE() << "forged log loaded; expected \"" << f.message << "\"";
  } catch (const persist::FormatError& e) {
    EXPECT_NE(std::string(e.what()).find(f.message), std::string::npos)
        << e.what();
  }
}

std::uint64_t bits(double d) { return std::bit_cast<std::uint64_t>(d); }
std::uint64_t kind(Kind k) { return static_cast<std::uint64_t>(k); }

INSTANTIATE_TEST_SUITE_P(
    Forgeries, FaultLogLoad,
    ::testing::Values(
        LogForgery{"BackInTime", 3, 0, bits(2.5), 8, "goes back in time"},
        LogForgery{"NanTime", 1, 0,
                   bits(std::numeric_limits<double>::quiet_NaN()), 8,
                   "goes back in time"},
        LogForgery{"NodeOutOfRange", 1, 8, 3, 4, "out of range"},
        LogForgery{"StationOutOfRange", 5, 8, 4, 4, "out of range"},
        LogForgery{"DownsADownNode", 1, 8, 0, 4, "already down"},
        LogForgery{"RaisesAnUpNode", 3, 8, 2, 4, "already up"},
        LogForgery{"DownsADownStation", 4, 12, kind(Kind::kStationDown), 1,
                   "already down"},
        LogForgery{"RaisesAnUpStation", 4, 8, 1, 4, "already up"},
        LogForgery{"UnknownKind", 0, 12, 4, 1, "transition kind"}),
    [](const auto& info) { return std::string(info.param.name); });

// -- scenarios over the relay chain -------------------------------------

TEST(FaultRun, ScheduledCrashLosesBufferedPackets) {
  const auto trace = relay_chain_trace(10.0);
  auto cfg = relay_chain_workload();
  cfg.faults.emplace();
  // Node 0 ferries every packet off L0; crash it mid-transit (after it
  // leaves L0 loaded, before it can upload at L1) with full buffer loss
  // and keep it down for a day.
  cfg.faults->node_crashes.push_back(
      {0, 4.0 * kDay + 45.0 * kMinute, 1.0 * kDay});
  cfg.faults->crash_buffer_loss = 1.0;
  DtnFlowRouter router;
  Network net(trace, router, cfg);
  net.run();
  net.validate_invariants();

  const auto& c = net.counters();
  EXPECT_EQ(c.node_crashes, 1u);
  EXPECT_EQ(c.node_reboots, 1u);
  EXPECT_GT(c.packets_lost_fault, 0u);
  EXPECT_EQ(c.delivered + c.packets_lost_fault + c.dropped_ttl, c.generated);
  // The crash also destroys any distance vector the node was carrying
  // (or at least fires the router's crash hook).
  EXPECT_LT(c.delivered, c.generated);
}

TEST(FaultRun, CrashWithoutBufferLossPreservesPackets) {
  const auto trace = relay_chain_trace(10.0);
  auto cfg = relay_chain_workload();
  cfg.faults.emplace();
  cfg.faults->node_crashes.push_back(
      {0, 4.0 * kDay + 45.0 * kMinute, 2.0 * kHour});
  cfg.faults->crash_buffer_loss = 0.0;  // buffer survives the reboot
  DtnFlowRouter router;
  Network net(trace, router, cfg);
  net.run();
  net.validate_invariants();
  EXPECT_EQ(net.counters().node_crashes, 1u);
  EXPECT_EQ(net.counters().packets_lost_fault, 0u);
  EXPECT_GT(net.counters().delivered, 0u);
}

TEST(FaultRun, ScheduledOutageIsMeasuredThroughRecovery) {
  const auto trace = relay_chain_trace(10.0);
  auto cfg = relay_chain_workload();
  cfg.faults.emplace();
  // Take the mid-chain station down across the packet burst.
  cfg.faults->station_outages.push_back({1, 4.0 * kDay, 4.5 * kDay});
  DtnFlowRouter router;
  Network net(trace, router, cfg);
  net.run();
  net.validate_invariants();

  const auto& c = net.counters();
  EXPECT_EQ(c.station_outages, 1u);
  EXPECT_EQ(c.station_recoveries, 1u);
  // Recovery time was measured: recovery -> first successful station
  // transfer at L1 (the next shuttle visit, so well under a period).
  ASSERT_EQ(c.outage_recovery_delays.size(), 1u);
  EXPECT_GT(c.outage_recovery_delays[0], 0.0);
  EXPECT_LE(c.outage_recovery_delays[0], 4.0 * kHour);
  // The router saw the outage and the recovery through its hooks.
  EXPECT_EQ(router.diagnostics().station_outages_seen, 1u);
  EXPECT_EQ(router.diagnostics().station_recoveries_seen, 1u);
  // Traffic still flows once the station is back.
  EXPECT_GT(c.delivered, 0u);
}

TEST(FaultRun, TransferFailuresRetryAndResume) {
  const auto trace = relay_chain_trace(10.0);
  auto cfg = relay_chain_workload();
  cfg.faults.emplace();
  cfg.faults->transfer_failure_prob = 0.2;
  cfg.faults->retry_backoff = 10.0 * kMinute;
  cfg.faults->retry_backoff_max = kHour;
  DtnFlowRouter router;
  Network net(trace, router, cfg);
  net.run();
  net.validate_invariants();

  const auto& c = net.counters();
  EXPECT_GT(c.transfers_interrupted, 0u);
  // Packets interrupted mid-contact later made it across: the
  // retry/backoff ledger resumed them instead of losing them.
  EXPECT_GT(c.transfers_resumed, 0u);
  EXPECT_GT(c.delivered, 0u);
}

TEST(FaultRun, CertainTransferFailureBlocksEverything) {
  const auto trace = relay_chain_trace(10.0);
  auto cfg = relay_chain_workload();
  cfg.faults.emplace();
  cfg.faults->transfer_failure_prob = 1.0;
  cfg.faults->retry_backoff = 30.0 * kDay;  // never retries within TTL
  cfg.faults->retry_backoff_max = 30.0 * kDay;
  DtnFlowRouter router;
  Network net(trace, router, cfg);
  net.run();
  net.validate_invariants();
  EXPECT_EQ(net.counters().delivered, 0u);
  EXPECT_GT(net.counters().transfers_interrupted, 0u);
  EXPECT_EQ(net.counters().transfers_resumed, 0u);
  // Re-attempts inside the (enormous) backoff window are refused
  // outright rather than drawn again.
  EXPECT_GT(net.counters().transfers_blocked_fault, 0u);
}

TEST(FaultRun, FaultedRunsAreBitReproducible) {
  const auto trace = relay_chain_trace(10.0);
  auto cfg = relay_chain_workload();
  cfg.packets_per_landmark_per_day = 4.0;  // add RNG-driven workload too
  cfg.faults.emplace();
  cfg.faults->seed = 99;
  cfg.faults->node_crash_rate_per_day = 0.2;
  cfg.faults->node_mean_downtime = 6.0 * kHour;
  cfg.faults->station_outage_rate_per_day = 0.2;
  cfg.faults->station_mean_outage = 6.0 * kHour;
  cfg.faults->transfer_failure_prob = 0.1;
  cfg.faults->dv_loss_prob = 0.05;
  cfg.faults->dv_delay_prob = 0.1;

  auto run_once = [&] {
    DtnFlowRouter router;
    Network net(trace, router, cfg);
    net.run();
    net.validate_invariants();
    return net.counters();
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a, b);  // bit-exact, vectors included
  // The stochastic plan actually did something.
  EXPECT_GT(a.node_crashes + a.station_outages + a.transfers_interrupted, 0u);
}

TEST(FaultRun, DifferentFaultSeedsDiverge) {
  const auto trace = relay_chain_trace(10.0);
  auto cfg = relay_chain_workload();
  cfg.faults.emplace();
  cfg.faults->node_crash_rate_per_day = 0.5;
  cfg.faults->station_outage_rate_per_day = 0.5;
  cfg.faults->transfer_failure_prob = 0.2;

  auto counters_with_seed = [&](std::uint64_t seed) {
    auto wl = cfg;
    wl.faults->seed = seed;
    DtnFlowRouter router;
    Network net(trace, router, wl);
    net.run();
    return net.counters();
  };
  EXPECT_NE(counters_with_seed(1), counters_with_seed(2));
}

// -- control-plane faults and graceful degradation ----------------------

TEST(FaultRun, DvLossStarvesRoutingConvergence) {
  const auto trace = relay_chain_trace(10.0);
  auto cfg = relay_chain_workload();
  cfg.faults.emplace();
  cfg.faults->dv_loss_prob = 1.0;  // every carried DV dies in transit
  DtnFlowRouter router;
  Network net(trace, router, cfg);
  net.run();
  net.validate_invariants();
  EXPECT_GT(router.diagnostics().dv_carriers_lost, 0u);
  // With no DV ever delivered, remote routes never form and control
  // traffic stays below the healthy run's.
  DtnFlowRouter healthy_router;
  Network healthy(trace, healthy_router, relay_chain_workload());
  healthy.run();
  EXPECT_LT(net.counters().control_entries, healthy.counters().control_entries);
}

TEST(FaultRun, DvDelayDefersButEventuallyConverges) {
  const auto trace = relay_chain_trace(10.0);
  auto cfg = relay_chain_workload();
  cfg.faults.emplace();
  cfg.faults->dv_delay_prob = 0.5;
  DtnFlowRouter router;
  Network net(trace, router, cfg);
  net.run();
  net.validate_invariants();
  EXPECT_GT(router.diagnostics().dv_deliveries_deferred, 0u);
  // Delay is not loss: packets still get through.
  EXPECT_GT(net.counters().delivered, 0u);
}

TEST(FaultRun, OutageRecoveryReconvergesTables) {
  const auto trace = relay_chain_trace(14.0);
  auto cfg = relay_chain_workload();
  cfg.faults.emplace();
  // L1 goes dark for 4 days: it accepts no distance vector and its
  // frozen table advertises nothing new.
  cfg.faults->station_outages.push_back({1, 5.0 * kDay, 9.0 * kDay});
  DtnFlowRouter router;
  Network net(trace, router, cfg);
  net.run();
  net.validate_invariants();
  EXPECT_EQ(router.diagnostics().station_outages_seen, 1u);
  EXPECT_EQ(router.diagnostics().station_recoveries_seen, 1u);
  // After the recovery the first accepted DV re-converges the tables.
  EXPECT_GT(router.diagnostics().post_outage_reconvergences, 0u);
}

TEST(FaultRun, FallbackNextHopRoutesAroundOutage) {
  // Diamond: dst 3 reachable via 1 (fast, every period) or via 2 (slow,
  // every other period) — the primary next hop from L0 is 1 with backup
  // 2.  An outage on station 1 across the burst forces dispatch onto
  // the backup.
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
  add_shuttle(0, 0, 1, 0.0, 1);             // A: the fast primary leg
  add_shuttle(1, 1, 3, 61.0 * kMinute, 1);  // B
  add_shuttle(2, 0, 2, 2.0 * kMinute, 2);   // C: slower backup leg
  add_shuttle(3, 2, 3, 63.0 * kMinute, 2);  // D
  t.finalize();

  WorkloadConfig cfg;
  cfg.packets_per_landmark_per_day = 0.0;
  cfg.warmup_fraction = 0.0;
  cfg.time_unit = 0.5 * kDay;
  cfg.node_memory_kb = 50;
  cfg.ttl = 5.0 * kDay;
  for (int i = 0; i < 40; ++i) {
    cfg.manual_packets.push_back({0, 3, 8.0 * kDay + i * 10.0 * kMinute, 0.0});
  }
  cfg.faults.emplace();
  cfg.faults->station_outages.push_back({1, 8.0 * kDay, 12.0 * kDay});

  DtnFlowRouter router;
  Network net(t, router, cfg);
  net.run();
  net.validate_invariants();
  // Dispatch fell back to the surviving route and packets arrived
  // through it while the primary was dark.
  EXPECT_GT(router.diagnostics().fallback_next_hops, 0u);
  EXPECT_GT(net.counters().delivered, 0u);
}

// -- §IV-E recovery mechanisms under injected faults ---------------------

TEST(FaultRun, LoopCorrectionSurvivesCarrierCrash) {
  const auto trace = relay_chain_trace(16.0);
  DtnFlowConfig rc;
  rc.loop_correction = true;
  // Pin a 0<->1 routing cycle for destination 3 once tables have formed
  // (unit 8 = day 4), then crash the carrier serving the looped leg
  // while the correction machinery is active.
  rc.loop_injections = {{3, {0, 1}, 8}};
  DtnFlowRouter router(rc);
  auto cfg = relay_chain_workload();
  cfg.ttl = 6.0 * kDay;
  cfg.manual_packets.clear();
  cfg.manual_packets.push_back({0, 3, 6.0 * kDay, 0.0});
  cfg.faults.emplace();
  cfg.faults->node_crashes.push_back({0, 6.0 * kDay + 2.0 * kHour, 12.0 * kHour});
  cfg.faults->crash_buffer_loss = 0.0;  // the crash tests control flow,
                                        // not packet loss
  Network net(trace, router, cfg);
  net.run();
  net.validate_invariants();
  // The loop was still detected and corrected despite the crash in the
  // middle of the ping-pong, and the packet escaped the cycle.
  EXPECT_GT(router.diagnostics().loops_detected, 0u);
  EXPECT_GT(router.diagnostics().loops_corrected, 0u);
  EXPECT_EQ(net.counters().delivered, 1u);
}

// The §IV-E.1 dead-end trace from the router suite: node D shuttles
// L0<->L1 then unexpectedly parks at L2 ("garage") until the end; node
// E shuttles L2<->L1 every other period and is the only way out of L2.
trace::Trace dead_end_trace(double park_at, double days) {
  trace::Trace t(2, 3);
  const double period = 2.0 * kHour;
  const auto periods = static_cast<std::size_t>(days * kDay / period);
  for (std::size_t p = 0; p < periods; ++p) {
    const double base = static_cast<double>(p) * period;
    if (base + period <= park_at) {
      t.add_visit({0, 0, base, base + 30.0 * kMinute});
      t.add_visit({0, 1, base + 60.0 * kMinute, base + 90.0 * kMinute});
    }
    if (p % 2 == 0) {
      t.add_visit({1, 2, base + 30.0 * kMinute, base + 55.0 * kMinute});
      t.add_visit({1, 1, base + 95.0 * kMinute, base + 115.0 * kMinute});
    }
  }
  t.add_visit({0, 0, park_at, park_at + 30.0 * kMinute});
  t.add_visit({0, 2, park_at + 60.0 * kMinute, days * kDay});
  t.finalize();
  return t;
}

TEST(FaultRun, DeadEndRescueWaitsOutStationOutage) {
  // D parks at L2 with the packet while L2's *station* is down: the
  // dead-end rescue (hand the stranded packet to the local station)
  // must defer until the station recovers, then still get the packet
  // home — §IV-E.1 exercised by an injected outage, not inject_loop.
  const double park_day = 6.0;
  const auto trace = dead_end_trace(park_day * kDay, 12.0);

  auto run_with_outage_until = [&](double outage_end_day) {
    core::DtnFlowConfig rc;
    rc.dead_end_prevention = true;
    rc.dead_end_theta = 2.0;
    DtnFlowRouter router(rc);
    WorkloadConfig cfg;
    cfg.packets_per_landmark_per_day = 0.0;
    cfg.warmup_fraction = 0.0;
    cfg.time_unit = 0.5 * kDay;
    cfg.node_memory_kb = 10;
    cfg.ttl = 5.0 * kDay;
    cfg.manual_packets = {{0, 1, park_day * kDay + 10.0 * kMinute, 0.0}};
    cfg.faults.emplace();
    cfg.faults->station_outages.push_back(
        {2, park_day * kDay, outage_end_day * kDay});
    Network net(trace, router, cfg);
    net.run();
    net.validate_invariants();
    const auto& c = net.counters();
    return std::make_tuple(c.delivered, router.diagnostics().dead_ends_detected,
                           c.delivery_delays.empty() ? 0.0
                                                     : c.delivery_delays[0]);
  };

  const auto [delivered_short, deadends_short, delay_short] =
      run_with_outage_until(6.5);
  const auto [delivered_long, deadends_long, delay_long] =
      run_with_outage_until(9.0);
  // Both outages end in time: the rescue fires after recovery and the
  // packet is delivered either way, just later under the longer outage.
  EXPECT_EQ(delivered_short, 1u);
  EXPECT_GT(deadends_short, 0u);
  EXPECT_EQ(delivered_long, 1u);
  EXPECT_GT(deadends_long, 0u);
  EXPECT_GT(delay_long, delay_short);
}

TEST(FaultRun, DeadEndDetectionIgnoresCrashedCarriers) {
  // A crashed node must not be flagged as a dead-ended carrier while it
  // is down: the §IV-E.1 rescue scan skips down nodes, and the run's
  // invariants stay clean under periodic audits.
  const auto trace = relay_chain_trace(12.0);
  DtnFlowConfig rc;
  rc.dead_end_prevention = true;
  DtnFlowRouter router(rc);
  auto cfg = relay_chain_workload();
  cfg.audit_period_events = 256;  // periodic audits throughout the run
  cfg.faults.emplace();
  cfg.faults->node_crashes.push_back({1, 4.0 * kDay, 2.0 * kDay});
  cfg.faults->crash_buffer_loss = 1.0;
  Network net(trace, router, cfg);
  net.run();
  net.validate_invariants();
  EXPECT_GT(net.auditor().audits_run(), 0u);
  EXPECT_EQ(net.counters().node_crashes, 1u);
}

// Forwards to a DtnFlowRouter (which is final) the hooks a one-node run
// without station outages reaches, and records what station dispatch
// did with each newly generated packet: the node that took it (kNoNode
// when it stayed at the station), whether node 0 was down, and how many
// station transfers the fault layer refused.
class GeneratedDispatchRecorder final : public net::Router {
 public:
  struct Dispatch {
    net::NodeId carrier;
    bool node0_down;
    std::uint64_t blocked;
  };

  explicit GeneratedDispatchRecorder(DtnFlowRouter& inner) : inner_(inner) {}

  [[nodiscard]] std::string name() const override { return inner_.name(); }
  [[nodiscard]] bool uses_stations() const override {
    return inner_.uses_stations();
  }
  void on_init(Network& net) override { inner_.on_init(net); }
  void on_arrival(Network& net, net::NodeId node, net::LandmarkId l) override {
    inner_.on_arrival(net, node, l);
  }
  void on_departure(Network& net, net::NodeId node,
                    net::LandmarkId l) override {
    inner_.on_departure(net, node, l);
  }
  void on_packet_generated(Network& net, net::PacketId pid) override {
    const std::uint64_t blocked = net.counters().transfers_blocked_fault;
    inner_.on_packet_generated(net, pid);
    const net::Packet& p = net.packet(pid);
    dispatches.push_back(
        {p.state == net::PacketState::kOnNode ? p.holder : trace::kNoNode,
         net.node_down(0), net.counters().transfers_blocked_fault - blocked});
  }
  void on_time_unit(Network& net, std::size_t unit_index) override {
    inner_.on_time_unit(net, unit_index);
  }
  void on_node_crash(Network& net, net::NodeId node) override {
    inner_.on_node_crash(net, node);
  }
  void audit(const Network& net, AuditReport& report) const override {
    inner_.audit(net, report);
  }

  std::vector<Dispatch> dispatches;

 private:
  DtnFlowRouter& inner_;
};

TEST(FaultRun, StationDispatchSkipsACrashedNodeUntilItsReboot) {
  // One node shuttles L0 <-> L1 for two days, so at L0 it is predicted
  // to go to L1, then sits at L0 for six hours.  It crashes one hour
  // into that visit and reboots two hours later; nothing else arrives
  // at L0 meanwhile.  Station dispatch scores the present nodes per
  // packet: the node takes the packet before the crash, is never chosen
  // (so no transfer to it is even tried) while down, and takes a new
  // packet again after the reboot although no arrival happened since.
  const double period = 2.0 * kHour;
  const double park = 2.0 * kDay;
  trace::Trace t(1, 2);
  for (double base = 0.0; base + period <= park; base += period) {
    t.add_visit({0, 0, base, base + 30.0 * kMinute});
    t.add_visit({0, 1, base + 60.0 * kMinute, base + 90.0 * kMinute});
  }
  t.add_visit({0, 0, park, park + 6.0 * kHour});
  t.add_visit({0, 1, park + 7.0 * kHour, park + 8.0 * kHour});
  t.finalize();

  WorkloadConfig cfg;
  cfg.packets_per_landmark_per_day = 0.0;
  cfg.warmup_fraction = 0.0;
  cfg.time_unit = 0.5 * kDay;
  cfg.node_memory_kb = 10;
  cfg.ttl = 2.0 * kDay;
  for (const double at : {0.5, 1.5, 2.0, 3.5}) {
    cfg.manual_packets.push_back({0, 1, park + at * kHour, 0.0});
  }
  cfg.faults.emplace();
  cfg.faults->node_crashes.push_back({0, park + 1.0 * kHour, 2.0 * kHour});
  cfg.faults->crash_buffer_loss = 0.0;

  DtnFlowRouter inner;
  GeneratedDispatchRecorder router(inner);
  Network net(t, router, cfg);
  net.run();
  net.validate_invariants();
  ASSERT_EQ(net.counters().node_crashes, 1u);
  ASSERT_EQ(net.counters().node_reboots, 1u);

  const auto& d = router.dispatches;
  ASSERT_EQ(d.size(), 4u);
  EXPECT_FALSE(d[0].node0_down);
  EXPECT_EQ(d[0].carrier, 0u);
  for (const std::size_t i : {1u, 2u}) {
    EXPECT_TRUE(d[i].node0_down) << "packet " << i;
    EXPECT_EQ(d[i].carrier, trace::kNoNode) << "packet " << i;
    EXPECT_EQ(d[i].blocked, 0u) << "packet " << i;
  }
  EXPECT_FALSE(d[3].node0_down);
  EXPECT_EQ(d[3].carrier, 0u);
}

// -- fault-state invariant auditing (negative tests) ---------------------

bool any_failure_mentions(const AuditReport& report, const std::string& what) {
  for (const auto& f : report.failures()) {
    if (f.detail.find(what) != std::string::npos ||
        f.check.find(what) != std::string::npos) {
      return true;
    }
  }
  return false;
}

TEST(FaultAudit, HealthyFaultedRunPassesEveryCheck) {
  const auto trace = relay_chain_trace(10.0);
  auto cfg = relay_chain_workload();
  cfg.faults.emplace();
  cfg.faults->node_crashes.push_back({0, 4.0 * kDay, 12.0 * kHour});
  cfg.faults->transfer_failure_prob = 0.2;
  DtnFlowRouter router;
  Network net(trace, router, cfg);
  net.run();
  AuditReport report;
  net.audit(report);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(FaultAudit, DetectsLedgerIndexCorruption) {
  const auto trace = relay_chain_trace(10.0);
  auto cfg = relay_chain_workload();
  cfg.faults.emplace();
  // Every attempt fails and both the backoff and the TTL outlive the
  // trace: the ledger still holds live entries when the run ends (a TTL
  // drop would erase its packet's entry).
  cfg.ttl = 30.0 * kDay;
  cfg.faults->transfer_failure_prob = 1.0;
  cfg.faults->retry_backoff = 30.0 * kDay;
  cfg.faults->retry_backoff_max = 30.0 * kDay;
  DtnFlowRouter router;
  Network net(trace, router, cfg);
  net.run();

  ASSERT_TRUE(net.debug_corrupt_for_test(Network::Corruption::kLedgerIndex));
  AuditReport corrupted;
  net.audit(corrupted);
  EXPECT_FALSE(corrupted.ok());
  EXPECT_TRUE(any_failure_mentions(corrupted, "ledger"))
      << corrupted.to_string();

  // Revert: the failure came from the seeded corruption, not from
  // ambient state.
  ASSERT_TRUE(
      net.debug_corrupt_for_test(Network::Corruption::kLedgerIndex, -1));
  AuditReport reverted;
  net.audit(reverted);
  EXPECT_TRUE(reverted.ok()) << reverted.to_string();
}

TEST(FaultAudit, DetectsLossCounterCorruption) {
  const auto trace = relay_chain_trace(10.0);
  auto cfg = relay_chain_workload();
  cfg.faults.emplace();
  cfg.faults->node_crashes.push_back(
      {0, 4.0 * kDay + 45.0 * kMinute, 1.0 * kDay});
  DtnFlowRouter router;
  Network net(trace, router, cfg);
  net.run();
  ASSERT_GT(net.counters().packets_lost_fault, 0u);

  ASSERT_TRUE(
      net.debug_corrupt_for_test(Network::Corruption::kFaultLossCounter));
  AuditReport corrupted;
  net.audit(corrupted);
  EXPECT_FALSE(corrupted.ok());
  EXPECT_TRUE(any_failure_mentions(corrupted, "fault"))
      << corrupted.to_string();

  ASSERT_TRUE(
      net.debug_corrupt_for_test(Network::Corruption::kFaultLossCounter, -1));
  AuditReport reverted;
  net.audit(reverted);
  EXPECT_TRUE(reverted.ok()) << reverted.to_string();
}

}  // namespace
}  // namespace dtn
