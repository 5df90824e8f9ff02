// The invariant auditor's contract has two halves, and both need tests:
//
//  * positive — on a healthy replay every registered check passes, the
//    periodic auditor actually runs, and enabling it does not perturb
//    the deterministic results (bit-identical counters);
//  * negative — for every invariant the auditor claims to guard, seed
//    the corresponding corruption through a debug hook and prove the
//    audit reports it.  An auditor without negative tests is just a
//    very slow no-op.
#include "sim/invariant_auditor.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "core/dtn_flow_router.hpp"
#include "core/markov_predictor.hpp"
#include "core/routing_table.hpp"
#include "metrics/metrics.hpp"
#include "net/network.hpp"
#include "sim/event_queue.hpp"
#include "test_helpers.hpp"

namespace dtn {
namespace {

using core::DistanceVector;
using core::DtnFlowRouter;
using core::MarkovPredictor;
using core::RoutingTable;
using dtn::testing::relay_chain_trace;
using net::Network;
using net::WorkloadConfig;
using sim::AuditReport;
using sim::InvariantAuditor;
using trace::kDay;

bool any_failure_mentions(const AuditReport& report, const std::string& what) {
  for (const auto& f : report.failures()) {
    if (f.detail.find(what) != std::string::npos ||
        f.check.find(what) != std::string::npos) {
      return true;
    }
  }
  return false;
}

// -- registry / gating --------------------------------------------------

TEST(InvariantAuditor, DisabledAuditorNeverRuns) {
  InvariantAuditor auditor({/*enabled=*/false, /*period_events=*/1,
                            /*abort_on_failure=*/false});
  int calls = 0;
  auditor.register_check("probe", [&calls](AuditReport&) { ++calls; });
  for (std::uint64_t i = 1; i <= 100; ++i) auditor.on_boundary(i);
  EXPECT_EQ(calls, 0);
  EXPECT_EQ(auditor.audits_run(), 0u);
}

TEST(InvariantAuditor, PeriodGatesOnEvent) {
  InvariantAuditor auditor({/*enabled=*/true, /*period_events=*/10,
                            /*abort_on_failure=*/false});
  int calls = 0;
  auditor.register_check("probe", [&calls](AuditReport&) { ++calls; });
  for (std::uint64_t i = 1; i <= 95; ++i) auditor.on_boundary(i);
  EXPECT_EQ(calls, 9);  // every 10th event
  EXPECT_EQ(auditor.audits_run(), 9u);
}

TEST(InvariantAuditor, PeriodFiresOnlyAtMultiplesOfIt) {
  // A caller may start past zero (a resumed replay's first call comes
  // after its restored count): audits fire at the multiples of the
  // period, never at a count the previous audit is merely far from.
  InvariantAuditor auditor({/*enabled=*/true, /*period_events=*/10,
                            /*abort_on_failure=*/false});
  std::vector<std::uint64_t> audited_at;
  std::uint64_t executed = 0;
  auditor.register_check("probe", [&](AuditReport&) {
    audited_at.push_back(executed);
  });
  for (const std::uint64_t boundary : {3u, 7u, 12u, 15u, 20u, 21u, 25u, 40u}) {
    executed = boundary;
    auditor.on_boundary(executed);
  }
  EXPECT_EQ(audited_at, (std::vector<std::uint64_t>{20, 40}));
}

TEST(InvariantAuditor, ReportAttributesFailuresToChecks) {
  InvariantAuditor auditor({/*enabled=*/true, /*period_events=*/1,
                            /*abort_on_failure=*/false});
  auditor.register_check("good", [](AuditReport&) {});
  auditor.register_check("bad", [](AuditReport& r) { r.fail("broken thing"); });
  AuditReport report = auditor.audit_now();
  EXPECT_FALSE(report.ok());
  ASSERT_EQ(report.failures().size(), 1u);
  EXPECT_EQ(report.failures()[0].check, "bad");
  EXPECT_EQ(report.failures()[0].detail, "broken thing");
  EXPECT_NE(report.to_string().find("bad"), std::string::npos);
}

TEST(InvariantAuditor, ConfigFromEnvironment) {
  // Default: disabled.
  unsetenv("DTN_AUDIT");
  unsetenv("DTN_AUDIT_PERIOD");
  EXPECT_FALSE(InvariantAuditor::config_from_env().enabled);

  setenv("DTN_AUDIT", "1", 1);
  EXPECT_TRUE(InvariantAuditor::config_from_env().enabled);
  setenv("DTN_AUDIT", "0", 1);
  EXPECT_FALSE(InvariantAuditor::config_from_env().enabled);
  unsetenv("DTN_AUDIT");

  setenv("DTN_AUDIT_PERIOD", "4096", 1);
  const auto cfg = InvariantAuditor::config_from_env();
  EXPECT_TRUE(cfg.enabled);
  EXPECT_EQ(cfg.period_events, 4096u);
  unsetenv("DTN_AUDIT_PERIOD");
}

// -- event queue --------------------------------------------------------

sim::EventQueue filled_queue() {
  sim::EventQueue q;
  for (int i = 8; i >= 1; --i) {
    sim::Event ev;
    ev.time = static_cast<double>(i);
    q.schedule(ev);
  }
  return q;
}

TEST(EventQueueAudit, CleanQueuePasses) {
  const auto q = filled_queue();
  AuditReport report;
  q.audit(report);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(EventQueueAudit, DetectsHeapPropertyViolation) {
  auto q = filled_queue();
  // Rewrite a deep slot to a time earlier than its parent's: the event
  // array no longer forms a min-heap.
  q.debug_corrupt_key_for_test(q.size() - 1, 0.5);
  AuditReport report;
  q.audit(report);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(any_failure_mentions(report, "heap")) << report.to_string();
}

TEST(EventQueueAudit, DetectsHeadBehindLastPopped) {
  auto q = filled_queue();
  (void)q.pop();  // t=1
  (void)q.pop();  // t=2; scheduling before t=2 is now illegal
  q.debug_corrupt_key_for_test(0, 1.5);
  AuditReport report;
  q.audit(report);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(any_failure_mentions(report, "last popped")) << report.to_string();
}

// -- Markov predictor ---------------------------------------------------

MarkovPredictor trained_predictor() {
  MarkovPredictor p(/*num_landmarks=*/4, /*order=*/2);
  const trace::LandmarkId tour[] = {0, 1, 2, 0, 1, 3, 0, 1, 2, 0, 1, 2};
  for (const auto l : tour) p.record_visit(l);
  return p;
}

TEST(MarkovPredictorAudit, CleanPredictorPasses) {
  const auto p = trained_predictor();
  AuditReport report;
  p.audit(report);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(MarkovPredictorAudit, DetectsCorruptedArgmaxCache) {
  auto p = trained_predictor();
  ASSERT_TRUE(p.debug_corrupt_argmax_for_test());
  AuditReport report;
  p.audit(report);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(any_failure_mentions(report, "argmax")) << report.to_string();
}

// -- routing table ------------------------------------------------------

RoutingTable converged_table() {
  RoutingTable t(/*self=*/0, /*num_landmarks=*/4);
  t.set_link_delay(1, 10.0);
  t.set_link_delay(2, 100.0);
  const DistanceVector dv{1, 0, {10.0, 0.0, 25.0, 60.0}};
  (void)t.merge(dv);
  (void)t.route(3);  // force a full recompute: every column is clean
  return t;
}

TEST(RoutingTableAudit, CleanTablePasses) {
  const auto t = converged_table();
  AuditReport report;
  t.audit(report);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(RoutingTableAudit, DetectsCleanColumnGoneStale) {
  auto t = converged_table();
  // Change an advertised delay *without* marking the column dirty — the
  // bug class where an update path forgets its mark_dirty call.  The
  // cached "clean" column now disagrees with a from-scratch recompute.
  t.debug_corrupt_advertised_for_test(/*origin=*/1, /*dst=*/2, 1.0);
  AuditReport report;
  t.audit(report);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(any_failure_mentions(report, "from-scratch"))
      << report.to_string();
}

// -- network-level checks ----------------------------------------------

WorkloadConfig chain_workload() {
  WorkloadConfig cfg;
  cfg.packets_per_landmark_per_day = 20.0;
  cfg.warmup_fraction = 0.25;
  cfg.time_unit = 0.5 * kDay;
  cfg.node_memory_kb = 50;
  cfg.ttl = 2.0 * kDay;
  return cfg;
}

TEST(NetworkAudit, HealthyRunPassesAllChecks) {
  const auto trace = relay_chain_trace(6.0);
  DtnFlowRouter router;
  Network net(trace, router, chain_workload());
  net.run();
  // audit() and the checkpoint CRC check, which a resume leaves out.
  EXPECT_EQ(net.auditor().checks_registered(), 2u);
  AuditReport report;
  net.audit(report);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

// Present-set corruption is only observable while nodes are present,
// and a misplaced sweep watermark or packet holder only while packets
// are live, so all three are seeded mid-run: this router corrupts inside the first arrival
// callback that finds eligible state, audits, then reverts so the rest
// of the replay (and its swap-remove departures) stays sound.
class MidRunCorruptingRouter : public net::Router {
 public:
  explicit MidRunCorruptingRouter(Network::Corruption kind) : kind_(kind) {}
  [[nodiscard]] std::string name() const override { return "Corruptor"; }

  void on_arrival(Network& net, net::NodeId node, net::LandmarkId l) override {
    (void)node;
    (void)l;
    if (fired_) return;
    if (!net.debug_corrupt_for_test(kind_)) return;  // nothing to corrupt yet
    fired_ = true;
    net.audit(corrupted_report_);
    ASSERT_TRUE(net.debug_corrupt_for_test(kind_, -1));
    net.audit(reverted_report_);
  }

  Network::Corruption kind_;
  bool fired_ = false;
  AuditReport corrupted_report_;
  AuditReport reverted_report_;
};

void expect_mid_run_corruption_detected(
    Network::Corruption kind, const std::string& mention,
    const trace::Trace& trace = relay_chain_trace(2.0)) {
  MidRunCorruptingRouter router(kind);
  Network net(trace, router, chain_workload());
  net.run();
  ASSERT_TRUE(router.fired_);
  EXPECT_FALSE(router.corrupted_report_.ok());
  EXPECT_TRUE(any_failure_mentions(router.corrupted_report_, mention))
      << router.corrupted_report_.to_string();
  // After the revert the very same checks pass again — the failure came
  // from the seeded corruption, not from ambient state.
  EXPECT_TRUE(router.reverted_report_.ok())
      << router.reverted_report_.to_string();
}

TEST(NetworkAudit, DetectsPresentOrderCorruptionMidRun) {
  // Two present nodes in swapped order: the contacts routers observe
  // would come in an order no replay of the trace produces.  The relay
  // chain never puts two nodes at one landmark, so node 1 follows node
  // 0's shuttle ten minutes behind.
  trace::Trace t(2, 2);
  for (int p = 0; p < 8; ++p) {
    const double base = p * 2.0 * trace::kHour;
    for (const trace::NodeId n : {0u, 1u}) {
      const double at = base + n * 10.0 * trace::kMinute;
      t.add_visit({n, 0, at, at + 30.0 * trace::kMinute});
      t.add_visit(
          {n, 1, at + 60.0 * trace::kMinute, at + 90.0 * trace::kMinute});
    }
  }
  t.finalize();
  expect_mid_run_corruption_detected(Network::Corruption::kPresentOrder,
                                     "network.present_sets", t);
}

TEST(NetworkAudit, DetectsPacketHolderCorruptionMidRun) {
  // A live packet whose holder names a store that does not hold it.
  expect_mid_run_corruption_detected(Network::Corruption::kPacketHolder,
                                     "network.packet_table");
}

// -- periodic auditing during a replay ----------------------------------

TEST(NetworkAudit, PeriodicAuditingDoesNotPerturbDeterminism) {
  const auto trace = relay_chain_trace(6.0);

  DtnFlowRouter plain_router;
  Network plain(trace, plain_router, chain_workload());
  plain.run();

  auto audited_cfg = chain_workload();
  audited_cfg.audit_period_events = 64;
  DtnFlowRouter audited_router;
  Network audited(trace, audited_router, audited_cfg);
  audited.run();

  EXPECT_TRUE(audited.auditor().enabled());
  EXPECT_GT(audited.auditor().audits_run(), 0u);
  // Bit-exact: auditing only reads state.
  EXPECT_EQ(metrics::run_digest(plain, plain_router),
            metrics::run_digest(audited, audited_router));
}

// A corrupt simulation must not keep producing numbers: with periodic
// auditing on and abort_on_failure left at its production default, a
// seeded corruption kills the process at the next audit point.
class AbortingCorruptRouter : public net::Router {
 public:
  [[nodiscard]] std::string name() const override { return "Corruptor"; }
  void on_arrival(Network& net, net::NodeId node, net::LandmarkId l) override {
    (void)node;
    (void)l;
    if (fired_) return;
    fired_ = true;
    (void)net.debug_corrupt_for_test(Network::Corruption::kFaultLossCounter);
  }
  bool fired_ = false;
};

// -- derived routing-table state (docs/routing-hot-path.md) -------------

TEST(RoutingTableAudit, DetectsNeighbourListDesync) {
  auto t = converged_table();
  // Drop a linked landmark from the neighbor list without touching its
  // link delay — the bug class where a link update forgets the list the
  // column rescans iterate.
  t.debug_toggle_neighbour_for_test(/*v=*/2);
  AuditReport report;
  t.audit(report);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(any_failure_mentions(report, "neighbour list"))
      << report.to_string();
}

TEST(NetworkAuditDeathTest, PeriodicAuditorAbortsOnCorruption) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        const auto trace = relay_chain_trace(2.0);
        AbortingCorruptRouter router;
        auto cfg = chain_workload();
        cfg.audit_period_events = 1;
        Network net(trace, router, cfg);
        net.run();
      },
      "invariant violation");
}

}  // namespace
}  // namespace dtn
