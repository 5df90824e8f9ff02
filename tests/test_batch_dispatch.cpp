// Contact dispatch is one event at a time (src/net/network.hpp): every
// trace arrival and departure is its own dispatch, including each
// member of a same-(time, landmark) run.  Each scenario below pins the
// run digest (metrics::run_digest: every counter, per-packet vectors
// included, the router diagnostics, the event count and the final
// clock) of a per-event replay.
//
// Generated traces draw visit times continuously, so exact ties are
// rare there; the generator runs below pin the common case, and a
// hand-built tie-heavy trace (whole cohorts sharing identical visit
// windows) puts real same-time departure runs through the engine.  The
// same trace shows that checkpointed and audited runs observe the
// replay after every event, a suspension may fall inside a same-time
// run, and neither changes a bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "core/dtn_flow_router.hpp"
#include "metrics/metrics.hpp"
#include "net/network.hpp"
#include "persist/checkpoint.hpp"
#include "trace/campus_generator.hpp"
#include "trace/city_generator.hpp"
#include "trace/cursor.hpp"
#include "trace/trace.hpp"

namespace dtn {
namespace {

using net::Network;
using net::WorkloadConfig;
using trace::kDay;
using trace::kHour;
using trace::kMinute;

// What a replay's checks read: its run digest and the fields the
// sanity asserts look at.
struct Outcome {
  std::uint64_t digest;
  std::uint64_t generated;
  std::uint64_t delivered;
  std::uint64_t events;
  double now;
};

core::DtnFlowConfig router_config() {
  core::DtnFlowConfig rc;
  rc.dead_end_prevention = true;
  rc.load_balancing = true;
  rc.node_to_node_relay = true;
  return rc;
}

Outcome outcome(const Network& net, const core::DtnFlowRouter& router) {
  return {metrics::run_digest(net, router), net.counters().generated,
          net.counters().delivered, net.events_executed(), net.now()};
}

Outcome run(const trace::Trace& trace, const WorkloadConfig& cfg) {
  core::DtnFlowRouter router(router_config());
  Network net(trace, router, cfg);
  net.run();
  return outcome(net, router);
}

WorkloadConfig workload(std::uint32_t seed) {
  WorkloadConfig cfg;
  cfg.packets_per_landmark_per_day = 4.0;
  cfg.ttl = 4.0 * kDay;
  cfg.time_unit = 1.0 * kDay;
  cfg.warmup_fraction = 0.25;
  cfg.node_memory_kb = 30;
  cfg.seed = seed;
  return cfg;
}

TEST(BatchDispatch, CampusReplayMatchesUnbatchedBitForBit) {
  trace::CampusTraceConfig tc;
  tc.num_nodes = 60;
  tc.num_landmarks = 20;
  tc.num_communities = 5;
  tc.days = 10.0;
  tc.seed = 29;
  const auto trace = trace::generate_campus_trace(tc);

  const Outcome serial = run(trace, workload(3));
  EXPECT_EQ(serial.digest, 0x9313fa92421d6e55ull);
  EXPECT_GT(serial.generated, 50u);
  EXPECT_GT(serial.delivered, 0u);
}

TEST(BatchDispatch, CityReplayMatchesUnbatchedBitForBit) {
  trace::CityTraceConfig tc;  // scaled-down city tier
  tc.num_pedestrians = 180;
  tc.num_buses = 8;
  tc.num_landmarks = 40;
  tc.num_districts = 5;
  tc.days = 1.0;
  tc.seed = 31;
  const auto trace = trace::generate_city_trace(tc);

  WorkloadConfig cfg = workload(17);
  cfg.ttl = 0.5 * kDay;
  cfg.time_unit = 0.25 * kDay;
  cfg.packets_per_landmark_per_day = 2.0;
  cfg.node_memory_kb = 20;

  const Outcome serial = run(trace, cfg);
  EXPECT_EQ(serial.digest, 0x35a006e0053a62f0ull);
  EXPECT_GT(serial.delivered, 0u);
}

// Cohorts of nodes sharing *identical* visit windows: every contact
// event at a landmark arrives as a same-timestamp run.  Cohort c visits
// landmark c over [0, 30 min) and landmark c + 1 over [60, 90 min) of
// every 2 h period, starting at t = 0.
trace::Trace tie_heavy_trace(double days) {
  constexpr std::uint32_t kCohorts = 3;
  constexpr std::uint32_t kPerCohort = 4;
  constexpr std::uint32_t kNodes = kCohorts * kPerCohort;
  trace::Trace t(kNodes, kCohorts + 1);
  const auto periods =
      static_cast<std::size_t>(days * kDay / (2.0 * kHour));
  for (std::uint32_t c = 0; c < kCohorts; ++c) {
    for (std::uint32_t m = 0; m < kPerCohort; ++m) {
      const std::uint32_t n = c * kPerCohort + m;
      for (std::size_t p = 0; p < periods; ++p) {
        const double base = static_cast<double>(p) * 2.0 * kHour;
        t.add_visit({n, c, base, base + 30.0 * kMinute});
        t.add_visit(
            {n, c + 1, base + 60.0 * kMinute, base + 90.0 * kMinute});
      }
    }
  }
  t.finalize();
  return t;
}

WorkloadConfig tie_workload() {
  WorkloadConfig cfg;
  cfg.packets_per_landmark_per_day = 0.0;
  cfg.warmup_fraction = 0.0;
  cfg.time_unit = 0.5 * kDay;
  cfg.node_memory_kb = 10;
  cfg.ttl = 2.0 * kDay;
  for (int i = 0; i < 30; ++i) {
    cfg.manual_packets.push_back(
        {0, 3, 2.0 * kDay + i * 10.0 * kMinute, 0.0});
  }
  return cfg;
}

TEST(BatchDispatch, TieHeavyTraceMatchesUnbatchedBitForBit) {
  const auto trace = tie_heavy_trace(8.0);
  const Outcome serial = run(trace, tie_workload());
  EXPECT_EQ(serial.digest, 0x75b5e76863e055d5ull);
  EXPECT_GT(serial.delivered, 0u);
  EXPECT_EQ(run(tie_heavy_trace(6.0), tie_workload()).digest, 0xd8939711b19e480dull);
}

// -- checkpointed and audited runs observe every event --------------------

// Executed-event counts (1-based) of the first and last member of a
// same-(time, landmark) run of arrivals or departures, derived from the
// trace and the workload alone: trace events come out of the cursor, and static
// events (manual packets, sweep + tick pairs; tie_workload() draws no
// Poisson traffic) precede a trace event exactly when they are earlier
// — at equal times the cursor's seqs sort first.
struct SameTimeRun {
  std::uint64_t first = 0;
  std::uint64_t last = 0;
  double time = 0.0;
};

std::uint64_t static_events_before(const WorkloadConfig& cfg, double t) {
  std::uint64_t n = 0;
  for (const auto& mp : cfg.manual_packets) n += mp.time < t ? 1 : 0;
  // The tie-heavy trace starts at t = 0, so unit u ends at u * time_unit.
  for (double u = cfg.time_unit; u < t; u += cfg.time_unit) n += 2;
  return n;
}

SameTimeRun first_run_after(const trace::Trace& trace,
                            const WorkloadConfig& cfg, sim::EventKind kind,
                            double after) {
  trace::TraceCursor cursor(trace);
  std::uint64_t consumed = 0;
  while (!cursor.exhausted()) {
    const sim::Event head = cursor.peek();
    cursor.advance();
    ++consumed;
    if (head.kind != kind || head.time <= after) {
      continue;
    }
    const trace::LandmarkId l = trace.visits(head.a)[head.b].landmark;
    std::uint64_t len = 1;
    while (!cursor.exhausted() &&
           cursor.peek().kind == kind &&
           cursor.peek().time == head.time &&
           trace.visits(cursor.peek().a)[cursor.peek().b].landmark == l) {
      cursor.advance();
      ++len;
    }
    if (len < 2) continue;
    const std::uint64_t before = static_events_before(cfg, head.time);
    return {consumed + before, consumed + len - 1 + before, head.time};
  }
  return {};
}

std::uint64_t executed_from_path(const std::string& path) {
  // ckpt-<zero padded count>.dtnckpt
  const auto base = std::filesystem::path(path).stem().string();
  return std::stoull(base.substr(base.find('-') + 1));
}

TEST(BatchDispatch, CheckpointedRunSuspendsAtEveryEventOfADepartureRun) {
  const auto trace = tie_heavy_trace(6.0);
  const WorkloadConfig cfg = tie_workload();
  const Outcome full = run(trace, cfg);
  // The event model above accounts for every event of the replay.
  ASSERT_EQ(full.events, trace::TraceCursor(trace).total_events() +
                             static_events_before(cfg, full.now + 1.0));

  // A run with packets in flight: past the first manual packets.
  const SameTimeRun dep = first_run_after(
      trace, cfg, sim::EventKind::kDeparture, 2.5 * kDay);
  ASSERT_GT(dep.last, dep.first);

  // Below `last`, part of the run is still pending: the snapshot splits
  // the same-time run, and the resumed process departs the rest.
  for (std::uint64_t stop = dep.first; stop <= dep.last; ++stop) {
    SCOPED_TRACE("suspended after event " + std::to_string(stop));
    persist::CheckpointConfig cc;
    cc.dir = (std::filesystem::path(::testing::TempDir()) /
              "dtn_batch_ckpt_mid_run")
                 .string();
    std::filesystem::remove_all(cc.dir);
    cc.stop_after_events = stop;
    {
      persist::CheckpointManager mgr(cc);
      core::DtnFlowRouter router(router_config());
      Network net(trace, router, cfg);
      ASSERT_FALSE(net.run(mgr));
      EXPECT_EQ(net.events_executed(), stop);
      EXPECT_EQ(net.now(), dep.time);
      const auto files = mgr.list();
      ASSERT_EQ(files.size(), 1u);
      EXPECT_EQ(executed_from_path(files.front()), stop);
    }
    cc.stop_after_events = 0;
    persist::CheckpointManager mgr(cc);
    core::DtnFlowRouter router(router_config());
    Network net(trace, router, cfg);
    ASSERT_TRUE(net.run(mgr));
    net.validate_invariants();
    EXPECT_EQ(metrics::run_digest(net, router), full.digest);
  }
}

TEST(BatchDispatch, RestoredPresenceMatchesTheLiveRunInsideAnArrivalRun) {
  // Locations, present lists and histories are not in the image: a
  // restore rebuilds them from the cursor.  Inside a same-time arrival
  // run the present list's order comes from node ids alone, and the
  // rebuild must reproduce it after every member.
  const auto trace = tie_heavy_trace(6.0);
  const WorkloadConfig cfg = tie_workload();
  const SameTimeRun arr =
      first_run_after(trace, cfg, sim::EventKind::kArrival, 2.5 * kDay);
  ASSERT_GT(arr.last, arr.first);

  std::size_t longest = 0;  // longest present list seen
  for (std::uint64_t stop = arr.first; stop <= arr.last; ++stop) {
    SCOPED_TRACE("suspended after event " + std::to_string(stop));
    persist::CheckpointConfig cc;
    cc.dir = (std::filesystem::path(::testing::TempDir()) /
              "dtn_batch_ckpt_presence")
                 .string();
    std::filesystem::remove_all(cc.dir);
    cc.stop_after_events = stop;
    persist::CheckpointManager mgr(cc);
    core::DtnFlowRouter live_router(router_config());
    Network live(trace, live_router, cfg);
    ASSERT_FALSE(live.run(mgr));
    EXPECT_EQ(live.now(), arr.time);

    core::DtnFlowRouter router(router_config());
    Network restored(trace, router, cfg);
    restored.debug_restore_for_test(mgr.read_latest());
    for (trace::LandmarkId l = 0; l < trace.num_landmarks(); ++l) {
      const auto want = live.nodes_at(l);
      EXPECT_TRUE(std::ranges::equal(restored.nodes_at(l), want))
          << "landmark " << l;
      longest = std::max(longest, want.size());
    }
    for (trace::NodeId n = 0; n < trace.num_nodes(); ++n) {
      SCOPED_TRACE("node " + std::to_string(n));
      EXPECT_EQ(restored.location(n), live.location(n));
      EXPECT_EQ(restored.previous_landmark(n), live.previous_landmark(n));
      EXPECT_TRUE(std::ranges::equal(restored.history(n), live.history(n)));
      EXPECT_FALSE(live.history(n).empty());
    }
  }
  EXPECT_GT(longest, 1u);
}

TEST(BatchDispatch, AuditedRunAuditsEveryEventAndMatchesUnauditedRun) {
  const auto trace = tie_heavy_trace(6.0);
  const Outcome plain = run(trace, tie_workload());

  WorkloadConfig cfg = tie_workload();
  cfg.audit_period_events = 1;  // audit after every event
  core::DtnFlowRouter router(router_config());
  Network net(trace, router, cfg);
  net.run();  // aborts on the first failed periodic audit

  sim::AuditReport report;
  net.audit(report);
  EXPECT_TRUE(report.ok()) << report.to_string();
  // One audit per event, same-time runs included, plus the final one.
  EXPECT_EQ(net.auditor().audits_run(), net.events_executed() + 1);
  EXPECT_EQ(metrics::run_digest(net, router), plain.digest);
}

// -- tie order across the three event sources ----------------------------

// One instant carrying an event of every static and dynamic kind.  The
// trace cursor, the static schedule and the fault queue each hold part
// of it, and their merge must dispatch it exactly as one queue ordered
// by schedule sequence would: trace, manual packet, TTL sweep, tick,
// workload generation, fault.

constexpr double kTieDays = 4.0;
constexpr double kTieManualTtl = 3.0 * kDay;  // tells the manual packet apart

// Logs every hook that fires at `at`: which event it stands for, the
// executed-event count (so an event without a hook, the sweep, shows as
// a gap) and the TTL drops so far (the sweep's effect).  Stateless for
// the replay, so checkpointable with an empty image.
class TieRecorder : public net::Router {
 public:
  struct Entry {
    std::string what;
    std::uint64_t executed;
    std::uint64_t dropped_ttl;
    friend bool operator==(const Entry&, const Entry&) = default;
  };

  explicit TieRecorder(double at) : at_(at) {}
  [[nodiscard]] std::string name() const override { return "TieRecorder"; }
  [[nodiscard]] bool checkpointable() const override { return true; }

  void on_arrival(Network& net, net::NodeId, net::LandmarkId) override {
    note(net, "arrival");
  }
  void on_packet_generated(Network& net, net::PacketId pid) override {
    if (first_generation < 0.0) first_generation = net.now();
    note(net, net.packet(pid).ttl == kTieManualTtl ? "manual" : "generation");
  }
  void on_time_unit(Network& net, std::size_t) override { note(net, "tick"); }
  void on_node_crash(Network& net, net::NodeId) override {
    note(net, "crash");
  }

  std::vector<Entry> log;
  double first_generation = -1.0;

 private:
  void note(const Network& net, const char* what) {
    if (net.now() != at_) return;
    log.push_back({what, net.events_executed(), net.counters().dropped_ttl});
  }
  double at_;
};

// Node 0 pins the trace to [0, 4 days]; node 1, when `arrival_at` >= 0,
// adds one visit starting exactly then.
trace::Trace tie_order_trace(double arrival_at) {
  trace::Trace t(2, 2);
  t.add_visit({0, 0, 0.0, kHour});
  t.add_visit({0, 0, kTieDays * kDay - kHour, kTieDays * kDay});
  if (arrival_at >= 0.0) t.add_visit({1, 1, arrival_at, arrival_at + kHour});
  t.finalize();
  return t;
}

WorkloadConfig tie_order_workload() {
  WorkloadConfig cfg;
  cfg.packets_per_landmark_per_day = 1.0;
  cfg.warmup_fraction = 0.0;
  cfg.ttl = kTieDays * kDay;
  cfg.seed = 11;
  return cfg;
}

TEST(BatchDispatch, OneInstantDispatchesTraceStaticThenDynamicEvents) {
  // The first Poisson generation depends only on the seed, the rate and
  // the trace's span and landmark count, so a probe replay finds it.
  double at = -1.0;
  {
    const auto probe_trace = tie_order_trace(-1.0);
    TieRecorder probe(-1.0);
    Network net(probe_trace, probe, tie_order_workload());
    net.run();
    at = probe.first_generation;
  }
  ASSERT_GT(at, 2.0 * kHour);
  ASSERT_LT(at, kTieDays * kDay - 3.0 * kHour);

  // Everything else is placed at `at`: node 1 arrives, a manual packet
  // is generated, the first sweep/tick pair falls due (the trace starts
  // at 0), and node 0 crashes.  A manual packet from `at` / 2 expires
  // before `at`, so only the sweep can drop it.
  const auto trace = tie_order_trace(at);
  WorkloadConfig cfg = tie_order_workload();
  cfg.time_unit = at;
  cfg.manual_packets.push_back({0, 1, at / 2.0, at / 4.0});
  cfg.manual_packets.push_back({0, 1, at, kTieManualTtl});
  sim::FaultPlan plan;
  plan.node_crashes.push_back({0, at, kHour});
  cfg.faults = plan;

  net::RunCounters full_counters;
  std::uint64_t full_digest = 0;
  std::vector<TieRecorder::Entry> full_log;
  {
    TieRecorder router(at);
    Network net(trace, router, cfg);
    net.run();
    full_counters = net.counters();
    full_digest = metrics::run_digest(net, router);
    full_log = router.log;
  }
  ASSERT_EQ(full_log.size(), 5u);
  const std::uint64_t k = full_log.front().executed;
  // The sweep is event k + 2: it has no hook, but it drops the early
  // manual packet between the manual packet and the tick.
  const std::vector<TieRecorder::Entry> want = {{"arrival", k, 0},
                                                {"manual", k + 1, 0},
                                                {"tick", k + 3, 1},
                                                {"generation", k + 4, 1},
                                                {"crash", k + 5, 1}};
  EXPECT_EQ(full_log, want);
  EXPECT_EQ(full_counters.dropped_ttl, 1u);
  EXPECT_EQ(full_counters.node_crashes, 1u);

  // Suspending after each event of the instant and resuming reproduces
  // the uninterrupted run: the run digest and, pieced together from
  // both processes, the dispatch order.
  for (std::uint64_t stop = k; stop < k + 5; ++stop) {
    SCOPED_TRACE("suspended after event " + std::to_string(stop));
    persist::CheckpointConfig cc;
    cc.dir = (std::filesystem::path(::testing::TempDir()) /
              "dtn_tie_order_ckpt")
                 .string();
    std::filesystem::remove_all(cc.dir);
    cc.stop_after_events = stop;
    std::vector<TieRecorder::Entry> log;
    {
      persist::CheckpointManager mgr(cc);
      TieRecorder router(at);
      Network net(trace, router, cfg);
      ASSERT_FALSE(net.run(mgr));
      EXPECT_EQ(net.events_executed(), stop);
      log = router.log;
    }
    cc.stop_after_events = 0;
    persist::CheckpointManager mgr(cc);
    TieRecorder router(at);
    Network net(trace, router, cfg);
    ASSERT_TRUE(net.run(mgr));
    log.insert(log.end(), router.log.begin(), router.log.end());
    EXPECT_EQ(log, full_log);
    EXPECT_EQ(metrics::run_digest(net, router), full_digest);
  }
}

}  // namespace
}  // namespace dtn
