// Checkpoint/restore subsystem (docs/checkpointing.md):
//
//  * unit — Writer/Reader round-trips and every structural rejection
//    (magic, schema version, CRC, truncation, section names, trailing
//    bytes), CheckpointManager discovery/retention/atomic publish;
//  * scenario — the headline contract: a run suspended at event N and
//    resumed from its snapshot finishes with the uninterrupted run's
//    metrics::run_digest (counters, delay records, diagnostics, event
//    count and clock, bit for bit), on the campus and city tiers and
//    under a fault plan spanning the checkpoint; periodic snapshots are
//    the bytes a suspension at the same event count writes, and a
//    resumed run keeps their cadence;
//  * edge — empty networks, zero pending events, snapshots exactly on a
//    unit-tick barrier, fingerprint and schema-version rejection.
#include <algorithm>
#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/bandwidth.hpp"
#include "core/distributed_bandwidth.hpp"
#include "core/dtn_flow_router.hpp"
#include "core/markov_predictor.hpp"
#include "metrics/metrics.hpp"
#include "net/bundle_store.hpp"
#include "net/network.hpp"
#include "persist/checkpoint.hpp"
#include "persist/serializer.hpp"
#include "sim/event_queue.hpp"
#include "test_helpers.hpp"
#include "trace/campus_generator.hpp"
#include "trace/city_generator.hpp"
#include "util/rng.hpp"

namespace dtn {
namespace {

using core::DtnFlowConfig;
using core::DtnFlowRouter;
using dtn::testing::relay_chain_trace;
using dtn::testing::relay_chain_workload;
using net::Network;
using net::RunCounters;
using net::WorkloadConfig;
using persist::CheckpointConfig;
using persist::CheckpointManager;
using persist::FormatError;
using persist::Reader;
using persist::Writer;
using trace::kDay;
using trace::kMinute;

// Fresh per-test snapshot directory under the gtest temp root.
std::filesystem::path fresh_dir(const std::string& name) {
  const auto dir = std::filesystem::path(::testing::TempDir()) /
                   ("dtn_ckpt_" + name);
  std::filesystem::remove_all(dir);
  return dir;
}

// -- Writer / Reader unit tests ------------------------------------------

std::vector<std::uint8_t> sample_stream() {
  Writer w;
  w.begin_section("alpha");
  w.u8(7);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefULL);
  w.f64(-1.5);
  w.boolean(true);
  w.str("hello");
  w.end_section();
  w.begin_section("beta");
  w.u64(42);
  w.end_section();
  w.finish();
  return w.buffer();
}

TEST(Serializer, RoundTripsScalarsAndStrings) {
  Reader r(sample_stream());
  EXPECT_EQ(r.schema_version(), persist::kSchemaVersion);
  r.expect_section("alpha");
  EXPECT_EQ(r.u8(), 7u);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.f64(), -1.5);
  EXPECT_TRUE(r.boolean());
  EXPECT_EQ(r.str(), "hello");
  r.end_section();
  r.expect_section("beta");
  EXPECT_EQ(r.u64(), 42u);
  r.end_section();
  r.finish();
}

TEST(Serializer, SectionsReportNamesAndCrcsInWriteOrder) {
  Writer w;
  w.begin_section("alpha");
  w.u64(1);
  w.end_section();
  w.begin_section("beta");
  w.u64(1);
  w.end_section();
  const auto& s = w.sections();
  ASSERT_EQ(s.size(), 2u);
  EXPECT_EQ(s[0].first, "alpha");
  EXPECT_EQ(s[1].first, "beta");
  // Identical payloads hash identically; the CRC is over payload bytes.
  EXPECT_EQ(s[0].second, s[1].second);
  Writer other;
  other.begin_section("alpha");
  other.u64(2);
  other.end_section();
  EXPECT_NE(other.sections()[0].second, s[0].second);
}

// The bytewise CRC-32 the sliced one must reproduce.
std::uint32_t reference_crc32(std::span<const std::uint8_t> data) {
  std::uint32_t crc = 0xFFFFFFFFU;
  for (const std::uint8_t b : data) {
    crc ^= b;
    for (int k = 0; k < 8; ++k) {
      crc = (crc & 1U) != 0 ? 0xEDB88320U ^ (crc >> 1) : crc >> 1;
    }
  }
  return crc ^ 0xFFFFFFFFU;
}

TEST(Serializer, Crc32MatchesTheBytewiseReference) {
  const std::string check = "123456789";
  EXPECT_EQ(persist::crc32(std::span<const std::uint8_t>(
                reinterpret_cast<const std::uint8_t*>(check.data()),
                check.size())),
            0xCBF43926U);
  // Every length through a few 8-byte blocks plus a tail, at every
  // alignment of the first byte.
  Rng rng(36);
  std::vector<std::uint8_t> buf(1031 + 8);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng.next_u64());
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 1031; ++len) {
      const std::span<const std::uint8_t> data(buf.data() + offset, len);
      ASSERT_EQ(persist::crc32(data), reference_crc32(data))
          << "offset " << offset << ", length " << len;
    }
  }
}

TEST(Serializer, RejectsBadMagic) {
  auto bytes = sample_stream();
  bytes[0] ^= 0xff;
  EXPECT_THROW(Reader r(std::move(bytes)), FormatError);
}

TEST(Serializer, RejectsFutureSchemaVersion) {
  auto bytes = sample_stream();
  bytes[persist::kMagicSize] += 1;  // version u32 follows the magic
  EXPECT_THROW(Reader r(std::move(bytes)), FormatError);
}

TEST(Serializer, RejectsCorruptPayloadViaCrc) {
  auto bytes = sample_stream();
  // Flip one payload byte of "alpha": header is magic + version + flags,
  // then u32 name_len, name, u64 payload_len, payload...
  const std::size_t payload_start = persist::kMagicSize + 4 + 4 + 4 + 5 + 8;
  bytes[payload_start] ^= 0x01;
  Reader r(std::move(bytes));
  EXPECT_THROW(r.expect_section("alpha"), FormatError);
}

TEST(Serializer, RejectsTruncatedStream) {
  const auto full = sample_stream();
  for (const std::size_t keep : {full.size() - 1, full.size() / 2}) {
    std::vector<std::uint8_t> cut(full.begin(),
                                  full.begin() + static_cast<long>(keep));
    EXPECT_THROW(
        {
          Reader r(std::move(cut));
          r.expect_section("alpha");
          r.u8();
          r.u32();
          r.u64();
          r.f64();
          r.boolean();
          r.str();
          r.end_section();
          r.expect_section("beta");
          r.u64();
          r.end_section();
          r.finish();
        },
        FormatError);
  }
}

TEST(Serializer, RejectsWrongSectionNameAndUnderReads) {
  Reader wrong(sample_stream());
  EXPECT_THROW(wrong.expect_section("beta"), FormatError);

  Reader under(sample_stream());
  under.expect_section("alpha");
  under.u8();
  EXPECT_THROW(under.end_section(), FormatError);  // payload not drained
}

TEST(Serializer, RejectsTrailingBytesAfterEndMarker) {
  auto bytes = sample_stream();
  bytes.push_back(0);
  Reader r(std::move(bytes));
  r.expect_section("alpha");
  r.u8();
  r.u32();
  r.u64();
  r.f64();
  r.boolean();
  r.str();
  r.end_section();
  r.expect_section("beta");
  r.u64();
  r.end_section();
  EXPECT_THROW(r.finish(), FormatError);
}

// -- CheckpointManager unit tests ----------------------------------------

TEST(CheckpointManagerTest, DiscoversSortedAndPrunesBeyondRetention) {
  CheckpointConfig cc;
  cc.dir = fresh_dir("retention").string();
  cc.keep = 3;
  CheckpointManager mgr(cc);
  EXPECT_FALSE(mgr.has_checkpoint());
  EXPECT_THROW(mgr.read_latest(), FormatError);

  for (const std::uint64_t n : {100, 20, 3000, 450, 99999}) {
    Writer w;
    w.begin_section("n");
    w.u64(n);
    w.end_section();
    w.finish();
    mgr.write(n, w.buffer());
  }
  const auto files = mgr.list();
  ASSERT_EQ(files.size(), 3u);  // pruned to `keep`, oldest dropped
  EXPECT_TRUE(std::is_sorted(files.begin(), files.end()));

  std::string latest_path;
  Reader r(mgr.read_latest(&latest_path));
  EXPECT_EQ(files.back(), latest_path);
  EXPECT_NE(latest_path.find("99999"), std::string::npos);
  r.expect_section("n");
  EXPECT_EQ(r.u64(), 99999u);
  r.end_section();
  r.finish();
}

TEST(CheckpointManagerTest, IgnoresForeignFilesAndTempDebris) {
  CheckpointConfig cc;
  cc.dir = fresh_dir("debris").string();
  CheckpointManager mgr(cc);
  Writer w;
  w.begin_section("n");
  w.u64(7);
  w.end_section();
  w.finish();
  const std::string path = mgr.write(7, w.buffer());
  std::ofstream(std::filesystem::path(cc.dir) / "notes.txt") << "hi";
  std::ofstream(std::filesystem::path(cc.dir) / "ckpt-x.tmp") << "junk";
  const auto files = mgr.list();
  ASSERT_EQ(files.size(), 1u);
  EXPECT_EQ(files[0], path);
}

// -- resume equality scenarios -------------------------------------------

// A finished run: its run digest, which the scenarios compare, and what
// their sanity asserts read.
struct RunOutcome {
  std::uint64_t digest = 0;
  std::uint64_t events = 0;
  RunCounters counters;
};

RunOutcome outcome(const Network& net, const DtnFlowRouter& router) {
  return {metrics::run_digest(net, router), net.events_executed(),
          net.counters()};
}

void expect_equal(const RunOutcome& a, const RunOutcome& b) {
  EXPECT_EQ(a.digest, b.digest);
}

WorkloadConfig campus_workload() {
  WorkloadConfig cfg;
  cfg.packets_per_landmark_per_day = 4.0;
  cfg.ttl = 6.0 * kDay;
  cfg.time_unit = 1.5 * kDay;
  cfg.warmup_fraction = 0.25;
  cfg.node_memory_kb = 40;
  cfg.seed = 11;
  cfg.manual_packets = {{0, 5, 4.0 * kDay, 0.0},
                        {3, 1, 6.5 * kDay, 2.0 * kDay}};
  return cfg;
}

trace::Trace campus_trace() {
  trace::CampusTraceConfig tc;
  tc.num_nodes = 50;
  tc.num_landmarks = 18;
  tc.num_communities = 5;
  tc.days = 10.0;
  tc.seed = 5;
  return generate_campus_trace(tc);
}

DtnFlowConfig full_router_config() {
  DtnFlowConfig rc;
  rc.dead_end_prevention = true;
  rc.load_balancing = true;
  rc.scheduled_communication = true;
  rc.node_to_node_relay = true;
  return rc;
}

RunOutcome run_uninterrupted(const trace::Trace& trace,
                             const WorkloadConfig& cfg) {
  DtnFlowRouter router(full_router_config());
  Network net(trace, router, cfg);
  net.run();
  net.validate_invariants();
  return outcome(net, router);
}

// Suspend at `stop_events`, then resume in a fresh process-equivalent
// (new Network + router over `resumed`, an equal trace or the same one)
// until completion.
RunOutcome run_with_suspension(const trace::Trace& trace,
                               const trace::Trace& resumed,
                               const WorkloadConfig& cfg,
                               const std::string& dir_tag,
                               std::uint64_t stop_events) {
  CheckpointConfig cc;
  cc.dir = fresh_dir(dir_tag).string();
  cc.stop_after_events = stop_events;
  {
    CheckpointManager mgr(cc);
    DtnFlowRouter router(full_router_config());
    Network net(trace, router, cfg);
    EXPECT_FALSE(net.run(mgr));  // suspended, snapshot written
    EXPECT_TRUE(mgr.has_checkpoint());
  }
  CheckpointConfig resume = cc;
  resume.stop_after_events = 0;
  CheckpointManager mgr(resume);
  DtnFlowRouter router(full_router_config());
  Network net(resumed, router, cfg);
  EXPECT_TRUE(net.run(mgr));
  net.validate_invariants();
  return outcome(net, router);
}

RunOutcome run_with_suspension(const trace::Trace& trace,
                               const WorkloadConfig& cfg,
                               const std::string& dir_tag,
                               std::uint64_t stop_events) {
  return run_with_suspension(trace, trace, cfg, dir_tag, stop_events);
}

TEST(CheckpointResume, CampusRunIsBitIdenticalAcrossSuspensions) {
  const auto trace = campus_trace();
  const auto cfg = campus_workload();
  const RunOutcome full = run_uninterrupted(trace, cfg);
  ASSERT_GT(full.counters.generated, 50u);
  ASSERT_GT(full.counters.delivered, 10u);
  // Early, middle and late suspension points.
  expect_equal(full, run_with_suspension(trace, cfg, "campus_early",
                                         full.events / 10));
  expect_equal(full, run_with_suspension(trace, cfg, "campus_mid",
                                         full.events / 2));
  expect_equal(full, run_with_suspension(trace, cfg, "campus_late",
                                         full.events - 5));
}

TEST(CheckpointResume, ResumesOverABuiltOrAFreshReplayOrder) {
  // A trace builds its replay order on first use and shares it.  A run
  // suspended mid-way must resume to the plain run's digest both over
  // the same Trace, whose order the earlier runs built, and over an
  // equal trace generated afresh, whose order the resuming cursor builds.
  const auto trace = campus_trace();
  const auto cfg = campus_workload();
  const RunOutcome full = run_uninterrupted(trace, cfg);
  expect_equal(full,
               run_with_suspension(trace, cfg, "order_built", full.events / 2));
  const auto fresh = campus_trace();
  expect_equal(full, run_with_suspension(trace, fresh, cfg, "order_fresh",
                                         full.events / 2));
  EXPECT_NE(fresh.replay_order().get(), trace.replay_order().get());
}

TEST(CheckpointResume, AuditedResumeAuditsAtTheSameCountsAsAPlainRun) {
  // A probe check logs the executed-event count of every audit.  A run
  // suspended between two periodic audits and resumed must audit at
  // exactly the counts the uninterrupted run audits at.
  const auto trace = campus_trace();
  WorkloadConfig cfg = campus_workload();
  cfg.audit_period_events = 200;
  const auto log_audits = [](Network& net, std::vector<std::uint64_t>& log) {
    net.auditor().register_check("probe", [&log, &net](sim::AuditReport&) {
      log.push_back(net.events_executed());
    });
  };

  std::vector<std::uint64_t> plain;
  std::uint64_t total = 0;
  {
    DtnFlowRouter router(full_router_config());
    Network net(trace, router, cfg);
    log_audits(net, plain);
    net.run();
    total = net.events_executed();
  }
  ASSERT_GT(total, 2000u);
  // Every multiple of the period, then the final audit at the horizon.
  ASSERT_EQ(plain.size(), total / 200 + (total % 200 != 0 ? 1 : 0));
  for (std::size_t i = 0; i + 1 < plain.size(); ++i) {
    EXPECT_EQ(plain[i], 200 * (i + 1));
  }

  CheckpointConfig cc;
  cc.dir = fresh_dir("audit_cadence").string();
  cc.stop_after_events = 1050;
  std::vector<std::uint64_t> resumed;
  {
    CheckpointManager mgr(cc);
    DtnFlowRouter router(full_router_config());
    Network net(trace, router, cfg);
    log_audits(net, resumed);
    ASSERT_FALSE(net.run(mgr));
  }
  EXPECT_EQ(resumed, (std::vector<std::uint64_t>{200, 400, 600, 800, 1000}));
  cc.stop_after_events = 0;
  CheckpointManager mgr(cc);
  DtnFlowRouter router(full_router_config());
  Network net(trace, router, cfg);
  log_audits(net, resumed);
  ASSERT_TRUE(net.run(mgr));
  EXPECT_EQ(resumed, plain);
}

TEST(CheckpointResume, SurvivesChainedSuspensions) {
  // Suspend, resume, suspend again later, resume again: exercises
  // resume-from-a-resumed-run and picking the newest of several files.
  const auto trace = campus_trace();
  const auto cfg = campus_workload();
  const RunOutcome full = run_uninterrupted(trace, cfg);

  CheckpointConfig cc;
  cc.dir = fresh_dir("chained").string();
  cc.every_events = 2000;  // also exercise periodic snapshots
  cc.stop_after_events = full.events / 3;
  {
    CheckpointManager mgr(cc);
    DtnFlowRouter router(full_router_config());
    Network net(trace, router, cfg);
    EXPECT_FALSE(net.run(mgr));
  }
  cc.stop_after_events = (2 * full.events) / 3;
  {
    CheckpointManager mgr(cc);
    EXPECT_GT(mgr.list().size(), 1u);
    DtnFlowRouter router(full_router_config());
    Network net(trace, router, cfg);
    EXPECT_FALSE(net.run(mgr));
  }
  cc.stop_after_events = 0;
  CheckpointManager mgr(cc);
  DtnFlowRouter router(full_router_config());
  Network net(trace, router, cfg);
  EXPECT_TRUE(net.run(mgr));
  net.validate_invariants();
  expect_equal(full, outcome(net, router));
}

TEST(CheckpointResume, FaultPlanSpanningTheCheckpointIsBitIdentical) {
  // Crash node 0 for a day around the suspension point and add stochastic
  // faults, so the checkpoint lands mid-outage: injector RNG streams,
  // down sets and the retry ledger must all survive the round trip.
  const auto trace = relay_chain_trace(10.0);
  WorkloadConfig cfg = relay_chain_workload();
  cfg.faults.emplace();
  cfg.faults->seed = 77;
  cfg.faults->node_crashes.push_back(
      {0, 4.0 * kDay + 45.0 * kMinute, 1.0 * kDay});
  cfg.faults->crash_buffer_loss = 1.0;
  cfg.faults->station_outage_rate_per_day = 0.2;
  cfg.faults->station_mean_outage = 0.1 * kDay;
  cfg.faults->transfer_failure_prob = 0.1;

  const RunOutcome full = run_uninterrupted(trace, cfg);
  ASSERT_GT(full.counters.node_crashes, 0u);
  ASSERT_GT(full.counters.packets_lost_fault, 0u);
  expect_equal(full,
               run_with_suspension(trace, cfg, "fault_mid", full.events / 2));
  expect_equal(full, run_with_suspension(trace, cfg, "fault_late",
                                         (3 * full.events) / 4));
}

trace::Trace small_city_trace() {
  trace::CityTraceConfig tc;
  tc.num_pedestrians = 220;
  tc.num_buses = 10;
  tc.num_landmarks = 48;
  tc.num_districts = 6;
  tc.days = 1.0;
  tc.seed = 9;
  return generate_city_trace(tc);
}

WorkloadConfig city_workload() {
  WorkloadConfig cfg;
  cfg.packets_per_landmark_per_day = 2.0;
  cfg.ttl = 0.5 * kDay;
  cfg.time_unit = 0.25 * kDay;
  cfg.warmup_fraction = 0.2;
  cfg.node_memory_kb = 20;
  cfg.seed = 21;
  return cfg;
}

TEST(CheckpointResume, CityRunIsBitIdenticalAcrossSuspensions) {
  // The city tier: buses and crowded landmarks, so suspensions land
  // in a much busier replay.
  const auto trace = small_city_trace();
  const auto cfg = city_workload();
  const RunOutcome full = run_uninterrupted(trace, cfg);
  ASSERT_GT(full.counters.delivered, 0u);
  expect_equal(full,
               run_with_suspension(trace, cfg, "city_third", full.events / 3));
  expect_equal(full, run_with_suspension(trace, cfg, "city_two_thirds",
                                         (2 * full.events) / 3));
}

std::uint64_t executed_from_path(const std::string& path) {
  // ckpt-<zero padded count>.dtnckpt
  const auto base = std::filesystem::path(path).stem().string();
  return std::stoull(base.substr(base.find('-') + 1));
}

// Runs the scenario writing a snapshot every `every` events into `dir`
// (keeping them all), resuming from the latest one there if any.
RunOutcome run_periodic(const trace::Trace& trace, const WorkloadConfig& cfg,
                        const std::string& dir, std::uint64_t every,
                        std::uint64_t stop_events = 0) {
  CheckpointConfig cc;
  cc.dir = dir;
  cc.every_events = every;
  cc.keep = 1000;
  cc.stop_after_events = stop_events;
  CheckpointManager mgr(cc);
  DtnFlowRouter router(full_router_config());
  Network net(trace, router, cfg);
  net.run(mgr);
  return outcome(net, router);
}

TEST(CheckpointResume, PeriodicSnapshotsMatchSuspensionSnapshotsByteForByte) {
  // Snapshotting is read-only: a run that snapshots along the way ends
  // exactly like the uninterrupted run, and each of its snapshots is the
  // image a run suspended at the same event count writes.
  const auto trace = campus_trace();
  const auto cfg = campus_workload();
  const RunOutcome full = run_uninterrupted(trace, cfg);
  const std::string dir = fresh_dir("periodic").string();
  expect_equal(full, run_periodic(trace, cfg, dir, full.events / 6));

  CheckpointConfig listing;
  listing.dir = dir;
  const auto files = CheckpointManager(listing).list();
  ASSERT_GE(files.size(), 3u);
  for (const auto& file : {files.front(), files[files.size() / 2]}) {
    const std::uint64_t executed = executed_from_path(file);
    CheckpointConfig cc;
    cc.dir = fresh_dir("suspend_" + std::to_string(executed)).string();
    cc.stop_after_events = executed;
    CheckpointManager mgr(cc);
    DtnFlowRouter router(full_router_config());
    Network net(trace, router, cfg);
    EXPECT_FALSE(net.run(mgr));
    std::string path;
    mgr.read_latest(&path);
    EXPECT_EQ(executed_from_path(path), executed);
    EXPECT_EQ(CheckpointManager::read_file(file),
              CheckpointManager::read_file(path))
        << "periodic snapshot at " << executed
        << " events differs from the suspension snapshot";
  }
}

TEST(CheckpointResume, ResumedPeriodicRunWritesTheSameSnapshots) {
  // A run suspended on one of its periodic snapshots and resumed keeps
  // the cadence: the directory ends up holding the same files, byte for
  // byte, as one uninterrupted periodic run.
  const auto trace = campus_trace();
  const auto cfg = campus_workload();
  const std::uint64_t every = run_uninterrupted(trace, cfg).events / 8;
  const std::string whole_dir = fresh_dir("periodic_whole").string();
  const RunOutcome whole = run_periodic(trace, cfg, whole_dir, every);
  CheckpointConfig listing;
  listing.dir = whole_dir;
  const auto whole_files = CheckpointManager(listing).list();
  ASSERT_GE(whole_files.size(), 4u);
  const std::uint64_t stop = executed_from_path(whole_files[2]);

  const std::string split_dir = fresh_dir("periodic_split").string();
  (void)run_periodic(trace, cfg, split_dir, every, stop);
  expect_equal(whole, run_periodic(trace, cfg, split_dir, every));
  listing.dir = split_dir;
  const auto split_files = CheckpointManager(listing).list();
  ASSERT_EQ(split_files.size(), whole_files.size());
  for (std::size_t i = 0; i < whole_files.size(); ++i) {
    EXPECT_EQ(executed_from_path(split_files[i]),
              executed_from_path(whole_files[i]));
    EXPECT_EQ(CheckpointManager::read_file(split_files[i]),
              CheckpointManager::read_file(whole_files[i]))
        << "snapshot " << i << " differs after the resume";
  }
}

// -- per-node state folded from the trace on load ------------------------

// A replay whose per-node DTN-FLOW state a load must rebuild: the node's
// predictor, accuracy row and NodeTransits are not in the image.
struct FoldScenario {
  const char* name;
  trace::Trace trace;
  WorkloadConfig cfg;
  DtnFlowConfig router;
};

// The CI fault-sweep plan: crashes and station outages drawn over the
// whole run, so arrivals and departures fall inside down windows.
sim::FaultPlan sweep_fault_plan() {
  sim::FaultPlan plan;
  plan.seed = 7;
  plan.node_crash_rate_per_day = 0.2;
  plan.station_outage_rate_per_day = 0.2;
  plan.transfer_failure_prob = 0.05;
  plan.dv_loss_prob = 0.02;
  plan.dv_delay_prob = 0.05;
  return plan;
}

FoldScenario fold_scenario(const std::string& name) {
  if (name == "campus") {
    return {"campus", campus_trace(), campus_workload(),
            full_router_config()};
  }
  if (name == "city") {
    return {"city", small_city_trace(), city_workload(), full_router_config()};
  }
  trace::CampusTraceConfig tc;
  tc.num_nodes = 24;
  tc.num_landmarks = 10;
  tc.days = 8.0;
  tc.seed = 2;
  FoldScenario s{"fault_sweep", generate_campus_trace(tc), campus_workload(),
                 full_router_config()};
  s.cfg.faults = sweep_fault_plan();
  if (name == "thinned_dead_end") {
    // Every third departure carries a vector, stays feed the dead-end
    // check, and outages interrupt both.
    s.name = "thinned_dead_end";
    s.router = DtnFlowConfig{};
    s.router.dv_exchange_every = 3;
    s.router.dead_end_prevention = true;
  }
  return s;
}

// Expects the centralized estimator `restored` folded on load to equal
// the live run's: every link's smoothed bandwidth bit for bit, its
// open-unit count, and the closed-unit count.
void expect_bandwidth_matches(const core::BandwidthEstimator& restored,
                              const core::BandwidthEstimator& live) {
  EXPECT_EQ(restored.units_closed(), live.units_closed());
  ASSERT_EQ(restored.num_landmarks(), live.num_landmarks());
  for (net::LandmarkId i = 0; i < live.num_landmarks(); ++i) {
    for (net::LandmarkId j = 0; j < live.num_landmarks(); ++j) {
      if (i == j) continue;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(restored.bandwidth(i, j)),
                std::bit_cast<std::uint64_t>(live.bandwidth(i, j)))
          << "link " << i << " -> " << j;
      EXPECT_EQ(restored.open_unit_count(i, j), live.open_unit_count(i, j))
          << "link " << i << " -> " << j;
    }
  }
}

// Restores `image` into a fresh router and expects every node's folded
// state, and the folded bandwidth estimator, to equal that of `live`,
// the router the image was saved from.
void expect_fold_matches(const FoldScenario& s,
                         const std::vector<std::uint8_t>& image,
                         const DtnFlowRouter& live) {
  DtnFlowRouter restored(s.router);
  Network net(s.trace, restored, s.cfg);
  net.debug_restore_for_test(image);
  expect_bandwidth_matches(restored.bandwidth(), live.bandwidth());
  for (net::NodeId n = 0; n < s.trace.num_nodes(); ++n) {
    SCOPED_TRACE("node " + std::to_string(n));
    EXPECT_TRUE(restored.transits(n) == live.transits(n));
    const core::MarkovPredictor& a = restored.predictor(n);
    const core::MarkovPredictor& b = live.predictor(n);
    EXPECT_EQ(a.history_length(), b.history_length());
    EXPECT_EQ(a.current(), b.current());
    EXPECT_EQ(a.predict(), b.predict());
    std::vector<double> a_dist;
    std::vector<double> b_dist;
    a.next_distribution(a_dist);
    b.next_distribution(b_dist);
    EXPECT_EQ(a_dist, b_dist);
    for (net::LandmarkId l = 0; l < s.trace.num_landmarks(); ++l) {
      EXPECT_EQ(restored.accuracy(n, l), live.accuracy(n, l)) << "at " << l;
    }
  }
}

class NodeStateFold : public ::testing::TestWithParam<const char*> {};

TEST_P(NodeStateFold, RestoredNodesMatchTheLiveRunAndResumeBitIdentically) {
  const FoldScenario s = fold_scenario(GetParam());
  DtnFlowRouter plain_router(s.router);
  Network plain(s.trace, plain_router, s.cfg);
  plain.run();
  const std::uint64_t digest = metrics::run_digest(plain, plain_router);
  const std::uint64_t every = plain.events_executed() / 16;
  ASSERT_GT(every, 0u);
  if (s.cfg.faults.has_value()) {
    ASSERT_GT(plain.counters().node_crashes, 0u);
    ASSERT_GT(plain.counters().station_outages, 0u);
  }

  // A snapshot every `every` events; right after each one the audit
  // hook restores it and compares the restored nodes with the live ones.
  CheckpointConfig cc;
  cc.dir = fresh_dir(std::string("fold_") + s.name).string();
  cc.every_events = every;
  cc.keep = 1000;
  WorkloadConfig audited = s.cfg;
  audited.audit_period_events = every;
  {
    CheckpointManager mgr(cc);
    DtnFlowRouter router(s.router);
    Network net(s.trace, router, audited);
    std::size_t points = 0;
    net.auditor().register_check("fold", [&](sim::AuditReport&) {
      if (net.events_executed() % every != 0) return;  // the final audit
      SCOPED_TRACE("suspension at event " +
                   std::to_string(net.events_executed()));
      expect_fold_matches(s, mgr.read_latest(), router);
      ++points;
    });
    ASSERT_TRUE(net.run(mgr));
    EXPECT_GE(points, 16u);
    EXPECT_EQ(metrics::run_digest(net, router), digest);
  }

  // Each snapshot, resumed alone, finishes with the plain run's digest.
  for (const std::string& file : CheckpointManager(cc).list()) {
    const std::uint64_t at = executed_from_path(file);
    SCOPED_TRACE("resumed from event " + std::to_string(at));
    CheckpointConfig one;
    one.dir = fresh_dir(std::string("fold_") + s.name + "_" +
                        std::to_string(at))
                  .string();
    std::filesystem::create_directories(one.dir);
    std::filesystem::copy_file(
        file, std::filesystem::path(one.dir) / std::filesystem::path(file)
                                                   .filename());
    CheckpointManager mgr(one);
    DtnFlowRouter router(s.router);
    Network net(s.trace, router, s.cfg);
    ASSERT_TRUE(net.run(mgr));
    EXPECT_EQ(metrics::run_digest(net, router), digest);
  }
}

INSTANTIATE_TEST_SUITE_P(Scenarios, NodeStateFold,
                         ::testing::Values("campus", "city", "fault_sweep",
                                           "thinned_dead_end"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

TEST(CheckpointResume, CrashAtAnArrivalTimeFoldsAsAfterThatArrival) {
  // Trace events run before fault events of the same time, so a node
  // crashing exactly when it arrives associates first: its predictor
  // records the visit.  The departure half an hour later finds it down.
  // A load must fold both events the way the run saw them.
  const auto trace = relay_chain_trace(6.0);
  WorkloadConfig cfg = relay_chain_workload();
  const trace::Visit& v = trace.visits(1)[10];
  cfg.faults.emplace();
  cfg.faults->node_crashes.push_back({1, v.start, 1.0 * kDay});
  DtnFlowConfig rc;
  rc.dead_end_prevention = true;
  FoldScenario s{"crash_tie", trace, cfg, rc};

  CheckpointConfig cc;
  cc.dir = fresh_dir("crash_tie").string();
  cc.every_events = 1;
  cc.keep = 1;
  WorkloadConfig audited = cfg;
  audited.audit_period_events = 1;
  CheckpointManager mgr(cc);
  DtnFlowRouter router(rc);
  Network net(trace, router, audited);
  const double reboot = v.start + 1.0 * kDay;
  std::size_t checked = 0;
  net.auditor().register_check("fold", [&](sim::AuditReport&) {
    // From the crashing arrival to past the reboot.
    if (net.now() < v.start || net.now() > reboot + 0.5 * kDay) return;
    SCOPED_TRACE("event " + std::to_string(net.events_executed()));
    if (net.now() == v.start && net.location(1) == v.landmark) {
      // Associated before the crash: predicted from here.
      EXPECT_EQ(router.transits(1).predicted_from, v.landmark);
    }
    expect_fold_matches(s, mgr.read_latest(), router);
    ++checked;
  });
  ASSERT_TRUE(net.run(mgr));
  EXPECT_GT(checked, 4u);
  EXPECT_EQ(net.counters().node_crashes, 1u);
  // Nodes 0 and 1 shuttle on one timetable; node 1 completes no stay
  // whose departure falls in (crash, reboot].
  std::uint32_t lost = 0;
  for (const trace::Visit& w : trace.visits(1)) {
    lost += w.end > v.start && w.end <= reboot ? 1 : 0;
  }
  ASSERT_GT(lost, 0u);
  EXPECT_EQ(router.transits(1).total_stays,
            router.transits(0).total_stays - lost);
}

TEST(CheckpointResume, SuspensionBetweenAnArrivalAndItsTickFoldsTheOpenUnit) {
  // Every half day each relay-chain shuttle arrives home exactly when
  // the unit tick fires, a transit from its other landmark.  Trace
  // events run before the tick of the same instant, so the tick closes
  // a unit that holds those arrivals; a snapshot taken after them but
  // before the tick holds them in the open unit, and a load must fold
  // them there, not into the unit the clock says has ended.
  const auto trace = relay_chain_trace(6.0);
  const WorkloadConfig cfg = relay_chain_workload();
  const DtnFlowConfig rc;
  const FoldScenario s{"arrival_tick", trace, cfg, rc};
  DtnFlowRouter plain_router(rc);
  Network plain(trace, plain_router, cfg);
  plain.run();
  const std::uint64_t digest = metrics::run_digest(plain, plain_router);

  // The events after which the clock sits on the instant of a tick that
  // has not run yet.
  std::vector<std::uint64_t> between;
  {
    WorkloadConfig audited = cfg;
    audited.audit_period_events = 1;
    DtnFlowRouter router(rc);
    Network net(trace, router, audited);
    net.auditor().register_check("between", [&](sim::AuditReport&) {
      const auto ticks = net.dispatched_tick_times().size();
      if (net.now() == static_cast<double>(ticks + 1) * cfg.time_unit) {
        between.push_back(net.events_executed());
      }
    });
    net.run();
  }
  ASSERT_GE(between.size(), 20u);

  for (const std::uint64_t at : between) {
    SCOPED_TRACE("suspended at event " + std::to_string(at));
    CheckpointConfig cc;
    cc.dir = fresh_dir("arrival_tick_" + std::to_string(at)).string();
    cc.stop_after_events = at;
    {
      CheckpointManager mgr(cc);
      DtnFlowRouter router(rc);
      Network net(trace, router, cfg);
      ASSERT_FALSE(net.run(mgr));
      ASSERT_GT(router.bandwidth().open_unit_count(1, 0), 0u);
      expect_fold_matches(s, mgr.read_latest(), router);
    }
    cc.stop_after_events = 0;
    CheckpointManager mgr(cc);
    DtnFlowRouter router(rc);
    Network net(trace, router, cfg);
    ASSERT_TRUE(net.run(mgr));
    EXPECT_EQ(metrics::run_digest(net, router), digest);
  }
}

// -- edge cases ----------------------------------------------------------

TEST(CheckpointEdge, EmptyNetworkCompletesWithoutSnapshots) {
  trace::Trace t(3, 4);
  t.finalize();  // no visits, no events
  WorkloadConfig cfg;
  cfg.packets_per_landmark_per_day = 0.0;
  cfg.warmup_fraction = 0.0;
  CheckpointConfig cc;
  cc.dir = fresh_dir("empty").string();
  cc.every_events = 1;
  CheckpointManager mgr(cc);
  DtnFlowRouter router;
  Network net(t, router, cfg);
  EXPECT_TRUE(net.run(mgr));
  EXPECT_EQ(net.counters().generated, 0u);
  EXPECT_FALSE(mgr.has_checkpoint());  // zero events, nothing to snapshot
}

TEST(CheckpointEdge, SuspensionAtFinalEventLeavesZeroPendingEvents) {
  // stop_after_events == total events: the snapshot holds an empty queue
  // and the resumed run completes without dispatching anything.
  const auto trace = relay_chain_trace(4.0);
  WorkloadConfig cfg;
  cfg.packets_per_landmark_per_day = 0.0;
  cfg.warmup_fraction = 0.0;
  cfg.time_unit = 0.5 * kDay;
  cfg.node_memory_kb = 10;
  cfg.ttl = 2.0 * kDay;
  cfg.manual_packets = {{0, 3, 1.0 * kDay, 0.0}};
  const RunOutcome full = run_uninterrupted(trace, cfg);
  expect_equal(full,
               run_with_suspension(trace, cfg, "final_event", full.events));
}

TEST(CheckpointEdge, FingerprintMismatchIsRejected) {
  const auto trace = relay_chain_trace(4.0);
  WorkloadConfig cfg;
  cfg.packets_per_landmark_per_day = 1.0;
  cfg.time_unit = 0.5 * kDay;
  cfg.node_memory_kb = 10;
  cfg.ttl = 1.0 * kDay;
  cfg.seed = 3;
  CheckpointConfig cc;
  cc.dir = fresh_dir("fingerprint").string();
  cc.stop_after_events = 40;
  {
    CheckpointManager mgr(cc);
    DtnFlowRouter router;
    Network net(trace, router, cfg);
    EXPECT_FALSE(net.run(mgr));
  }
  cc.stop_after_events = 0;
  CheckpointManager mgr(cc);
  auto changed = cfg;
  changed.seed = 4;  // any fingerprinted field will do
  DtnFlowRouter router;
  Network net(trace, router, changed);
  EXPECT_THROW(net.run(mgr), FormatError);
}

TEST(CheckpointEdge, RouterConfigurationMismatchIsRefused) {
  // The router section fingerprints every DtnFlowConfig field: the fold,
  // the monitors' presence and every hook follow the configuration, so a
  // resume under any other value must be refused, not run.
  const auto trace = relay_chain_trace(6.0);
  const WorkloadConfig cfg = relay_chain_workload();
  DtnFlowConfig saved;
  saved.loop_injections = {{3, {1, 2}, 2}};
  CheckpointConfig cc;
  cc.dir = fresh_dir("router_config").string();
  cc.stop_after_events = 40;
  {
    CheckpointManager mgr(cc);
    DtnFlowRouter router(saved);
    Network net(trace, router, cfg);
    ASSERT_FALSE(net.run(mgr));
  }
  cc.stop_after_events = 0;
  using Change = std::function<void(DtnFlowConfig&)>;
  const std::vector<std::pair<const char*, Change>> changes = {
      {"predictor order", [](DtnFlowConfig& c) { c.predictor_order = 2; }},
      {"bandwidth rho", [](DtnFlowConfig& c) { c.bandwidth_rho = 0.3; }},
      {"distributed bandwidth",
       [](DtnFlowConfig& c) { c.distributed_bandwidth = true; }},
      {"vector exchange every",
       [](DtnFlowConfig& c) { c.dv_exchange_every = 2; }},
      {"node-to-node relay",
       [](DtnFlowConfig& c) { c.node_to_node_relay = true; }},
      {"direct delivery", [](DtnFlowConfig& c) { c.direct_delivery = false; }},
      {"refined carrier selection",
       [](DtnFlowConfig& c) { c.refine_carrier_selection = false; }},
      {"dead-end prevention",
       [](DtnFlowConfig& c) { c.dead_end_prevention = true; }},
      {"dead-end theta", [](DtnFlowConfig& c) { c.dead_end_theta = 3.0; }},
      {"loop correction", [](DtnFlowConfig& c) { c.loop_correction = true; }},
      {"load balancing", [](DtnFlowConfig& c) { c.load_balancing = true; }},
      {"scheduled communication",
       [](DtnFlowConfig& c) { c.scheduled_communication = true; }},
      {"loop injection count",
       [](DtnFlowConfig& c) { c.loop_injections.clear(); }},
      {"loop injection destination",
       [](DtnFlowConfig& c) { c.loop_injections[0].dst = 0; }},
      {"loop injection unit",
       [](DtnFlowConfig& c) { c.loop_injections[0].at_unit = 3; }},
      {"loop injection cycle",
       [](DtnFlowConfig& c) { c.loop_injections[0].cycle = {2, 1}; }},
      {"loop injection cycle length",
       [](DtnFlowConfig& c) { c.loop_injections[0].cycle.push_back(0); }},
  };
  for (const auto& [field, change] : changes) {
    SCOPED_TRACE(field);
    DtnFlowConfig resumed = saved;
    change(resumed);
    CheckpointManager mgr(cc);
    DtnFlowRouter router(resumed);
    Network net(trace, router, cfg);
    try {
      net.run(mgr);
      ADD_FAILURE() << "resumed under another " << field;
    } catch (const FormatError& e) {
      EXPECT_NE(std::string(e.what()).find(std::string("router ") + field),
                std::string::npos)
          << e.what();
    }
  }
  CheckpointManager mgr(cc);
  DtnFlowRouter router(saved);
  Network net(trace, router, cfg);
  EXPECT_TRUE(net.run(mgr));
}

// Suspends a small relay-chain run after 40 events, lets `patch` edit
// the snapshot bytes, then resumes from them: the resume must throw.
template <typename Patch>
void expect_patched_snapshot_refused(const std::string& name, Patch patch) {
  const auto trace = relay_chain_trace(4.0);
  WorkloadConfig cfg;
  cfg.packets_per_landmark_per_day = 1.0;
  cfg.time_unit = 0.5 * kDay;
  cfg.node_memory_kb = 10;
  cfg.ttl = 1.0 * kDay;
  cfg.manual_packets = {{0, 1, 0.0}};  // delivered within the 40 events
  CheckpointConfig cc;
  cc.dir = fresh_dir(name).string();
  cc.stop_after_events = 40;
  {
    CheckpointManager mgr(cc);
    DtnFlowRouter router;
    Network net(trace, router, cfg);
    EXPECT_FALSE(net.run(mgr));
  }
  std::string path;
  CheckpointManager probe(cc);
  auto bytes = probe.read_latest(&path);
  patch(bytes, cfg);
  std::ofstream(path, std::ios::binary | std::ios::trunc)
      .write(reinterpret_cast<const char*>(bytes.data()),
             static_cast<long>(bytes.size()));
  cc.stop_after_events = 0;
  CheckpointManager mgr(cc);
  DtnFlowRouter router;
  Network net(trace, router, cfg);
  EXPECT_THROW(net.run(mgr), FormatError);
}

std::uint64_t load_le(const std::vector<std::uint8_t>& bytes, std::size_t at,
                      std::size_t width) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < width; ++i) {
    v |= static_cast<std::uint64_t>(bytes[at + i]) << (8 * i);
  }
  return v;
}

void store_le(std::vector<std::uint8_t>& bytes, std::size_t at,
              std::size_t width, std::uint64_t v) {
  for (std::size_t i = 0; i < width; ++i) {
    bytes[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

// Hands the payload of section `name` (its offset in `bytes`) to `edit`,
// then re-seals the section's CRC, so only the semantic checks of the
// resume can refuse the image.
template <typename Edit>
void edit_section(std::vector<std::uint8_t>& bytes, const std::string& name,
                  Edit edit) {
  std::size_t at = persist::kMagicSize + 8;  // past magic, version, flags
  for (;;) {
    const auto name_len = static_cast<std::size_t>(load_le(bytes, at, 4));
    ASSERT_NE(name_len, 0u) << "no section " << name;
    const auto name_at = bytes.begin() + static_cast<long>(at + 4);
    const std::string section(name_at, name_at + static_cast<long>(name_len));
    at += 4 + name_len;
    const auto len = static_cast<std::size_t>(load_le(bytes, at, 8));
    at += 8;
    if (section == name) {
      edit(at);
      store_le(bytes, at + len, 4,
               persist::crc32(std::span<const std::uint8_t>(bytes.data() + at,
                                                            len)));
      return;
    }
    at += len + 4;
  }
}

// Inserts `extra` into the payload of section `name` at `offset` from
// its start, then rewrites the section's length and CRC around it.
void splice_section(std::vector<std::uint8_t>& bytes, const std::string& name,
                    std::size_t offset,
                    const std::vector<std::uint8_t>& extra) {
  std::size_t at = persist::kMagicSize + 8;  // past magic, version, flags
  for (;;) {
    const auto name_len = static_cast<std::size_t>(load_le(bytes, at, 4));
    ASSERT_NE(name_len, 0u) << "no section " << name;
    const auto name_at = bytes.begin() + static_cast<long>(at + 4);
    const std::string section(name_at, name_at + static_cast<long>(name_len));
    at += 4 + name_len;
    const auto len = static_cast<std::size_t>(load_le(bytes, at, 8));
    if (section == name) {
      ASSERT_LE(offset, len);
      store_le(bytes, at, 8, len + extra.size());
      at += 8;
      bytes.insert(bytes.begin() + static_cast<long>(at + offset),
                   extra.begin(), extra.end());
      const std::size_t new_len = len + extra.size();
      store_le(bytes, at + new_len, 4,
               persist::crc32(std::span<const std::uint8_t>(bytes.data() + at,
                                                            new_len)));
      return;
    }
    at += 8 + len + 4;
  }
}

TEST(CheckpointEdge, OlderSchemaSnapshotsAreRefused) {
  // Schema 1 images carried a pre-assigned packet id per workload entry,
  // a manual packet id table and one more packet state.  Schema 2 images
  // held every routing table's dense advertised matrix and its derived
  // routes and dirty bookkeeping.  Schema 3 predictor images held the
  // argmax, the stamp and the dense successor index of every node.
  // Schema 4 images held every pending packet, sweep and tick event in
  // the queue, the pre-drawn workload table and the workload RNG.
  // Schema 5 images held every node's location, previous landmark and
  // visit history, and every station's present list and the present
  // positions.  Schema 6 images held every packet's size, every store's
  // capacity and used bytes, and every bundle's size.  Schema 7 images
  // held every routing table's per-origin advertised times and expired
  // flags, and the evicted-kB and kB-lost counters.  Schema 8 images
  // held every store's on-disk overflow index, the two counters of
  // bundles written to and read back from disk, and the disk tier's
  // enabled bit in the configuration fingerprint.  Schema 9 images
  // held every landmark's present epoch, the stamp of a carrier-score
  // cache.  Schema 10 images held every node's predictor, predicted
  // transit, arrival time, exchange-thinning counters and stay
  // statistics, the router's accuracy matrix and station-outage mirror,
  // the injector's down sets and counts, every store's retained count
  // and the retry ledger's packet index.  Schema 11 images held the
  // centralized bandwidth estimator, every landmark's previous incoming
  // rates, the load-balancing monitors and toggles of runs without load
  // balancing, a pin flag and a four-field pin route per destination of
  // every routing table, and the router's time unit.  Schema 12 has none
  // of these, so an image stamped with an older version must be refused
  // up front rather than misparsed.
  ASSERT_EQ(persist::kSchemaVersion, 12u);
  for (const std::uint8_t older : {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}) {
    expect_patched_snapshot_refused(
        "schema_" + std::to_string(older),
        [&](std::vector<std::uint8_t>& bytes, const WorkloadConfig&) {
          // The version is a little-endian u32 right after the magic.
          bytes[persist::kMagicSize] = older;
        });
  }
}

TEST(CheckpointEdge, PacketOfAnotherSizeIsRefused) {
  // Schema 6 packet rows carried a u32 size between the TTL and the
  // logical id; later rows carry none (every packet is 1 kB).  A packet
  // table whose first row has that field spliced back in (a schema 6 row
  // under the current stamp, section CRC resealed) must be refused, not
  // read with every later field shifted.
  expect_patched_snapshot_refused(
      "packet_size",
      [](std::vector<std::uint8_t>& bytes, const WorkloadConfig&) {
        // count u64, then per packet: id, src, dst, dst_node u32 |
        // created, ttl f64 | logical u32 | ...
        edit_section(bytes, "packets", [&](std::size_t at) {
          ASSERT_GT(load_le(bytes, at, 8), 0u) << "no packet to patch";
        });
        splice_section(bytes, "packets", 8 + 32, {1, 0, 0, 0});
      });
}

TEST(CheckpointEdge, SchemaVersionMismatchIsRejected) {
  expect_patched_snapshot_refused(
      "schema", [](std::vector<std::uint8_t>& bytes, const WorkloadConfig&) {
        bytes[persist::kMagicSize] += 1;  // a future version
      });
}

TEST(CheckpointEdge, CorruptSnapshotPayloadIsRejectedOnResume) {
  expect_patched_snapshot_refused(
      "corrupt", [](std::vector<std::uint8_t>& bytes, const WorkloadConfig&) {
        bytes[bytes.size() / 2] ^= 0x40;  // flip a bit mid-stream
      });
}


// -- forged counts and shapes --------------------------------------------

// Saves `object` into a one-section image, lets `patch` edit the payload
// (re-sealing the CRC), and loads the result into `into`, which must
// refuse it with FormatError: a forged length is a format error, never
// a crash, a std::length_error or a huge allocation.
template <typename T, typename Patch>
void expect_forged_image_refused(const T& object, T& into, Patch patch) {
  Writer w;
  w.begin_section("object");
  object.save(w);
  w.end_section();
  w.finish();
  std::vector<std::uint8_t> bytes = w.buffer();
  edit_section(bytes, "object", [&](std::size_t at) { patch(bytes, at); });
  Reader r(bytes);
  r.expect_section("object");
  EXPECT_THROW(into.load(r), FormatError);
}

TEST(Serializer, ForgedMatrixShapeIsRefused) {
  // rho f64, unit u64, then the open counts matrix: rows u64, cols u64.
  // 2^32 x 2^32 cells wrap to a zero-sized allocation if the shape is
  // trusted.
  const core::DistributedBandwidth est(4, 0.5);
  core::DistributedBandwidth into(4, 0.5);
  expect_forged_image_refused(
      est, into, [](std::vector<std::uint8_t>& bytes, std::size_t at) {
        store_le(bytes, at + 16, 8, std::uint64_t{1} << 32);
        store_le(bytes, at + 24, 8, std::uint64_t{1} << 32);
      });
}

TEST(Serializer, ForgedBufferCountIsRefused) {
  // A store image opens with the id count u64.
  using net::BundleStore;
  BundleStore::Column column;
  BundleStore store(100, net::EvictionPolicy::kReject, false, column);
  BundleStore::AdmitRequest req;
  req.pid = 3;
  ASSERT_EQ(store.admit(req, nullptr), net::Admit::kStored);
  BundleStore::Column into_column(4, BundleStore::kAbsent);
  BundleStore into(100, net::EvictionPolicy::kReject, false, into_column);
  expect_forged_image_refused(
      store, into, [](std::vector<std::uint8_t>& bytes, std::size_t at) {
        store_le(bytes, at, 8, std::uint64_t{1} << 62);
      });
}

TEST(Serializer, ForgedEventCountIsRefused) {
  // next seq u64, popped u64, last popped f64, then the event count u64.
  sim::EventQueue queue;
  queue.schedule(sim::Event{1.0, 0, sim::EventKind::kTtlSweep, 0, 0});
  sim::EventQueue into;
  expect_forged_image_refused(
      queue, into, [](std::vector<std::uint8_t>& bytes, std::size_t at) {
        store_le(bytes, at + 24, 8, std::uint64_t{1} << 62);
      });
}

// -- field-boundary mutations ----------------------------------------------

// A small campus run whose every snapshot section is non-trivial: a
// fault plan, and bounded drop-oldest stations that deduplicate and
// evict.
struct MutationRun {
  trace::Trace trace;
  WorkloadConfig cfg;
  DtnFlowConfig router;
};

MutationRun mutation_run() {
  trace::CampusTraceConfig tc;
  tc.num_nodes = 16;
  tc.num_landmarks = 8;
  tc.num_communities = 3;
  tc.days = 6.0;
  tc.seed = 9;
  MutationRun run{generate_campus_trace(tc), campus_workload(),
                  full_router_config()};
  run.cfg.packets_per_landmark_per_day = 30.0;
  run.cfg.node_memory_kb = 6;
  run.cfg.store.station_memory_kb = 6;
  run.cfg.store.policy = net::EvictionPolicy::kDropOldest;
  run.cfg.store.dedup = true;
  sim::FaultPlan plan;
  plan.seed = 5;
  plan.node_crash_rate_per_day = 0.3;
  plan.station_outage_rate_per_day = 0.3;
  plan.transfer_failure_prob = 0.1;
  plan.dv_loss_prob = 0.05;
  plan.dv_delay_prob = 0.05;
  run.cfg.faults = plan;
  run.router.distributed_bandwidth = true;
  run.router.loop_correction = true;
  return run;
}

// Restores `image` into a fresh network: true when it loads, false on
// FormatError.  Any other exception propagates (and fails the caller).
// A loaded network keeps the configured store capacities: no image can
// bring in others.
bool restores(const MutationRun& run, const std::vector<std::uint8_t>& image,
              persist::Writer* out = nullptr) {
  DtnFlowRouter router(run.router);
  Network net(run.trace, router, run.cfg);
  try {
    net.debug_restore_for_test(image, out);
  } catch (const FormatError&) {
    return false;
  }
  for (std::size_t n = 0; n < run.trace.num_nodes(); ++n) {
    EXPECT_EQ(net.node_buffer(static_cast<net::NodeId>(n)).capacity_kb(),
              run.cfg.node_memory_kb)
        << "node " << n;
  }
  for (std::size_t l = 0; l < run.trace.num_landmarks(); ++l) {
    EXPECT_EQ(
        net.station_store(static_cast<net::LandmarkId>(l)).capacity_kb(),
        run.cfg.store.station_memory_kb)
        << "station " << l;
  }
  return true;
}

// The snapshot `run` writes halfway through its events, written under
// `dir`.
std::vector<std::uint8_t> mid_run_image(const MutationRun& run,
                                        const std::filesystem::path& dir) {
  CheckpointConfig cc;
  cc.dir = (dir / "ckpt").string();
  {
    DtnFlowRouter router(run.router);
    Network net(run.trace, router, run.cfg);
    net.run();
    cc.stop_after_events = net.events_executed() / 2;
    const RunCounters& c = net.counters();
    EXPECT_GT(c.evicted_policy, 0u);
    EXPECT_GT(c.dedup_refused, 0u);
    EXPECT_GT(c.node_crashes, 0u);
    EXPECT_GT(c.station_outages, 0u);
  }
  {
    CheckpointManager mgr(cc);
    DtnFlowRouter router(run.router);
    Network net(run.trace, router, run.cfg);
    EXPECT_FALSE(net.run(mgr));
  }
  return CheckpointManager(cc).read_latest();
}

TEST(CheckpointEdge, FieldBoundaryMutationsAreFormatErrorsOrLoad) {
  const auto dir = fresh_dir("mutation");
  const MutationRun run = mutation_run();
  const std::vector<std::uint8_t> image = mid_run_image(run, dir);

  // Map the image: restoring it and re-serializing into a Recorder must
  // reproduce it byte for byte, field by field.
  persist::Recorder rec;
  ASSERT_TRUE(restores(run, image, &rec));
  rec.finish();
  ASSERT_EQ(rec.buffer(), image);

  // Section payload bounds, to re-seal a CRC or cut a section short.
  struct Section {
    std::size_t len_at, begin, end;
  };
  std::vector<Section> sections;
  for (std::size_t at = persist::kMagicSize + 8;;) {
    const auto name_len = static_cast<std::size_t>(load_le(image, at, 4));
    if (name_len == 0) break;
    const std::size_t len_at = at + 4 + name_len;
    const auto len = static_cast<std::size_t>(load_le(image, len_at, 8));
    sections.push_back({len_at, len_at + 8, len_at + 8 + len});
    at = len_at + 8 + len + 4;
  }
  const auto section_of = [&](std::size_t at) {
    return *std::find_if(sections.begin(), sections.end(),
                         [&](const Section& s) { return at < s.end; });
  };
  const auto reseal = [](std::vector<std::uint8_t>& bytes, const Section& s) {
    store_le(bytes, s.end, 4,
             persist::crc32(std::span<const std::uint8_t>(
                 bytes.data() + s.begin, s.end - s.begin)));
  };

  // One seeded occurrence of every field (a name, and whether it is a
  // length: a packet table holds hundreds of rows of the same fields),
  // each mutated three ways.
  std::vector<std::vector<persist::FieldSpan>> by_name;
  for (const persist::FieldSpan& f : rec.fields()) {
    auto it = std::find_if(by_name.begin(), by_name.end(), [&](const auto& v) {
      return std::string(v.front().name) == f.name &&
             v.front().length == f.length;
    });
    if (it == by_name.end()) {
      by_name.push_back({f});
    } else {
      it->push_back(f);
    }
  }
  ASSERT_GT(by_name.size(), 150u);
  Rng rng(2024);
  for (const auto& spans : by_name) {
    const persist::FieldSpan f = spans[rng.uniform_index(spans.size())];
    const Section s = section_of(f.offset);
    const auto restore = [&](const std::vector<std::uint8_t>& bytes,
                             const char* how) {
      SCOPED_TRACE(std::string(how) + " field '" + f.name + "' at " +
                   std::to_string(f.offset));
      try {
        return restores(run, bytes);
      } catch (const std::exception& e) {
        ADD_FAILURE() << "not a FormatError: " << e.what();
        return false;
      }
    };
    // Truncated at the field: the section ends where the field begins.
    std::vector<std::uint8_t> cut(
        image.begin(), image.begin() + static_cast<std::ptrdiff_t>(f.offset));
    store_le(cut, s.len_at, 8, f.offset - s.begin);
    cut.resize(cut.size() + 4);
    cut.insert(cut.end(),
               image.begin() + static_cast<std::ptrdiff_t>(s.end + 4),
               image.end());
    reseal(cut, {s.len_at, s.begin, f.offset});
    EXPECT_FALSE(restore(cut, "truncated at")) << "a cut section loaded";
    // One byte flipped inside the field.
    std::vector<std::uint8_t> flipped = image;
    flipped[f.offset + rng.uniform_index(f.width)] ^=
        static_cast<std::uint8_t>(1 + rng.uniform_index(255));
    reseal(flipped, s);
    restore(flipped, "flipped");
    // A length set to its maximum.
    if (f.length) {
      std::vector<std::uint8_t> longest = image;
      store_le(longest, f.offset, f.width, ~std::uint64_t{0});
      reseal(longest, s);
      restore(longest, "maximal length of");
    }
  }
}

// The FormatError a restore of `image` throws, or "" when it loads.
std::string restore_error(const MutationRun& run,
                          const std::vector<std::uint8_t>& image) {
  DtnFlowRouter router(run.router);
  Network net(run.trace, router, run.cfg);
  try {
    net.debug_restore_for_test(image);
  } catch (const FormatError& e) {
    return e.what();
  }
  return "";
}

// Where each retry-ledger entry's packet id sits in a real faulted
// mid-run image, and the packet table's size.
struct LedgerImage {
  std::vector<std::uint8_t> image;
  std::vector<std::size_t> packet_at;
  std::uint64_t packets = 0;
};

LedgerImage ledger_image(const std::string& name) {
  const MutationRun run = mutation_run();
  LedgerImage li{mid_run_image(run, fresh_dir(name)), {}, 0};
  persist::Recorder rec;
  EXPECT_TRUE(restores(run, li.image, &rec));
  for (const persist::FieldSpan& f : rec.fields()) {
    const std::string field = f.name;
    if (field == "ledger packet") li.packet_at.push_back(f.offset);
    if (field == "packets" && f.length) {
      li.packets = load_le(li.image, f.offset, 8);
    }
  }
  return li;
}

TEST(CheckpointEdge, LedgerNamingAPacketTwiceIsRefused) {
  // The packet -> slot index is rebuilt from the entries on load; two
  // entries for one packet have no index.
  LedgerImage li = ledger_image("ledger_twice");
  ASSERT_GE(li.packet_at.size(), 2u) << "no two pending retries to patch";
  const std::uint64_t first = load_le(li.image, li.packet_at[0], 4);
  store_le(li.image, li.packet_at[1], 4, first);
  edit_section(li.image, "ledger", [](std::size_t) {});
  EXPECT_NE(restore_error(mutation_run(), li.image)
                .find("ledger names a packet twice"),
            std::string::npos);
}

TEST(CheckpointEdge, LedgerPacketOutOfRangeIsRefused) {
  LedgerImage li = ledger_image("ledger_range");
  ASSERT_GE(li.packet_at.size(), 1u) << "no pending retry to patch";
  ASSERT_GT(li.packets, 0u);
  store_le(li.image, li.packet_at[0], 4, li.packets);
  edit_section(li.image, "ledger", [](std::size_t) {});
  EXPECT_NE(restore_error(mutation_run(), li.image)
                .find("ledger packet out of range"),
            std::string::npos);
}

TEST(CheckpointEdge, PacketListedByANodeAndAStationStoreIsRefused) {
  // Every store writes its ids' positions into one network-wide column,
  // so a packet that two stores list would need two positions there.
  // Splice a node-held id over the first id of a station store's list:
  // the load refuses the image and names the packet.
  const MutationRun run = mutation_run();
  std::vector<std::uint8_t> image = mid_run_image(run, fresh_dir("splice"));
  persist::Recorder rec;
  ASSERT_TRUE(restores(run, image, &rec));
  std::size_t stations_at = 0;
  for (const persist::FieldSpan& f : rec.fields()) {
    if (std::string(f.name) == "station count") stations_at = f.offset;
  }
  ASSERT_NE(stations_at, 0u);
  std::size_t node_ids = 0;
  std::size_t station_ids = 0;
  for (const persist::FieldSpan& f : rec.fields()) {
    if (std::string(f.name) != "buffer packets" || f.length) continue;
    std::size_t& first = f.offset < stations_at ? node_ids : station_ids;
    if (first == 0) first = f.offset;
  }
  ASSERT_NE(node_ids, 0u) << "no node store holds a packet";
  ASSERT_NE(station_ids, 0u) << "no station store holds a packet";
  const std::uint64_t pid = load_le(image, node_ids, 4);
  store_le(image, station_ids, 4, pid);
  edit_section(image, "stations", [](std::size_t) {});
  const std::string error = restore_error(run, image);
  EXPECT_NE(error.find("packet " + std::to_string(pid) +
                       " is held by two stores"),
            std::string::npos)
      << error;
}

TEST(CheckpointEdge, ImageHoldsNoStateTheInputsRegenerate) {
  // A faulted, bounded mid-run image maps to no per-node router field,
  // no predictor, no down set, retained count or ledger index: a load
  // folds or rebuilds all of them.  The fault log and ledger stay.
  const MutationRun run = mutation_run();
  const auto image = mid_run_image(run, fresh_dir("image_map"));
  persist::Recorder rec;
  ASSERT_TRUE(restores(run, image, &rec));
  std::vector<std::string> names;
  for (const persist::FieldSpan& f : rec.fields()) names.emplace_back(f.name);
  const auto has = [&](const std::string& prefix) {
    return std::any_of(names.begin(), names.end(), [&](const auto& n) {
      return n.rfind(prefix, 0) == 0;
    });
  };
  for (const char* gone :
       {"predictor", "node predicted", "node arrival time",
        "node departures since vector", "node stay", "node total stay",
        "router accuracy", "router station down", "down node",
        "down station", "store retained count", "ledger index"}) {
    EXPECT_FALSE(has(gone)) << "image still holds '" << gone << "'";
  }
  EXPECT_TRUE(has("transition time"));
  EXPECT_TRUE(has("ledger packet"));
  EXPECT_TRUE(has("node carries a vector"));
  // Router state nothing reads, or that the trace regenerates: the
  // centralized estimator is folded on load, so only the distributed
  // one (this run's) leaves fields named "bandwidth".
  const auto named = [&](const std::string& name) {
    return std::find(names.begin(), names.end(), name) != names.end();
  };
  for (const char* gone :
       {"router time unit", "landmark previous incoming rates",
        "routing table pinned", "routing table next hop",
        "routing table backup next hop", "routing table pinned backup delay",
        "bandwidth units closed", "bandwidth ewma"}) {
    EXPECT_FALSE(named(gone)) << "image still holds '" << gone << "'";
  }
  EXPECT_TRUE(named("routing table pins"));
  EXPECT_TRUE(named("landmark divert toggles"));  // load balancing is on

  // With load balancing and the distributed estimator off, neither the
  // monitors nor any bandwidth field is left.
  MutationRun plain = run;
  plain.router.load_balancing = false;
  plain.router.distributed_bandwidth = false;
  const auto plain_image = mid_run_image(plain, fresh_dir("image_map_plain"));
  persist::Recorder plain_rec;
  ASSERT_TRUE(restores(plain, plain_image, &plain_rec));
  names.clear();
  for (const persist::FieldSpan& f : plain_rec.fields()) {
    names.emplace_back(f.name);
  }
  for (const char* gone :
       {"bandwidth", "landmark incoming rates", "landmark outgoing rates",
        "landmark previous outgoing rates", "landmark divert toggles",
        "router time unit", "landmark previous incoming rates"}) {
    EXPECT_FALSE(has(gone)) << "image still holds '" << gone << "'";
  }
}

TEST(CheckpointEdge, LinkDelayOffTheFoldedEstimatorIsRefused) {
  // The estimator is not in the image but folded on load; the tables'
  // link delays are.  A table whose station was up at the last tick
  // took its links from the estimator then, so one patched delay
  // disagrees with the fold and the load's audit refuses the image.
  MutationRun run = mutation_run();
  run.router.distributed_bandwidth = false;  // the fold drives the links
  std::vector<std::uint8_t> image = mid_run_image(run, fresh_dir("link_delay"));
  persist::Recorder rec;
  ASSERT_TRUE(restores(run, image, &rec));
  // A station the fault log never downed was up at every tick.
  const std::size_t landmarks = run.trace.num_landmarks();
  std::vector<bool> ever_down(landmarks, false);
  {
    DtnFlowRouter router(run.router);
    Network net(run.trace, router, run.cfg);
    net.debug_restore_for_test(image);
    for (const auto& t : net.faults()->log()) {
      if (!t.node()) ever_down[t.id] = true;
    }
  }
  const auto up = std::find(ever_down.begin(), ever_down.end(), false);
  ASSERT_NE(up, ever_down.end()) << "every station had an outage";
  const auto table = static_cast<std::size_t>(up - ever_down.begin());
  // The table's delay of its link to another landmark.
  std::vector<std::size_t> delays;
  for (const persist::FieldSpan& f : rec.fields()) {
    if (std::string(f.name) == "routing table link delay") {
      delays.push_back(f.offset);
    }
  }
  ASSERT_EQ(delays.size(), landmarks * landmarks);
  const std::size_t at = delays[table * landmarks + (table == 0 ? 1 : 0)];
  const double held = std::bit_cast<double>(load_le(image, at, 8));
  store_le(image, at, 8,
           std::bit_cast<std::uint64_t>(held == 3600.0 ? 7200.0 : 3600.0));
  edit_section(image, "router", [](std::size_t) {});
  const std::string error = restore_error(run, image);
  EXPECT_NE(error.find("router.link_delays"), std::string::npos) << error;
}

TEST(CheckpointEdge, FaultLogContradictingTheQueuedEventsIsRefused) {
  // A fault log whose last entry downs a node whose crash is still
  // queued: the resumed run would crash a crashed node, a transition
  // the injector refuses mid-run.  The load compares each id's queued
  // transitions with the down sets the log rebuilds, and refuses.
  const MutationRun run = mutation_run();
  std::vector<std::uint8_t> image = mid_run_image(run, fresh_dir("fault_log"));
  persist::Recorder rec;
  ASSERT_TRUE(restores(run, image, &rec));
  std::vector<std::pair<sim::EventKind, std::uint32_t>> queued;  // kind, a
  std::size_t count_at = 0;
  std::size_t log_end = 0;
  double last_time = 0.0;
  for (const persist::FieldSpan& f : rec.fields()) {
    const std::string name = f.name;
    if (name == "queue event kind") {
      queued.emplace_back(static_cast<sim::EventKind>(image[f.offset]), 0);
    } else if (name == "queue event a") {
      queued.back().second =
          static_cast<std::uint32_t>(load_le(image, f.offset, 4));
    } else if (name == "fault transitions" && f.length) {
      count_at = f.offset;
      log_end = f.offset + f.width;
    } else if (name == "transition time") {
      last_time = std::bit_cast<double>(load_le(image, f.offset, 8));
    } else if (name == "transition kind") {
      log_end = f.offset + f.width;
    }
  }
  // Node 3 (or the first node after it) with a crash queued is up.
  std::uint32_t node = 3;
  const auto crash_queued = [&](std::uint32_t n) {
    return std::find(queued.begin(), queued.end(),
                     std::pair{sim::EventKind::kNodeCrash, n}) !=
           queued.end();
  };
  while (node < run.trace.num_nodes() && !crash_queued(node)) ++node;
  ASSERT_LT(node, run.trace.num_nodes()) << "no queued crash";
  ASSERT_NE(count_at, 0u);
  // Append "node down" at the log's last time (a log may not go back).
  store_le(image, count_at, 8, load_le(image, count_at, 8) + 1);
  std::vector<std::uint8_t> entry(13, 0);
  store_le(entry, 0, 8, std::bit_cast<std::uint64_t>(last_time));
  store_le(entry, 8, 4, node);
  entry[12] = static_cast<std::uint8_t>(
      sim::FaultInjector::Transition::Kind::kNodeDown);
  std::size_t payload = 0;
  edit_section(image, "faults", [&](std::size_t at) { payload = at; });
  splice_section(image, "faults", log_end - payload, entry);
  const std::string error = restore_error(run, image);
  EXPECT_NE(error.find("downs node " + std::to_string(node)),
            std::string::npos)
      << error;
}

TEST(CheckpointEdge, PendingEventsNamingNothingOfTheRunAreRefused) {
  const auto dir = fresh_dir("queue_events");
  const MutationRun run = mutation_run();
  const std::vector<std::uint8_t> image = mid_run_image(run, dir);
  ASSERT_TRUE(restores(run, image));

  // Where the static position, the static schedule's size and each
  // pending event's kind, a and b sit in the image.
  persist::Recorder rec;
  ASSERT_TRUE(restores(run, image, &rec));
  struct Queued {
    sim::EventKind kind;
    std::uint32_t a, b;
    std::size_t kind_at, a_at, b_at;
  };
  std::vector<Queued> queued;
  std::size_t position_at = 0;
  std::uint64_t static_events = 0;
  for (const persist::FieldSpan& f : rec.fields()) {
    const std::string name = f.name;
    if (name == "static schedule position") {
      position_at = f.offset;
    } else if (name == "static event count") {
      static_events = load_le(image, f.offset, 8);
    } else if (name == "queue event kind") {
      queued.push_back({static_cast<sim::EventKind>(image[f.offset]), 0, 0,
                        f.offset, 0, 0});
    } else if (name == "queue event a") {
      queued.back().a = static_cast<std::uint32_t>(load_le(image, f.offset, 4));
      queued.back().a_at = f.offset;
    } else if (name == "queue event b") {
      queued.back().b = static_cast<std::uint32_t>(load_le(image, f.offset, 4));
      queued.back().b_at = f.offset;
    }
  }
  // A mid-run image: static events both behind and ahead of its clock,
  // so position 0 names an event behind the clock and the end of the
  // schedule follows events ahead of it.
  ASSERT_NE(position_at, 0u);
  const std::uint64_t position = load_le(image, position_at, 8);
  ASSERT_GT(position, 0u);
  ASSERT_LT(position, static_events);
  const auto first = [&](auto pred) {
    const auto it = std::find_if(queued.begin(), queued.end(), pred);
    EXPECT_NE(it, queued.end());
    return it == queued.end() ? Queued{} : *it;
  };
  const Queued crash = first([](const Queued& q) {
    return q.kind == sim::EventKind::kNodeCrash ||
           q.kind == sim::EventKind::kNodeReboot;
  });
  const Queued outage = first([](const Queued& q) {
    return q.kind == sim::EventKind::kStationDown ||
           q.kind == sim::EventKind::kStationUp;
  });
  const auto landmarks =
      static_cast<std::uint32_t>(run.trace.num_landmarks());
  const auto nodes = static_cast<std::uint32_t>(run.trace.num_nodes());

  struct Edit {
    std::size_t at, width;
    std::uint64_t value;
  };
  struct Patch {
    const char* what;
    std::vector<Edit> edits;
  };
  const auto kind = [](sim::EventKind k) {
    return static_cast<std::uint64_t>(k);
  };
  const std::vector<Patch> patches = {
      {"static position past the end of the schedule",
       {{position_at, 8, static_events + 1}}},
      {"static position behind the clock", {{position_at, 8, 0}}},
      {"static position ahead of the clock",
       {{position_at, 8, static_events}}},
      {"crash of a node the trace does not have", {{crash.a_at, 4, nodes}}},
      // The plan schedules no crash, so b names no scheduled window.
      {"crash naming a scheduled crash the plan lacks", {{crash.b_at, 4, 1}}},
      {"outage of a landmark the trace does not have",
       {{outage.a_at, 4, landmarks}}},
      {"outage naming a scheduled outage the plan lacks",
       {{outage.b_at, 4, 1}}},
      // Only fault events are ever queued.
      {"trace arrival in the queue",
       {{crash.kind_at, 1, kind(sim::EventKind::kArrival)}}},
      {"trace departure in the queue",
       {{crash.kind_at, 1, kind(sim::EventKind::kDeparture)}}},
      {"generation in the queue",
       {{crash.kind_at, 1, kind(sim::EventKind::kPacketGen)}}},
      {"manual packet in the queue",
       {{crash.kind_at, 1, kind(sim::EventKind::kManualPacket)}}},
      {"TTL sweep in the queue",
       {{crash.kind_at, 1, kind(sim::EventKind::kTtlSweep)}}},
      {"time-unit tick in the queue",
       {{crash.kind_at, 1, kind(sim::EventKind::kTimeUnitTick)}}},
  };
  for (const Patch& p : patches) {
    SCOPED_TRACE(p.what);
    std::vector<std::uint8_t> patched = image;
    for (const Edit& e : p.edits) store_le(patched, e.at, e.width, e.value);
    ASSERT_NE(patched, image);
    edit_section(patched, "sim", [](std::size_t) {});
    try {
      EXPECT_FALSE(restores(run, patched));
    } catch (const std::exception& e) {
      ADD_FAILURE() << "not a FormatError: " << e.what();
    }
  }
}

}  // namespace
}  // namespace dtn
