// Microbenchmarks of the core data structures (google-benchmark).
//
// Not a paper figure: these guard the hot paths of the simulator so the
// paper-scale (--scale full) runs stay tractable.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/bandwidth.hpp"
#include "core/markov_predictor.hpp"
#include "core/routing_table.hpp"
#include "net/bundle_store.hpp"
#include "sim/event_queue.hpp"
#include <filesystem>

#include "core/dtn_flow_router.hpp"
#include "net/network.hpp"
#include "persist/checkpoint.hpp"
#include "persist/serializer.hpp"
#include "trace/campus_generator.hpp"
#include "trace/city_generator.hpp"
#include "trace/cursor.hpp"
#include "util/rng.hpp"

namespace {

void BM_PredictorRecordVisit(benchmark::State& state) {
  const auto order = static_cast<std::size_t>(state.range(0));
  dtn::core::MarkovPredictor p(64, order);
  dtn::Rng rng(1);
  std::vector<dtn::trace::LandmarkId> seq;
  for (int i = 0; i < 4096; ++i) {
    seq.push_back(static_cast<dtn::trace::LandmarkId>(rng.uniform_index(64)));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    p.record_visit(seq[i++ & 4095]);
  }
}
BENCHMARK(BM_PredictorRecordVisit)->Arg(1)->Arg(2)->Arg(3);

void BM_PredictorPredict(benchmark::State& state) {
  dtn::core::MarkovPredictor p(64, 1);
  dtn::Rng rng(2);
  for (int i = 0; i < 10000; ++i) {
    p.record_visit(static_cast<dtn::trace::LandmarkId>(rng.uniform_index(64)));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(p.predict());
  }
}
BENCHMARK(BM_PredictorPredict);

void BM_PredictorProbabilityOf(benchmark::State& state) {
  dtn::core::MarkovPredictor p(64, 1);
  dtn::Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    p.record_visit(static_cast<dtn::trace::LandmarkId>(rng.uniform_index(64)));
  }
  dtn::trace::LandmarkId l = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(p.probability_of(l));
    l = (l + 1) % 64;
  }
}
BENCHMARK(BM_PredictorProbabilityOf);

void BM_MarkovPredict(benchmark::State& state) {
  // The router's per-candidate query pattern at packet-dispatch time:
  // argmax prediction plus a conditional probability toward a cycling
  // next hop, on a trained predictor.  This is the inner loop of
  // carrier selection, so it is the headline predictor number the
  // perf harness tracks (>= 2x over the hash-map store).
  const auto order = static_cast<std::size_t>(state.range(0));
  dtn::core::MarkovPredictor p(64, order);
  dtn::Rng rng(11);
  for (int i = 0; i < 10000; ++i) {
    p.record_visit(static_cast<dtn::trace::LandmarkId>(rng.uniform_index(64)));
  }
  dtn::trace::LandmarkId l = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(p.predict());
    benchmark::DoNotOptimize(p.probability_of(l));
    l = (l + 1) % 64;
  }
}
BENCHMARK(BM_MarkovPredict)->Arg(1)->Arg(2);

/// A neighbor's vector whose advertisement to one destination drifts
/// before every merge.  The table holds the last merged payload as its
/// row, so two buffers alternate: each drift goes into the one the
/// table does not hold, after that buffer catches up with the previous
/// drift.  Every merge then sweeps the row and finds one changed cell.
class DriftingVector {
 public:
  DriftingVector(std::size_t n, dtn::Rng& rng) {
    std::vector<double> delay(n);
    for (auto& d : delay) d = rng.uniform(1.0, 100.0);
    delay[1] = 0.0;
    for (int i = 0; i < 2; ++i) {
      buffers_[i] = std::make_shared<std::vector<double>>(delay);
      vectors_[i] = dtn::core::DistanceVector{1, 0, buffers_[i]};
    }
  }

  /// The next vector from landmark 1, with destination `k` drifted.
  const dtn::core::DistanceVector& drift(std::size_t k) {
    const std::vector<double>& held = *buffers_[held_];
    held_ = 1 - held_;
    std::vector<double>& free = *buffers_[held_];
    free[last_] = held[last_];
    free[k] = held[k] + 0.25;
    last_ = k;
    vectors_[held_].seq = seq_++;
    return vectors_[held_];
  }

 private:
  std::shared_ptr<std::vector<double>> buffers_[2];
  dtn::core::DistanceVector vectors_[2];
  std::size_t held_ = 0;
  std::size_t last_ = 0;
  std::uint64_t seq_ = 0;
};

void BM_RoutingTableMerge(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  dtn::core::RoutingTable table(0, n);
  dtn::Rng rng(4);
  for (std::size_t j = 1; j < n; ++j) {
    table.set_link_delay(static_cast<dtn::trace::LandmarkId>(j),
                         rng.uniform(1.0, 100.0));
  }
  DriftingVector vector(n, rng);
  std::size_t i = 0;
  for (auto _ : state) {
    ++i;
    benchmark::DoNotOptimize(table.merge(vector.drift(2 + i % (n - 2))));
    benchmark::DoNotOptimize(
        table.route(static_cast<dtn::trace::LandmarkId>(i % n)));
  }
}
BENCHMARK(BM_RoutingTableMerge)->Arg(18)->Arg(159);

void BM_RoutingTableRecompute(benchmark::State& state) {
  // The arrival hot path in miniature: a carried distance vector whose
  // entries barely moved merges into a warm table, then one route is
  // queried.  A full-table recompute pays O(n^2) per iteration here;
  // the incremental table pays the merge's changed-cell scan plus O(1)
  // upkeep per changed cell, and a rescan over the neighbor list only
  // when the cell raised the cost of the column's best or backup hop.
  const auto n = static_cast<std::size_t>(state.range(0));
  dtn::core::RoutingTable table(0, n);
  dtn::Rng rng(12);
  for (std::size_t j = 1; j < n; ++j) {
    table.set_link_delay(static_cast<dtn::trace::LandmarkId>(j),
                         rng.uniform(1.0, 100.0));
  }
  DriftingVector vector(n, rng);
  // Warm the table so the loop below never pays first-touch costs.
  (void)table.merge(vector.drift(2));
  (void)table.route(2);
  std::size_t k = 2;
  for (auto _ : state) {
    // One destination's advertisement drifts.
    benchmark::DoNotOptimize(table.merge(vector.drift(k)));
    benchmark::DoNotOptimize(
        table.route(static_cast<dtn::trace::LandmarkId>(k)));
    k = 2 + (k - 1) % (n - 2);
  }
}
BENCHMARK(BM_RoutingTableRecompute)->Arg(18)->Arg(159);

void BM_RoutingTableSnapshot(benchmark::State& state) {
  // An unchanged table: every snapshot shares the published payload.
  const std::size_t n = 159;
  dtn::core::RoutingTable table(0, n);
  dtn::Rng rng(5);
  for (std::size_t j = 1; j < n; ++j) {
    table.set_link_delay(static_cast<dtn::trace::LandmarkId>(j),
                         rng.uniform(1.0, 100.0));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.snapshot());
  }
}
BENCHMARK(BM_RoutingTableSnapshot);

void BM_RoutingTableSnapshotDirty(benchmark::State& state) {
  // One link changes before every snapshot: the full-table recompute,
  // the content check and the republish of a fresh payload.
  const std::size_t n = 159;
  dtn::core::RoutingTable table(0, n);
  dtn::Rng rng(5);
  for (std::size_t j = 1; j < n; ++j) {
    table.set_link_delay(static_cast<dtn::trace::LandmarkId>(j),
                         rng.uniform(1.0, 100.0));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    // Each link rises by 0.25 on one pass over the links, falls back on
    // the next.
    const auto link = static_cast<dtn::trace::LandmarkId>(1 + i % (n - 1));
    const double step = (i / (n - 1)) % 2 == 0 ? 0.25 : -0.25;
    table.set_link_delay(link, table.link_delay(link) + step);
    benchmark::DoNotOptimize(table.snapshot());
    ++i;
  }
}
BENCHMARK(BM_RoutingTableSnapshotDirty);

void BM_CarrierSelect(benchmark::State& state) {
  // Carrier-selection-dominated end-to-end run: few landmarks, dense
  // presence and a heavy packet workload, so nearly all the time goes
  // into the dispatch scans that score every present node as a carrier
  // afresh for each station packet.
  dtn::trace::CampusTraceConfig cfg;
  cfg.num_nodes = 96;
  cfg.num_landmarks = 8;
  cfg.num_communities = 2;
  cfg.days = 4.0;
  cfg.seed = 27;
  const auto trace = dtn::trace::generate_campus_trace(cfg);
  for (auto _ : state) {
    dtn::core::DtnFlowRouter router;
    dtn::net::WorkloadConfig wl;
    wl.packets_per_landmark_per_day = 150.0;
    wl.time_unit = 0.5 * dtn::trace::kDay;
    wl.ttl = 2.0 * dtn::trace::kDay;
    wl.node_memory_kb = 50;
    dtn::net::Network net(trace, router, wl);
    net.run();
    benchmark::DoNotOptimize(net.counters().delivered);
  }
}
BENCHMARK(BM_CarrierSelect);

void BM_EventQueueScheduleRun(benchmark::State& state) {
  // Schedule-and-drain 1024 typed events: the core heap operation of
  // the replay loop, allocation-free POD events.
  for (auto _ : state) {
    dtn::sim::EventQueue q;
    dtn::Rng rng(6);
    std::uint64_t sink = 0;
    for (std::uint32_t i = 0; i < 1024; ++i) {
      dtn::sim::Event ev;
      ev.time = rng.uniform(0.0, 1e6);
      ev.kind = dtn::sim::EventKind::kArrival;
      ev.a = i;
      q.schedule(ev);
    }
    while (!q.empty()) sink += q.pop().a;
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_EventQueueScheduleRun);

void BM_TraceCursorReplay(benchmark::State& state) {
  // Pure drain throughput of the presorted trace cursor (no network on
  // top); each iteration's cursor is built outside the timed region.
  dtn::trace::CampusTraceConfig cfg;
  cfg.num_nodes = 64;
  cfg.num_landmarks = 16;
  cfg.days = 16.0;
  cfg.seed = 21;
  const auto trace = dtn::trace::generate_campus_trace(cfg);
  std::uint64_t events = 0;
  for (auto _ : state) {
    state.PauseTiming();
    dtn::trace::TraceCursor cursor(trace);
    state.ResumeTiming();
    double t = 0.0;
    while (!cursor.exhausted()) {
      t = cursor.peek().time;
      cursor.advance();
      ++events;
    }
    benchmark::DoNotOptimize(t);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_TraceCursorReplay);

// A node store's admit/remove cycle: 256 bundles into a bounded reject
// store with default metadata, then out again in admission order.
void BM_BufferAddRemove(benchmark::State& state) {
  dtn::net::BundleStore::Column column;
  dtn::net::BundleStore store(4096, dtn::net::EvictionPolicy::kReject, false,
                              column);
  dtn::net::BundleStore::AdmitRequest req;
  req.check_dedup = false;
  for (auto _ : state) {
    for (dtn::net::PacketId p = 0; p < 256; ++p) {
      req.pid = p;
      req.logical = p;
      benchmark::DoNotOptimize(store.admit(req, nullptr));
    }
    for (dtn::net::PacketId p = 0; p < 256; ++p) {
      store.remove(p);
    }
  }
}
BENCHMARK(BM_BufferAddRemove);

// One station-to-node transfer's store work, repeated: a ~300-bundle
// unbounded station store (the busiest campus stations) removes one
// bundle and admits another, ids in shuffled order so removals land at
// scattered positions, over a position column as in a network.  Not
// gated (no baseline entry).
void BM_StationStoreTransfer(benchmark::State& state) {
  constexpr std::size_t kHeld = 300;
  std::vector<dtn::net::PacketId> ids(2 * kHeld);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    ids[i] = static_cast<dtn::net::PacketId>(i * 37 + 11);
  }
  dtn::Rng rng(5);
  for (std::size_t i = ids.size() - 1; i > 0; --i) {
    std::swap(ids[i], ids[rng.uniform_index(i + 1)]);
  }
  dtn::net::BundleStore::Column column;
  dtn::net::BundleStore store(0, dtn::net::EvictionPolicy::kReject, false,
                              column);
  dtn::net::BundleStore::AdmitRequest req;
  req.check_dedup = false;
  const auto admit = [&](dtn::net::PacketId pid) {
    req.pid = pid;
    req.logical = pid;
    benchmark::DoNotOptimize(store.admit(req, nullptr));
  };
  for (std::size_t i = 0; i < kHeld; ++i) admit(ids[i]);
  for (auto _ : state) {
    // Remove the resident half in admission order while admitting the
    // other half, then swap halves for the next round.
    for (std::size_t i = 0; i < kHeld; ++i) {
      store.remove(ids[i]);
      admit(ids[kHeld + i]);
    }
    std::rotate(ids.begin(), ids.begin() + kHeld, ids.end());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * kHeld));
}
BENCHMARK(BM_StationStoreTransfer);

void BM_BandwidthCloseUnit(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  dtn::core::BandwidthEstimator bw(n, 0.5);
  dtn::Rng rng(7);
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) {
      const auto a = static_cast<dtn::trace::LandmarkId>(rng.uniform_index(n));
      auto b = static_cast<dtn::trace::LandmarkId>(rng.uniform_index(n - 1));
      if (b >= a) ++b;
      bw.record_transit(a, b);
    }
    bw.close_unit();
  }
}
BENCHMARK(BM_BandwidthCloseUnit)->Arg(18)->Arg(159);

void BM_CampusTraceGeneration(benchmark::State& state) {
  for (auto _ : state) {
    dtn::trace::CampusTraceConfig cfg;
    cfg.num_nodes = 32;
    cfg.num_landmarks = 16;
    cfg.days = 8.0;
    cfg.seed = 42;
    benchmark::DoNotOptimize(dtn::trace::generate_campus_trace(cfg));
  }
}
BENCHMARK(BM_CampusTraceGeneration);

void BM_EndToEndCampusRun(benchmark::State& state) {
  dtn::trace::CampusTraceConfig cfg;
  cfg.num_nodes = 24;
  cfg.num_landmarks = 10;
  cfg.num_communities = 4;
  cfg.days = 6.0;
  cfg.seed = 9;
  const auto trace = dtn::trace::generate_campus_trace(cfg);
  for (auto _ : state) {
    dtn::core::DtnFlowRouter router;
    dtn::net::WorkloadConfig wl;
    wl.packets_per_landmark_per_day = 10.0;
    wl.time_unit = 0.5 * dtn::trace::kDay;
    wl.ttl = 2.0 * dtn::trace::kDay;
    wl.node_memory_kb = 30;
    dtn::net::Network net(trace, router, wl);
    net.run();
    benchmark::DoNotOptimize(net.counters().delivered);
  }
}
BENCHMARK(BM_EndToEndCampusRun);

void BM_OverloadReplay(benchmark::State& state) {
  // The campus run with stations bounded far below the offered load and
  // the drop-oldest policy on: every station admission runs the
  // eviction scan, so this guards the bounded-store hot path (victim
  // selection + slab swap-erase) rather than the happy path.
  dtn::trace::CampusTraceConfig cfg;
  cfg.num_nodes = 24;
  cfg.num_landmarks = 10;
  cfg.num_communities = 4;
  cfg.days = 6.0;
  cfg.seed = 9;
  const auto trace = dtn::trace::generate_campus_trace(cfg);
  for (auto _ : state) {
    dtn::core::DtnFlowRouter router;
    dtn::net::WorkloadConfig wl;
    wl.packets_per_landmark_per_day = 30.0;
    wl.time_unit = 0.5 * dtn::trace::kDay;
    wl.ttl = 2.0 * dtn::trace::kDay;
    wl.node_memory_kb = 30;
    wl.store.station_memory_kb = 10;
    wl.store.policy = dtn::net::EvictionPolicy::kDropOldest;
    dtn::net::Network net(trace, router, wl);
    net.run();
    benchmark::DoNotOptimize(net.counters().evicted_policy);
  }
}
BENCHMARK(BM_OverloadReplay);

void BM_EndToEndReplayEventsPerSec(benchmark::State& state) {
  // Replay-engine throughput in events/second on a DART-quick-shaped
  // trace: the full Network event path (trace cursor merge, typed
  // dispatch, presence/history bookkeeping, tick sweeps) with a no-op
  // router and no packet workload, so the number isolates the engine
  // rather than any routing algorithm.  This is the headline number
  // the perf-regression harness tracks release to release
  // (items_per_second in BENCH_hotpath.json).
  struct NullRouter final : dtn::net::Router {
    [[nodiscard]] std::string name() const override { return "null"; }
  };
  dtn::trace::CampusTraceConfig cfg;
  cfg.num_nodes = 64;
  cfg.num_landmarks = 16;
  cfg.num_communities = 4;
  cfg.days = 16.0;
  cfg.seed = 33;
  const auto trace = dtn::trace::generate_campus_trace(cfg);
  std::uint64_t events = 0;
  for (auto _ : state) {
    NullRouter router;
    dtn::net::WorkloadConfig wl;
    wl.packets_per_landmark_per_day = 0.0;
    wl.time_unit = 0.5 * dtn::trace::kDay;
    dtn::net::Network net(trace, router, wl);
    net.run();
    events += net.events_executed();
    benchmark::DoNotOptimize(net.now());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_EndToEndReplayEventsPerSec);

dtn::trace::CityTraceConfig bench_city_config() {
  // The city tier scaled to benchmark runtime (the full
  // city_scale_config() is a 100k-node offline workload); the structure
  // — districts, hubs, mixed pedestrian/bus population — is the same.
  dtn::trace::CityTraceConfig cfg;
  cfg.num_pedestrians = 1200;
  cfg.num_buses = 24;
  cfg.num_landmarks = 96;
  cfg.num_districts = 8;
  cfg.days = 1.0;
  cfg.seed = 77;
  return cfg;
}

void BM_CityReplayEventsPerSec(benchmark::State& state) {
  // City-scale twin of BM_EndToEndReplayEventsPerSec: raw engine
  // throughput on the district-structured city trace, no router logic
  // on top.
  struct NullRouter final : dtn::net::Router {
    [[nodiscard]] std::string name() const override { return "null"; }
  };
  const auto trace = dtn::trace::generate_city_trace(bench_city_config());
  std::uint64_t events = 0;
  for (auto _ : state) {
    NullRouter router;
    dtn::net::WorkloadConfig wl;
    wl.packets_per_landmark_per_day = 0.0;
    wl.time_unit = 0.25 * dtn::trace::kDay;
    dtn::net::Network net(trace, router, wl);
    net.run();
    events += net.events_executed();
    benchmark::DoNotOptimize(net.now());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_CityReplayEventsPerSec);

void BM_PredictorFleetRecordVisit(benchmark::State& state) {
  // The city tier's predictor update pattern: one order-1 predictor per
  // node of the 1,224-node, 96-landmark city trace that moves at all,
  // each fed its own visiting sequence (cycled), one visit per iteration
  // on a pseudo-random node.
  // BM_PredictorRecordVisit trains a single L1-resident predictor; here
  // the fleet's rows do not stay in cache, as in a city replay.  Every
  // predictor is warmed on its whole sequence first, so the loop times
  // counting only: it never forms a new context or successor (see
  // BM_PredictorFleetColdStart).  Not in bench_check.py's gated set.
  const auto trace = dtn::trace::generate_city_trace(bench_city_config());
  std::vector<std::vector<dtn::trace::LandmarkId>> seqs;
  std::vector<dtn::core::MarkovPredictor> fleet;
  for (dtn::trace::NodeId n = 0; n < trace.num_nodes(); ++n) {
    auto seq = dtn::core::visiting_sequence(trace.visits(n));
    if (seq.size() < 2) continue;
    fleet.emplace_back(trace.num_landmarks(), 1);
    for (const auto l : seq) fleet.back().record_visit(l);  // warm up
    seqs.push_back(std::move(seq));
  }
  std::vector<std::size_t> pos(seqs.size(), 0);
  dtn::Rng rng(5);
  std::vector<std::uint32_t> nodes(1 << 16);
  for (auto& n : nodes) {
    n = static_cast<std::uint32_t>(rng.uniform_index(seqs.size()));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    const std::uint32_t n = nodes[i++ & (nodes.size() - 1)];
    fleet[n].record_visit(seqs[n][pos[n]]);
    if (++pos[n] == seqs[n].size()) pos[n] = 0;
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_PredictorFleetRecordVisit);

void BM_PredictorFleetColdStart(benchmark::State& state) {
  // The city replay's predictor pattern from cold: each pass builds a
  // fresh order-1 predictor for every node of the city trace and feeds
  // all visits in trace-time order.  A one-day trace is mostly cold
  // start, so new contexts and new successors dominate, which
  // BM_PredictorFleetRecordVisit's warmed fleet never reaches.  Not in
  // bench_check.py's gated set.
  const auto trace = dtn::trace::generate_city_trace(bench_city_config());
  std::vector<dtn::trace::Visit> visits;
  for (dtn::trace::NodeId n = 0; n < trace.num_nodes(); ++n) {
    const auto node_visits = trace.visits(n);
    visits.insert(visits.end(), node_visits.begin(), node_visits.end());
  }
  std::stable_sort(visits.begin(), visits.end(),
                   [](const dtn::trace::Visit& a, const dtn::trace::Visit& b) {
                     return a.start < b.start;
                   });
  for (auto _ : state) {
    std::vector<dtn::core::MarkovPredictor> fleet;
    fleet.reserve(trace.num_nodes());
    for (dtn::trace::NodeId n = 0; n < trace.num_nodes(); ++n) {
      fleet.emplace_back(trace.num_landmarks(), 1);
    }
    for (const auto& v : visits) fleet[v.node].record_visit(v.landmark);
    benchmark::DoNotOptimize(fleet.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(visits.size()));
}
BENCHMARK(BM_PredictorFleetColdStart);

void BM_ReplayOrderBuild(benchmark::State& state) {
  // The once-per-trace cost the first replay over a trace pays: list
  // and radix-sort the city trace's events.  Later cursors share the
  // result; BM_TraceCursorReplay times their drain.
  const auto trace = dtn::trace::generate_city_trace(bench_city_config());
  std::uint64_t events = 0;
  for (auto _ : state) {
    const auto order = dtn::trace::build_replay_order(trace);
    events += order.entries.size();
    benchmark::DoNotOptimize(order.entries.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_ReplayOrderBuild);

dtn::net::WorkloadConfig bench_checkpoint_workload() {
  dtn::net::WorkloadConfig wl;
  wl.packets_per_landmark_per_day = 10.0;
  wl.time_unit = 0.5 * dtn::trace::kDay;
  wl.ttl = 2.0 * dtn::trace::kDay;
  wl.node_memory_kb = 30;
  return wl;
}

// A fresh directory per benchmark run, so concurrent bench_micro
// processes never write into or delete each other's snapshots.
std::filesystem::path fresh_temp_dir(const char* stem) {
  std::string path =
      (std::filesystem::temp_directory_path() / stem).string() + ".XXXXXX";
  if (::mkdtemp(path.data()) == nullptr) {
    std::perror("bench_micro: cannot create a temp directory");
    std::abort();
  }
  return path;
}

void BM_CheckpointWrite(benchmark::State& state) {
  // Atomic snapshot publish (temp + rename + retention pruning) of a
  // realistic mid-run image.  A suspended campus run produces the image
  // once; the loop measures CheckpointManager::write alone.  The
  // serialization cost itself is covered by BM_CheckpointRestore, whose
  // verification step re-serializes the whole network.
  namespace fs = std::filesystem;
  dtn::trace::CampusTraceConfig cfg;
  cfg.num_nodes = 24;
  cfg.num_landmarks = 10;
  cfg.num_communities = 4;
  cfg.days = 6.0;
  cfg.seed = 9;
  const auto trace = dtn::trace::generate_campus_trace(cfg);
  const fs::path dir = fresh_temp_dir("dtn_bench_ckpt_write");
  dtn::persist::CheckpointConfig seed_cc;
  seed_cc.dir = (dir / "seed").string();
  seed_cc.stop_after_events = 2000;
  dtn::persist::CheckpointManager seed(seed_cc);
  {
    dtn::core::DtnFlowRouter router;
    dtn::net::Network net(trace, router, bench_checkpoint_workload());
    net.run(seed);
  }
  const auto bytes = seed.read_latest();
  dtn::persist::CheckpointConfig cc;
  cc.dir = (dir / "out").string();
  dtn::persist::CheckpointManager mgr(cc);
  std::uint64_t n = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mgr.write(++n, bytes));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes.size()));
  fs::remove_all(dir);
}
BENCHMARK(BM_CheckpointWrite);

void BM_CheckpointRestore(benchmark::State& state) {
  // Full resume path (docs/checkpointing.md): read the newest snapshot,
  // deserialize every subsystem, re-serialize for the byte-equality
  // verification, run the invariant audit, then replay the short tail
  // of the trace (~100 events) to completion.
  namespace fs = std::filesystem;
  dtn::trace::CampusTraceConfig cfg;
  cfg.num_nodes = 24;
  cfg.num_landmarks = 10;
  cfg.num_communities = 4;
  cfg.days = 6.0;
  cfg.seed = 9;
  const auto trace = dtn::trace::generate_campus_trace(cfg);
  const auto wl = bench_checkpoint_workload();
  std::uint64_t total = 0;
  {
    dtn::core::DtnFlowRouter router;
    dtn::net::Network net(trace, router, wl);
    net.run();
    total = net.events_executed();
  }
  const fs::path dir = fresh_temp_dir("dtn_bench_ckpt_restore");
  dtn::persist::CheckpointConfig cc;
  cc.dir = dir.string();
  cc.stop_after_events = total - 100;
  {
    dtn::persist::CheckpointManager mgr(cc);
    dtn::core::DtnFlowRouter router;
    dtn::net::Network net(trace, router, wl);
    net.run(mgr);
  }
  cc.stop_after_events = 0;
  for (auto _ : state) {
    dtn::persist::CheckpointManager mgr(cc);
    dtn::core::DtnFlowRouter router;
    dtn::net::Network net(trace, router, wl);
    net.run(mgr);
    benchmark::DoNotOptimize(net.counters().delivered);
  }
  fs::remove_all(dir);
}
BENCHMARK(BM_CheckpointRestore);

void BM_Crc32(benchmark::State& state) {
  // The per-section checksum of every snapshot write and verified load,
  // over a 2 MB payload.
  std::vector<std::uint8_t> buf(2U << 20U);
  dtn::Rng rng(5);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng.next_u64());
  for (auto _ : state) {
    benchmark::DoNotOptimize(dtn::persist::crc32(buf));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(buf.size()));
}
BENCHMARK(BM_Crc32);

}  // namespace

BENCHMARK_MAIN();
