// Determinism guards for the replay engine.
//
// Three layers: (1) repeated runs with one seed are bit-identical,
// (2) a serial sweep (threads == 1) and a multi-threaded sweep produce
// bit-identical results, and (3) a fixed no-RNG scenario matches golden
// counters recorded under the *previous* (type-erased closure) event
// engine — any engine rework that shifts tie order, RNG draw order or
// float accumulation order trips this test.  Run outputs compare by
// metrics::run_digest; the router-state digests below share its mixer.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "core/dtn_flow_router.hpp"
#include "metrics/experiment.hpp"
#include "net/network.hpp"
#include "routing/factory.hpp"
#include "sim/fault_injector.hpp"
#include "test_helpers.hpp"
#include "trace/trace.hpp"
#include "util/fnv.hpp"

namespace dtn {
namespace {

struct ChainRun {
  net::RunCounters counters;
  std::uint64_t digest = 0;
};

ChainRun run_chain(const std::string& router_name) {
  const auto chain = testing::relay_chain_trace(10.0);
  auto router = routing::make_router(router_name);
  net::Network net(chain, *router, testing::relay_chain_workload());
  net.run();
  net.validate_invariants();
  return {net.counters(), metrics::run_digest(net, *router)};
}

// Digest of the router's prediction state after the chain replay:
// per-node predictor counters, the full conditional distribution, and
// the argmax.  Recorded under the hash-map (context/gram/successor)
// predictor store; the flat transition store must reproduce every bit.
std::uint64_t predictor_digest(const core::DtnFlowRouter& router,
                               const net::Network& net) {
  Fnv1a h;
  std::vector<double> dist;
  for (net::NodeId n = 0; n < net.num_nodes(); ++n) {
    const auto& p = router.predictor(n);
    h.mix(p.history_length());
    h.mix(p.current());
    h.mix(p.predict());
    h.mix(p.can_predict() ? 1 : 0);
    for (net::LandmarkId l = 0; l < net.num_landmarks(); ++l) {
      h.mix(p.probability_of(l));
    }
    p.next_distribution(dist);
    for (const double d : dist) {
      h.mix(d);
    }
  }
  return h.value();
}

// Digest of every landmark's route set, backups and pins included.
// Recorded under the full-table lazy recompute; the incremental
// dirty-column recompute must reproduce every bit.
std::uint64_t routing_digest(const core::DtnFlowRouter& router,
                             const net::Network& net) {
  Fnv1a h;
  for (net::LandmarkId l = 0; l < net.num_landmarks(); ++l) {
    const auto& table = router.routing_table(l);
    for (net::LandmarkId d = 0; d < net.num_landmarks(); ++d) {
      const core::Route r = table.route(d);
      h.mix(r.next);
      h.mix(r.delay);
      h.mix(r.backup_next);
      h.mix(r.backup_delay);
      h.mix(table.is_pinned(d) ? 1 : 0);
    }
    h.mix(table.coverage());
  }
  return h.value();
}

TEST(Determinism, GoldenPredictorAndRoutingStateStable) {
  const auto chain = testing::relay_chain_trace(10.0);
  core::DtnFlowRouter router;
  net::Network net(chain, router, testing::relay_chain_workload());
  net.run();
  net.validate_invariants();
  // Spot checks (readable failures before the digests trip).
  EXPECT_EQ(router.predictor(0).history_length(), 240u);
  EXPECT_EQ(router.predictor(0).current(), 1u);
  EXPECT_EQ(router.predictor(0).predict(), 0u);
  EXPECT_EQ(router.routing_table(0).route(3).next, 1u);
  // Full-state digests, recorded under the pre-rework structures.
  EXPECT_EQ(predictor_digest(router, net), 0x8f5ef46e87227297ull);
  EXPECT_EQ(routing_digest(router, net), 0x2bce8bffc466e3ccull);
}

TEST(Determinism, RepeatedRunsAreBitIdentical) {
  const auto a = run_chain("DTN-FLOW");
  const auto b = run_chain("DTN-FLOW");
  EXPECT_EQ(a.digest, b.digest);
}

// The fault injector's zero-impact contract: attaching a FaultPlan with
// nothing to inject (no scheduled faults, every rate and probability at
// zero) is bit-identical to attaching no plan at all — same run digest,
// same golden router-state digests.  The
// injector owns its own RNG streams precisely so that an inert plan
// never perturbs a workload draw.
TEST(Determinism, EmptyFaultPlanIsBitIdenticalToNoPlan) {
  const auto chain = testing::relay_chain_trace(10.0);

  core::DtnFlowRouter baseline_router;
  net::Network baseline(chain, baseline_router, testing::relay_chain_workload());
  baseline.run();
  baseline.validate_invariants();

  auto faulted_cfg = testing::relay_chain_workload();
  faulted_cfg.faults.emplace();  // default plan: zero-probability faults
  ASSERT_FALSE(faulted_cfg.faults->any());
  core::DtnFlowRouter faulted_router;
  net::Network faulted(chain, faulted_router, faulted_cfg);
  faulted.run();
  faulted.validate_invariants();

  const std::uint64_t digest = metrics::run_digest(faulted, faulted_router);
  EXPECT_EQ(metrics::run_digest(baseline, baseline_router), digest);
  // The faulted run must still hit the golden digests (the values
  // GoldenPredictorAndRoutingStateStable and
  // GoldenCountersStableAcrossEngineGenerations pin).
  EXPECT_EQ(predictor_digest(faulted_router, faulted),
            0x8f5ef46e87227297ull);
  EXPECT_EQ(routing_digest(faulted_router, faulted), 0x2bce8bffc466e3ccull);
  EXPECT_EQ(digest, 0xed21fe7dade6e5b4ull);
  // No fault ever fired, and nothing was charged to the fault counters.
  EXPECT_EQ(faulted.counters().node_crashes, 0u);
  EXPECT_EQ(faulted.counters().station_outages, 0u);
  EXPECT_EQ(faulted.counters().packets_lost_fault, 0u);
  EXPECT_EQ(faulted.counters().transfers_interrupted, 0u);
}

TEST(Determinism, GoldenCountersStableAcrossEngineGenerations) {
  // Recorded under the pre-rework engine (type-erased std::function
  // heap, eager trace scheduling).  The typed-event engine must
  // reproduce every bit: tie order, float accumulation order, digests.
  const auto flow_run = run_chain("DTN-FLOW");
  const net::RunCounters& flow = flow_run.counters;
  EXPECT_EQ(flow.generated, 40u);
  EXPECT_EQ(flow.delivered, 40u);
  EXPECT_EQ(flow.dropped_ttl, 0u);
  EXPECT_EQ(flow.refused_buffer, 0u);
  EXPECT_EQ(flow.packet_forwards, 240u);
  EXPECT_EQ(flow.replications, 0u);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(flow.control_entries),
            std::bit_cast<std::uint64_t>(0x1.674p+12));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(flow.total_delay),
            std::bit_cast<std::uint64_t>(0x1.b06cp+19));
  EXPECT_EQ(flow.delivery_delays.size(), 40u);
  EXPECT_EQ(flow.delivery_hops.size(), 40u);
  EXPECT_EQ(flow_run.digest, 0xed21fe7dade6e5b4ull);

  const auto prophet_run = run_chain("PROPHET");
  const net::RunCounters& prophet = prophet_run.counters;
  EXPECT_EQ(prophet.generated, 40u);
  EXPECT_EQ(prophet.delivered, 0u);
  EXPECT_EQ(prophet.dropped_ttl, 40u);
  EXPECT_EQ(prophet.packet_forwards, 10u);
  EXPECT_EQ(prophet_run.digest, 0x8d89bf1d9299eb35ull);
}

TEST(Determinism, SerialAndThreadedSweepsAreBitIdentical) {
  const auto chain = testing::relay_chain_trace(10.0);
  net::WorkloadConfig base = testing::relay_chain_workload();
  // Add a Poisson component so replicate seeds actually matter.
  base.packets_per_landmark_per_day = 6.0;
  base.seed = 19;

  std::vector<std::pair<std::string, metrics::RouterFactory>> factories;
  for (const auto& name : {"DTN-FLOW", "PROPHET"}) {
    factories.emplace_back(name,
                           [name] { return routing::make_router(name); });
  }

  metrics::SweepConfig sweep;
  sweep.values = {10.0, 40.0};
  sweep.apply = [](net::WorkloadConfig& cfg, double v) {
    cfg.node_memory_kb = static_cast<std::uint64_t>(v);
  };
  sweep.replicates = 3;

  sweep.threads = 1;
  const auto serial = metrics::run_sweep(chain, base, factories, sweep);
  sweep.threads = 4;
  const auto threaded = metrics::run_sweep(chain, base, factories, sweep);

  ASSERT_EQ(serial.size(), threaded.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    const auto& s = serial[i];
    const auto& t = threaded[i];
    EXPECT_EQ(s.router, t.router);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(s.sweep_value),
              std::bit_cast<std::uint64_t>(t.sweep_value));
    ASSERT_EQ(s.replicates.size(), t.replicates.size());
    for (std::size_t r = 0; r < s.replicates.size(); ++r) {
      EXPECT_EQ(s.replicates[r].digest, t.replicates[r].digest)
          << "replicate " << r;
    }
  }
}

}  // namespace
}  // namespace dtn
