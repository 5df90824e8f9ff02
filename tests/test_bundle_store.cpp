// Bounded-memory bundle store (docs/bounded-store.md).
//
// Three layers of coverage:
//  * unit — admission, eviction-policy victim selection (property
//    style), retention constraints, the received-id dedup set, the
//    spill backend's FIFO recall, and checkpoint round-trips that span
//    a spill file;
//  * audit — every seeded store corruption is detected and the revert
//    passes again, standalone and through Network::debug_corrupt_for_test;
//  * system — overloaded replays degrade gracefully (shed/evict instead
//    of dying), stay bit-identical across reruns, and resume from
//    checkpoints spanning spill files.
#include "net/bundle_store.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <filesystem>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/dtn_flow_router.hpp"
#include "metrics/metrics.hpp"
#include "net/network.hpp"
#include "persist/checkpoint.hpp"
#include "persist/serializer.hpp"
#include "routing/epidemic.hpp"
#include "sim/invariant_auditor.hpp"
#include "test_helpers.hpp"
#include "trace/campus_generator.hpp"
#include "util/rng.hpp"

namespace dtn {
namespace {

using core::DtnFlowRouter;
using dtn::testing::relay_chain_trace;
using net::Admit;
using net::BundleStore;
using net::EvictionPolicy;
using net::Network;
using net::PacketId;
using net::PacketState;
using net::Retention;
using net::WorkloadConfig;
using persist::CheckpointConfig;
using persist::CheckpointManager;
using sim::AuditReport;
using trace::kDay;

// Fresh per-test spill/checkpoint directory under the gtest temp root.
std::filesystem::path fresh_dir(const std::string& name) {
  const auto dir =
      std::filesystem::path(::testing::TempDir()) / ("dtn_store_" + name);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

BundleStore::AdmitRequest request(PacketId pid) {
  BundleStore::AdmitRequest req;
  req.pid = pid;
  req.logical = pid;
  return req;
}

// -- policies / parsing --------------------------------------------------

TEST(BundleStore, PolicyNamesRoundTrip) {
  for (const EvictionPolicy p :
       {EvictionPolicy::kReject, EvictionPolicy::kDropOldest,
        EvictionPolicy::kDropLargestExpectedDelay,
        EvictionPolicy::kTtlExpire}) {
    EvictionPolicy parsed{};
    ASSERT_TRUE(net::parse_eviction_policy(net::to_string(p), &parsed));
    EXPECT_EQ(parsed, p);
  }
  EvictionPolicy parsed{};
  EXPECT_FALSE(net::parse_eviction_policy("fifo", &parsed));
}

// -- admission / eviction -----------------------------------------------

TEST(BundleStore, RejectPolicyRefusesWhenFull) {
  BundleStore s;
  s.configure(2, EvictionPolicy::kReject, false, {});
  std::vector<PacketId> evicted;
  EXPECT_EQ(s.admit(request(0), &evicted), Admit::kStored);
  EXPECT_EQ(s.admit(request(1), &evicted), Admit::kStored);
  EXPECT_EQ(s.admit(request(2), &evicted), Admit::kRefusedCapacity);
  EXPECT_TRUE(evicted.empty());
  EXPECT_EQ(s.count(), 2u);
}

TEST(BundleStore, DropOldestEvictsSmallestAdmissionSequence) {
  BundleStore s;
  s.configure(3, EvictionPolicy::kDropOldest, false, {});
  std::vector<PacketId> evicted;
  ASSERT_EQ(s.admit(request(10), &evicted), Admit::kStored);
  ASSERT_EQ(s.admit(request(11), &evicted), Admit::kStored);
  ASSERT_EQ(s.admit(request(12), &evicted), Admit::kStored);
  EXPECT_EQ(s.admit(request(13), &evicted), Admit::kStored);
  ASSERT_EQ(evicted, std::vector<PacketId>{10});
  EXPECT_FALSE(s.contains(10));
  EXPECT_TRUE(s.contains(13));
  // The next eviction continues in admission order.
  evicted.clear();
  EXPECT_EQ(s.admit(request(14), &evicted), Admit::kStored);
  EXPECT_EQ(evicted, std::vector<PacketId>{11});
}

TEST(BundleStore, DropLargestExpectedDelayEvictsWorstTiesToOldest) {
  BundleStore s;
  s.configure(3, EvictionPolicy::kDropLargestExpectedDelay, false, {});
  std::vector<PacketId> evicted;
  auto with_delay = [](PacketId pid, double delay) {
    auto req = request(pid);
    req.expected_delay = delay;
    return req;
  };
  ASSERT_EQ(s.admit(with_delay(0, 5.0), &evicted), Admit::kStored);
  ASSERT_EQ(s.admit(with_delay(1, 9.0), &evicted), Admit::kStored);
  ASSERT_EQ(s.admit(with_delay(2, 9.0), &evicted), Admit::kStored);
  // Worst delay is 9.0, shared by 1 and 2; the older (1) goes first.
  EXPECT_EQ(s.admit(with_delay(3, 1.0), &evicted), Admit::kStored);
  EXPECT_EQ(evicted, std::vector<PacketId>{1});
}

TEST(BundleStore, TtlExpireEvictsEarliestDeadline) {
  BundleStore s;
  s.configure(3, EvictionPolicy::kTtlExpire, false, {});
  std::vector<PacketId> evicted;
  auto with_deadline = [](PacketId pid, double deadline) {
    auto req = request(pid);
    req.deadline = deadline;
    return req;
  };
  ASSERT_EQ(s.admit(with_deadline(0, 300.0), &evicted), Admit::kStored);
  ASSERT_EQ(s.admit(with_deadline(1, 100.0), &evicted), Admit::kStored);
  ASSERT_EQ(s.admit(with_deadline(2, 200.0), &evicted), Admit::kStored);
  EXPECT_EQ(s.admit(with_deadline(3, 400.0), &evicted), Admit::kStored);
  EXPECT_EQ(evicted, std::vector<PacketId>{1});
}

TEST(BundleStore, EachAdmissionIntoAFullStoreEvictsExactlyOneVictim) {
  BundleStore s;
  s.configure(4, EvictionPolicy::kDropOldest, false, {});
  std::vector<PacketId> evicted;
  for (PacketId pid = 0; pid < 4; ++pid) {
    ASSERT_EQ(s.admit(request(pid), &evicted), Admit::kStored);
  }
  for (PacketId pid = 4; pid < 7; ++pid) {
    EXPECT_EQ(s.admit(request(pid), &evicted), Admit::kStored);
    EXPECT_EQ(s.count(), 4u);
  }
  EXPECT_EQ(evicted, (std::vector<PacketId>{0, 1, 2}));
}

TEST(BundleStore, RetainedEntriesAreNeverVictims) {
  BundleStore s;
  s.configure(2, EvictionPolicy::kDropOldest, false, {});
  std::vector<PacketId> evicted;
  auto retained = request(0);
  retained.retention = Retention::kDispatchPending;
  ASSERT_EQ(s.admit(retained, &evicted), Admit::kStored);
  ASSERT_EQ(s.admit(request(1), &evicted), Admit::kStored);
  EXPECT_EQ(s.retained_count(), 1u);
  // Oldest is retained: the free entry (1) is the victim instead.
  EXPECT_EQ(s.admit(request(2), &evicted), Admit::kStored);
  EXPECT_EQ(evicted, std::vector<PacketId>{1});
  EXPECT_TRUE(s.contains(0));
}

TEST(BundleStore, FullyRetainedStoreRefusesAndStaysUntouched) {
  // When every resident is retained there is no victim: the store
  // refuses and keeps all of them.
  BundleStore s;
  s.configure(2, EvictionPolicy::kDropOldest, false, {});
  std::vector<PacketId> evicted;
  auto pinned = request(0);
  pinned.retention = Retention::kForwardPending;
  ASSERT_EQ(s.admit(pinned, &evicted), Admit::kStored);
  auto source = request(1);
  source.retention = Retention::kDispatchPending;
  ASSERT_EQ(s.admit(source, &evicted), Admit::kStored);
  EXPECT_EQ(s.admit(request(2), &evicted), Admit::kRefusedCapacity);
  EXPECT_TRUE(evicted.empty());
  EXPECT_TRUE(s.contains(0));
  EXPECT_TRUE(s.contains(1));
  EXPECT_FALSE(s.contains(2));
  EXPECT_EQ(s.count(), 2u);
  // Clearing one retention makes it the victim of the next admission.
  s.set_retention_if_held(1, Retention::kNone);
  EXPECT_EQ(s.admit(request(2), &evicted), Admit::kStored);
  EXPECT_EQ(evicted, std::vector<PacketId>{1});
}

TEST(BundleStore, RetentionClearsAndRecounts) {
  BundleStore s;
  s.configure(4, EvictionPolicy::kDropOldest, false, {});
  std::vector<PacketId> evicted;
  ASSERT_EQ(s.admit(request(0), &evicted), Admit::kStored);
  EXPECT_EQ(s.retention(0), Retention::kNone);
  s.set_retention_if_held(0, Retention::kForwardPending);
  EXPECT_EQ(s.retention(0), Retention::kForwardPending);
  EXPECT_EQ(s.retained_count(), 1u);
  s.set_retention_if_held(0, Retention::kNone);
  EXPECT_EQ(s.retained_count(), 0u);
  // Absent ids are a no-op, not an error.
  s.set_retention_if_held(99, Retention::kForwardPending);
  EXPECT_EQ(s.retained_count(), 0u);
}

// -- dedup ---------------------------------------------------------------

TEST(BundleStore, DedupRefusesReadmittedLogical) {
  BundleStore s;
  s.configure(8, EvictionPolicy::kReject, /*dedup=*/true, {});
  std::vector<PacketId> evicted;
  auto original = request(5);
  original.logical = 5;
  ASSERT_EQ(s.admit(original, &evicted), Admit::kStored);
  EXPECT_TRUE(s.seen_logical(5));
  s.remove(5);
  // A copy of the same logical comes back: refused by the dedup set.
  auto copy = request(9);
  copy.logical = 5;
  EXPECT_EQ(s.admit(copy, &evicted), Admit::kRefusedDuplicate);
  // Call sites that legitimately re-host a logical opt out per request.
  copy.check_dedup = false;
  EXPECT_EQ(s.admit(copy, &evicted), Admit::kStored);
}

TEST(BundleStore, DedupDisabledSeesNothing) {
  BundleStore s;
  s.configure(8, EvictionPolicy::kReject, /*dedup=*/false, {});
  std::vector<PacketId> evicted;
  ASSERT_EQ(s.admit(request(5), &evicted), Admit::kStored);
  EXPECT_FALSE(s.seen_logical(5));
  EXPECT_EQ(s.dedup_seen_count(), 0u);
}

// -- spill backend -------------------------------------------------------

TEST(BundleStore, SpillOverflowRecallsFifo) {
  const auto dir = fresh_dir("fifo");
  BundleStore s;
  s.configure(2, EvictionPolicy::kReject, false,
              (dir / "station.spill").string());
  ASSERT_TRUE(s.spill_enabled());
  std::vector<PacketId> evicted;
  ASSERT_EQ(s.admit(request(0), &evicted), Admit::kStored);
  ASSERT_EQ(s.admit(request(1), &evicted), Admit::kStored);
  auto overflow = request(2);
  overflow.allow_spill = true;
  EXPECT_EQ(s.admit(overflow, &evicted), Admit::kSpilled);
  auto overflow2 = request(3);
  overflow2.allow_spill = true;
  EXPECT_EQ(s.admit(overflow2, &evicted), Admit::kSpilled);
  EXPECT_EQ(s.spilled_count(), 2u);
  // Spilled bundles are held but invisible to carriers.
  EXPECT_TRUE(s.contains(2));
  EXPECT_FALSE(s.spilled(0));
  EXPECT_TRUE(s.spilled(3));
  EXPECT_EQ(s.count(), 2u);
  // Freeing memory recalls in spill order: 2 first, then 3.
  std::vector<PacketId> recalled;
  s.remove(0, &recalled);
  EXPECT_EQ(recalled, std::vector<PacketId>{2});
  EXPECT_FALSE(s.spilled(2));
  EXPECT_TRUE(s.contains(2));
  recalled.clear();
  s.remove(1, &recalled);
  EXPECT_EQ(recalled, std::vector<PacketId>{3});
  EXPECT_EQ(s.spilled_count(), 0u);
}

TEST(BundleStore, RemovingASpilledBundleSkipsTheFile) {
  const auto dir = fresh_dir("remove_spilled");
  BundleStore s;
  s.configure(1, EvictionPolicy::kReject, false,
              (dir / "station.spill").string());
  std::vector<PacketId> evicted;
  ASSERT_EQ(s.admit(request(0), &evicted), Admit::kStored);
  for (PacketId pid : {1u, 2u, 3u}) {
    auto req = request(pid);
    req.allow_spill = true;
    ASSERT_EQ(s.admit(req, &evicted), Admit::kSpilled);
  }
  // A TTL sweep removes a spilled bundle directly (middle of the FIFO).
  s.remove(2);
  EXPECT_EQ(s.spilled_count(), 2u);
  // Recall order of the survivors is unchanged.
  std::vector<PacketId> recalled;
  s.remove(0, &recalled);
  EXPECT_EQ(recalled, std::vector<PacketId>{1});
  AuditReport report;
  s.audit(report, "store");
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(BundleStore, CheckpointRoundTripSpansSpillFile) {
  const auto dir = fresh_dir("ckpt");
  BundleStore a;
  a.configure(2, EvictionPolicy::kDropOldest, /*dedup=*/true,
              (dir / "a.spill").string());
  std::vector<PacketId> evicted;
  ASSERT_EQ(a.admit(request(0), &evicted), Admit::kStored);
  auto pinned = request(1);
  pinned.retention = Retention::kDispatchPending;
  ASSERT_EQ(a.admit(pinned, &evicted), Admit::kStored);
  for (PacketId pid : {2u, 3u}) {
    auto req = request(pid);
    req.allow_spill = true;
    ASSERT_EQ(a.admit(req, &evicted), Admit::kSpilled);
  }
  persist::Writer wa;
  wa.begin_section("store");
  a.save(wa);
  wa.end_section();
  wa.finish();

  // Resume into a different spill directory: the snapshot, not the
  // original machine's file, is the source of truth.
  BundleStore b;
  b.configure(2, EvictionPolicy::kDropOldest, /*dedup=*/true,
              (dir / "b.spill").string());
  {
    persist::Reader r(wa.buffer());
    r.expect_section("store");
    b.load(r);
    r.end_section();
    r.finish();
  }
  persist::Writer wb;
  wb.begin_section("store");
  b.save(wb);
  wb.end_section();
  wb.finish();
  // save -> load -> save is byte-identical.
  EXPECT_EQ(wa.buffer(), wb.buffer());
  EXPECT_EQ(b.spilled_count(), 2u);
  EXPECT_EQ(b.retained_count(), 1u);
  EXPECT_TRUE(b.seen_logical(3));
  AuditReport report;
  b.audit(report, "resumed");
  EXPECT_TRUE(report.ok()) << report.to_string();
  // The rewritten spill file really holds the records: recall reads it.
  std::vector<PacketId> recalled;
  b.remove(0, &recalled);
  EXPECT_EQ(recalled, std::vector<PacketId>{2});
}

TEST(BundleStore, LoadRejectsSpilledRecordsWithoutSpillBackend) {
  const auto dir = fresh_dir("reject_spill");
  BundleStore a;
  a.configure(1, EvictionPolicy::kReject, false,
              (dir / "a.spill").string());
  std::vector<PacketId> evicted;
  ASSERT_EQ(a.admit(request(0), &evicted), Admit::kStored);
  auto req = request(1);
  req.allow_spill = true;
  ASSERT_EQ(a.admit(req, &evicted), Admit::kSpilled);
  persist::Writer w;
  w.begin_section("store");
  a.save(w);
  w.end_section();
  w.finish();
  BundleStore b;
  b.configure(1, EvictionPolicy::kReject, false, {});
  persist::Reader r(w.buffer());
  r.expect_section("store");
  EXPECT_THROW(b.load(r), persist::FormatError);
}

// -- differential test against a reference set ---------------------------

// What the store should hold, tracked from the outcomes it reports:
// memory entries and the spill FIFO (id -> retention) and, with dedup
// on, the logicals it has admitted.
struct ReferenceStore {
  std::map<PacketId, Retention> memory;
  std::deque<std::pair<PacketId, Retention>> spill;
  std::set<PacketId> seen;

  [[nodiscard]] bool spilled(PacketId pid) const {
    return std::any_of(spill.begin(), spill.end(),
                       [pid](const auto& e) { return e.first == pid; });
  }
  [[nodiscard]] bool holds(PacketId pid) const {
    return memory.count(pid) != 0 || spilled(pid);
  }
};

// Compares every observable of `s` with `ref`: membership of `probes`,
// the id list, per-id retention, the retention total, the spill FIFO,
// and the audit (which cross-checks the index).
void expect_matches(const BundleStore& s, const ReferenceStore& ref,
                    const std::vector<PacketId>& probes) {
  ASSERT_EQ(s.count(), ref.memory.size());
  const std::set<PacketId> listed(s.packets().begin(), s.packets().end());
  ASSERT_EQ(listed.size(), ref.memory.size());
  std::uint64_t retained = 0;
  for (const auto& [pid, retention] : ref.memory) {
    ASSERT_TRUE(listed.count(pid) != 0) << "packet " << pid;
    ASSERT_EQ(s.retention(pid), retention) << "packet " << pid;
    retained += retention != Retention::kNone ? 1 : 0;
  }
  std::vector<PacketId> spilled;
  for (const auto& entry : ref.spill) spilled.push_back(entry.first);
  ASSERT_EQ(s.spilled_ids(), spilled);
  // Only in-memory bundles count as retained.
  ASSERT_EQ(s.retained_count(), retained);
  for (const PacketId pid : probes) {
    ASSERT_EQ(s.contains(pid), ref.holds(pid)) << "packet " << pid;
    ASSERT_EQ(s.spilled(pid), ref.spilled(pid)) << "packet " << pid;
  }
  AuditReport report;
  s.audit(report, "store");
  ASSERT_TRUE(report.ok()) << report.to_string();
}

// save -> load into a fresh store with the same configuration (and
// another spill file); the reloaded store must save the same bytes.
void reload(BundleStore& s, std::uint64_t capacity, EvictionPolicy policy,
            bool dedup, const std::string& spill_path) {
  const auto image = [](const BundleStore& store) {
    persist::Writer w;
    w.begin_section("store");
    store.save(w);
    w.end_section();
    w.finish();
    return w.buffer();
  };
  const std::vector<std::uint8_t> bytes = image(s);
  BundleStore fresh;
  fresh.configure(capacity, policy, dedup, spill_path);
  persist::Reader r(bytes);
  r.expect_section("store");
  fresh.load(r);
  r.end_section();
  r.finish();
  ASSERT_EQ(image(fresh), bytes);
  s = std::move(fresh);
}

TEST(BundleStoreDifferential, MatchesAReferenceSetUnderRandomTraffic) {
  const auto dir = fresh_dir("differential");
  constexpr PacketId kUniverse = 700;
  constexpr int kOps = 2000;
  std::vector<PacketId> everything(kUniverse);
  for (PacketId pid = 0; pid < kUniverse; ++pid) everything[pid] = pid;
  // Unbounded stores grow the index to a few hundred ids; bounded ones
  // evict, spill and recall.
  for (const std::uint64_t capacity : {0u, 24u, 300u}) {
    for (const EvictionPolicy policy :
         {EvictionPolicy::kReject, EvictionPolicy::kDropOldest,
          EvictionPolicy::kDropLargestExpectedDelay,
          EvictionPolicy::kTtlExpire}) {
      for (const bool spill : {false, true}) {
        for (const bool dedup : {false, true}) {
          SCOPED_TRACE("capacity " + std::to_string(capacity) + " policy " +
                       to_string(policy) + " spill " + std::to_string(spill) +
                       " dedup " + std::to_string(dedup));
          Rng rng(capacity * 131 + static_cast<std::uint64_t>(policy) * 17 +
                  (spill ? 2 : 0) + (dedup ? 1 : 0));
          int generation = 0;
          const auto spill_path = [&] {
            return spill ? (dir / ("s" + std::to_string(generation % 2) +
                                   ".spill"))
                               .string()
                         : std::string();
          };
          BundleStore s;
          s.configure(capacity, policy, dedup, spill_path());
          ReferenceStore ref;
          std::size_t evictions = 0;
          std::size_t recalls = 0;
          std::size_t peak = 0;
          PacketId touched = 0;
          for (int op = 0; op < kOps; ++op) {
            peak = std::max(peak, ref.memory.size());
            // Everything every 25 steps; every 250, all ids and a
            // save -> load -> continue.
            if (op % 25 == 0) expect_matches(s, ref, {touched});
            if (op % 250 == 0 && op > 0) {
              expect_matches(s, ref, everything);
              ++generation;
              reload(s, capacity, policy, dedup, spill_path());
              expect_matches(s, ref, everything);
            }
            const std::uint64_t roll = rng.uniform_index(100);
            // Mostly admissions for the first half of the run (until
            // the store is full; unbounded ones stop at 350 ids), then
            // mostly churn.
            const std::uint64_t admit_share = op < kOps / 2 ? 85 : 55;
            if (roll < admit_share &&
                (capacity != 0 || ref.memory.size() < 350)) {
              const auto pid =
                  static_cast<PacketId>(rng.uniform_index(kUniverse));
              if (ref.holds(pid)) continue;
              BundleStore::AdmitRequest req;
              req.pid = pid;
              req.logical = pid;
              req.retention = rng.bernoulli(0.15) ? Retention::kDispatchPending
                                                  : Retention::kNone;
              req.expected_delay = static_cast<double>(rng.uniform_index(50));
              req.deadline = static_cast<double>(rng.uniform_index(50));
              req.check_dedup = rng.bernoulli(0.5);
              req.allow_spill = rng.bernoulli(0.5);
              const bool seen = ref.seen.count(pid) != 0;
              std::vector<PacketId> evicted;
              const Admit verdict = s.admit(req, &evicted);
              evictions += evicted.size();
              for (const PacketId v : evicted) {
                const auto it = ref.memory.find(v);
                ASSERT_NE(it, ref.memory.end()) << "evicted absent " << v;
                ASSERT_EQ(it->second, Retention::kNone);
                ref.memory.erase(it);
              }
              switch (verdict) {
                case Admit::kStored:
                  ASSERT_FALSE(dedup && req.check_dedup && seen);
                  ref.memory[pid] = req.retention;
                  break;
                case Admit::kSpilled:
                  ASSERT_TRUE(spill && capacity != 0 && req.allow_spill);
                  ref.spill.emplace_back(pid, req.retention);
                  break;
                case Admit::kRefusedDuplicate:
                  ASSERT_TRUE(dedup && req.check_dedup && seen);
                  break;
                case Admit::kRefusedCapacity:
                  ASSERT_TRUE(evicted.empty());
                  ASSERT_FALSE(s.has_space());
                  break;
              }
              if (dedup && (verdict == Admit::kStored ||
                            verdict == Admit::kSpilled)) {
                ref.seen.insert(pid);
              }
              touched = pid;
            } else if (roll < 90) {
              // A held id, half the time a spilled one (TTL sweeps
              // reach them through the packet table).
              if (ref.memory.empty() && ref.spill.empty()) continue;
              const bool from_spill =
                  ref.memory.empty() ||
                  (!ref.spill.empty() && rng.bernoulli(0.5));
              PacketId pid = net::kNoPacket;
              if (!from_spill) {
                auto it = ref.memory.begin();
                std::advance(it, static_cast<std::ptrdiff_t>(
                                     rng.uniform_index(ref.memory.size())));
                pid = it->first;
                ref.memory.erase(it);
              } else {
                const auto it = ref.spill.begin() +
                                static_cast<std::ptrdiff_t>(
                                    rng.uniform_index(ref.spill.size()));
                pid = it->first;
                ref.spill.erase(it);
              }
              std::vector<PacketId> recalled;
              s.remove(pid, &recalled);
              recalls += recalled.size();
              for (const PacketId r : recalled) {
                ASSERT_FALSE(ref.spill.empty());
                ASSERT_EQ(ref.spill.front().first, r) << "recall is FIFO";
                ref.memory[r] = ref.spill.front().second;
                ref.spill.pop_front();
              }
              touched = pid;
            } else if (!ref.memory.empty()) {
              auto it = ref.memory.begin();
              std::advance(it, static_cast<std::ptrdiff_t>(
                                   rng.uniform_index(ref.memory.size())));
              const auto r = static_cast<Retention>(rng.uniform_index(3));
              s.set_retention_if_held(it->first, r);
              it->second = r;
              touched = it->first;
            }
            ASSERT_EQ(s.contains(touched), ref.holds(touched));
            ASSERT_EQ(s.count(), ref.memory.size());
          }
          expect_matches(s, ref, everything);
          // Every configuration exercised what it exists for.
          if (capacity == 0) {
            EXPECT_GE(peak, 300u);
          }
          if (capacity != 0 && spill) {
            EXPECT_GT(recalls, 0u);
          }
          // Spilling stores evict too: on admissions that may not spill.
          if (capacity != 0 && policy != EvictionPolicy::kReject) {
            EXPECT_GT(evictions, 0u);
          }
        }
      }
    }
  }
}

TEST(BundleStoreDeath, DoubleAdmissionAborts) {
  // In memory: the admission check and the index insert both refuse.
  BundleStore s;
  s.configure(10, EvictionPolicy::kReject, false, {});
  std::vector<PacketId> evicted;
  ASSERT_EQ(s.admit(request(1), &evicted), Admit::kStored);
  EXPECT_DEATH((void)s.admit(request(1), &evicted), "DTN_ASSERT");
  EXPECT_DEATH((void)s.add(1), "DTN_ASSERT");

  // Spilled: the bundle is in no id list, yet it is still held.
  const auto dir = fresh_dir("double_admission");
  BundleStore t;
  t.configure(1, EvictionPolicy::kReject, false,
              (dir / "t.spill").string());
  ASSERT_EQ(t.admit(request(0), &evicted), Admit::kStored);
  auto over = request(1);
  over.allow_spill = true;
  ASSERT_EQ(t.admit(over, &evicted), Admit::kSpilled);
  EXPECT_DEATH((void)t.admit(over, &evicted), "DTN_ASSERT");
}

// -- standalone audit negatives -----------------------------------------

// Build a store exercising every feature, seed each corruption, prove
// the audit reports it, revert, prove it passes again.
TEST(BundleStoreAudit, EverySeededCorruptionIsDetectedAndRevertible) {
  const auto dir = fresh_dir("audit");
  BundleStore s;
  s.configure(2, EvictionPolicy::kDropOldest, /*dedup=*/true,
              (dir / "s.spill").string());
  std::vector<PacketId> evicted;
  auto pinned = request(0);
  pinned.retention = Retention::kDispatchPending;
  ASSERT_EQ(s.admit(pinned, &evicted), Admit::kStored);
  ASSERT_EQ(s.admit(request(1), &evicted), Admit::kStored);
  auto over = request(2);
  over.allow_spill = true;
  ASSERT_EQ(s.admit(over, &evicted), Admit::kSpilled);

  const auto audit_ok = [&s]() {
    AuditReport report;
    s.audit(report, "store");
    return report.ok();
  };
  ASSERT_TRUE(audit_ok());

  s.debug_corrupt_retained_for_test(+1);
  EXPECT_FALSE(audit_ok());
  s.debug_corrupt_retained_for_test(-1);
  EXPECT_TRUE(audit_ok());

  s.debug_corrupt_dedup_order_for_test(+1);
  EXPECT_FALSE(audit_ok());
  s.debug_corrupt_dedup_order_for_test(-1);
  EXPECT_TRUE(audit_ok());

  s.debug_corrupt_pool_size_for_test(+1);
  EXPECT_FALSE(audit_ok());
  s.debug_corrupt_pool_size_for_test(-1);
  EXPECT_TRUE(audit_ok());

  s.debug_corrupt_index_for_test(+1);
  AuditReport index_report;
  s.audit(index_report, "store");
  EXPECT_FALSE(index_report.ok());
  EXPECT_NE(index_report.to_string().find("index maps packet"),
            std::string::npos)
      << index_report.to_string();
  s.debug_corrupt_index_for_test(-1);
  EXPECT_TRUE(audit_ok());
}

// -- network-level audit negatives --------------------------------------

bool any_failure_mentions(const AuditReport& report, const std::string& what) {
  for (const auto& f : report.failures()) {
    if (f.detail.find(what) != std::string::npos ||
        f.check.find(what) != std::string::npos) {
      return true;
    }
  }
  return false;
}

WorkloadConfig chain_workload() {
  WorkloadConfig cfg;
  cfg.packets_per_landmark_per_day = 20.0;
  cfg.warmup_fraction = 0.25;
  cfg.time_unit = 0.5 * kDay;
  cfg.node_memory_kb = 50;
  cfg.ttl = 2.0 * kDay;
  return cfg;
}

TEST(NetworkStoreAudit, DetectsRetainedCacheCorruption) {
  const auto trace = relay_chain_trace(4.0);
  DtnFlowRouter router;
  Network net(trace, router, chain_workload());
  net.run();
  ASSERT_TRUE(
      net.debug_corrupt_for_test(Network::Corruption::kStoreRetention));
  AuditReport corrupted;
  net.audit(corrupted);
  EXPECT_FALSE(corrupted.ok());
  EXPECT_TRUE(any_failure_mentions(corrupted, "retained"))
      << corrupted.to_string();
  ASSERT_TRUE(
      net.debug_corrupt_for_test(Network::Corruption::kStoreRetention, -1));
  AuditReport reverted;
  net.audit(reverted);
  EXPECT_TRUE(reverted.ok()) << reverted.to_string();
}

// Dedup-set and index corruption are only observable while packets
// are buffered, so they are seeded mid-run by a router that first picks
// up traffic (populating node stores and their dedup sets).
class StoreCorruptingRouter : public net::Router {
 public:
  explicit StoreCorruptingRouter(Network::Corruption kind) : kind_(kind) {}
  [[nodiscard]] std::string name() const override { return "StoreCorruptor"; }

  void on_arrival(Network& net, net::NodeId node, net::LandmarkId l) override {
    const auto origin = net.origin_packets(l);
    const std::vector<net::PacketId> waiting(origin.begin(), origin.end());
    for (const net::PacketId pid : waiting) {
      if (!net.node_buffer(node).has_space()) break;
      (void)net.pickup_from_origin(node, pid);
    }
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

void run_mid_run_corruption(Network::Corruption kind,
                            const std::string& mention) {
  const auto trace = relay_chain_trace(4.0);
  StoreCorruptingRouter router(kind);
  auto cfg = chain_workload();
  cfg.store.dedup = true;
  Network net(trace, router, cfg);
  net.run();
  ASSERT_TRUE(router.fired_);
  EXPECT_FALSE(router.corrupted_report_.ok());
  EXPECT_TRUE(any_failure_mentions(router.corrupted_report_, mention))
      << router.corrupted_report_.to_string();
  EXPECT_TRUE(router.reverted_report_.ok())
      << router.reverted_report_.to_string();
}

TEST(NetworkStoreAudit, DetectsDedupOrderCorruptionMidRun) {
  run_mid_run_corruption(Network::Corruption::kStoreDedupOrder, "dedup");
}

TEST(NetworkStoreAudit, DetectsPoolSizeCorruptionMidRun) {
  run_mid_run_corruption(Network::Corruption::kStorePoolSize, "slab");
}

TEST(NetworkStoreAudit, DetectsIndexCorruptionMidRun) {
  run_mid_run_corruption(Network::Corruption::kStoreIndex, "index");
}

// -- duplicate-delivery suppression (multicopy) --------------------------

// The relay chain never co-locates nodes, so multicopy tests use a star:
// every node meets at hub L1 with overlapping windows but covers a
// different outer landmark (same shape as test_multicopy.cpp).
trace::Trace star_trace(double days) {
  trace::Trace t(3, 4);
  const double period = 2.0 * trace::kHour;
  const auto periods = static_cast<std::size_t>(days * kDay / period);
  for (std::size_t p = 0; p < periods; ++p) {
    const double base = static_cast<double>(p) * period;
    using trace::kMinute;
    t.add_visit({0, 0, base, base + 20.0 * kMinute});
    t.add_visit({0, 1, base + 30.0 * kMinute, base + 60.0 * kMinute});
    t.add_visit({1, 1, base + 40.0 * kMinute, base + 70.0 * kMinute});
    t.add_visit({1, 2, base + 80.0 * kMinute, base + 95.0 * kMinute});
    t.add_visit({2, 1, base + 50.0 * kMinute, base + 75.0 * kMinute});
    t.add_visit({2, 3, base + 85.0 * kMinute, base + 100.0 * kMinute});
  }
  t.finalize();
  return t;
}

// Replicates greedily with NO delivered-logical pre-check, so the
// network-level suppression path must retire stale copies itself.
class BlindReplicator : public net::Router {
 public:
  [[nodiscard]] std::string name() const override { return "Blind"; }
  void on_arrival(Network& net, net::NodeId node, net::LandmarkId l) override {
    const auto origin = net.origin_packets(l);
    const std::vector<net::PacketId> waiting(origin.begin(), origin.end());
    for (const net::PacketId pid : waiting) {
      (void)net.pickup_from_origin(node, pid);
    }
  }
  void on_contact(Network& net, net::NodeId arriving, net::NodeId present,
                  net::LandmarkId l) override {
    (void)l;
    for (net::NodeId from : {arriving, present}) {
      const net::NodeId to = from == arriving ? present : arriving;
      const auto carried = net.node_packets(from);
      const std::vector<net::PacketId> pids(carried.begin(), carried.end());
      for (const net::PacketId pid : pids) {
        if (net.node_holds_logical(to, net.packet(pid).logical)) continue;
        (void)net.replicate_node_to_node(from, to, pid);
      }
    }
  }
};

TEST(DuplicateSuppression, RetiresCopiesOfDeliveredLogicals) {
  const auto trace = star_trace(6.0);
  BlindReplicator router;
  auto cfg = chain_workload();
  Network net(trace, router, cfg);
  net.run();
  net.validate_invariants();
  ASSERT_GT(net.counters().delivered, 0u);
  ASSERT_GT(net.counters().replications, 0u);
  // Copies of already-delivered logicals were caught at a transfer
  // admission point and retired instead of circulating to TTL death.
  EXPECT_GT(net.counters().duplicates_suppressed, 0u);
}

TEST(DuplicateSuppression, DedupReducesReplicationPressure) {
  const auto trace = star_trace(6.0);
  auto run = [&trace](bool dedup) {
    routing::EpidemicRouter router;
    auto cfg = chain_workload();
    cfg.store.dedup = dedup;
    Network net(trace, router, cfg);
    net.run();
    net.validate_invariants();
    return net.counters();
  };
  const auto off = run(false);
  const auto on = run(true);
  ASSERT_GT(off.delivered, 0u);
  // The dedup set stops re-replication toward nodes that already
  // carried a logical; it can only reduce copy traffic.
  EXPECT_LE(on.replications, off.replications);
  // Determinism with dedup on.
  EXPECT_EQ(run(true), on);
}

// -- overload system tests ----------------------------------------------

WorkloadConfig overload_workload() {
  WorkloadConfig cfg;
  cfg.packets_per_landmark_per_day = 40.0;  // well past station capacity
  cfg.warmup_fraction = 0.25;
  cfg.time_unit = 1.0 * kDay;
  cfg.node_memory_kb = 30;
  cfg.ttl = 2.0 * kDay;
  cfg.seed = 21;
  return cfg;
}

trace::Trace overload_trace() {
  trace::CampusTraceConfig tc;
  tc.num_nodes = 40;
  tc.num_landmarks = 12;
  tc.num_communities = 4;
  tc.days = 6.0;
  tc.seed = 13;
  return trace::generate_campus_trace(tc);
}

net::RunCounters run_overload(const WorkloadConfig& cfg) {
  const auto trace = overload_trace();
  DtnFlowRouter router;
  Network net(trace, router, cfg);
  net.run();
  net.validate_invariants();
  return net.counters();
}

TEST(Overload, BoundedStationsDegradeGracefullyAndDeterministically) {
  const auto unbounded = run_overload(overload_workload());
  ASSERT_GT(unbounded.delivered, 0u);
  ASSERT_EQ(unbounded.evicted_policy + unbounded.admission_shed, 0u);

  auto cfg = overload_workload();
  cfg.store.station_memory_kb = 12;
  cfg.store.policy = EvictionPolicy::kDropOldest;
  const auto bounded = run_overload(cfg);
  // Overload sheds/evicts instead of dying; the replay still completes
  // and still delivers.
  EXPECT_GT(bounded.evicted_policy + bounded.admission_shed, 0u);
  EXPECT_GT(bounded.delivered, 0u);
  EXPECT_LE(bounded.delivered, unbounded.delivered);
  EXPECT_EQ(bounded.generated, unbounded.generated);  // offered load equal
  // Bit-identical rerun.
  EXPECT_EQ(run_overload(cfg), bounded);
}

TEST(Overload, EvictionPoliciesDivergeButEachIsDeterministic) {
  auto cfg = overload_workload();
  cfg.store.station_memory_kb = 12;
  cfg.store.policy = EvictionPolicy::kTtlExpire;
  const auto ttl = run_overload(cfg);
  EXPECT_GT(ttl.evicted_policy + ttl.admission_shed, 0u);
  EXPECT_EQ(run_overload(cfg), ttl);
}

TEST(Overload, SpillAbsorbsOverflowInsteadOfShedding) {
  auto cfg = overload_workload();
  cfg.store.station_memory_kb = 12;
  cfg.store.policy = EvictionPolicy::kReject;
  cfg.store.spill_dir = fresh_dir("absorb").string();
  const auto spilled = run_overload(cfg);
  EXPECT_GT(spilled.spilled_bundles, 0u);
  EXPECT_GT(spilled.recalled_bundles, 0u);
  // Spill-enabled station admission never sheds generated traffic.
  EXPECT_EQ(spilled.admission_shed, 0u);
  EXPECT_GT(spilled.delivered, 0u);
  // Bit-identical rerun over the same (truncated-on-configure) files.
  EXPECT_EQ(run_overload(cfg), spilled);
}

TEST(Overload, GenerationShedsOnlyWhenNothingCanMakeRoom) {
  // Stations of 2 kB whose only occupants are dispatch-pending source
  // data: relayed traffic cannot displace it, and new generations at a
  // full station are shed with state kEvicted.
  const auto trace = relay_chain_trace(6.0);
  auto cfg = chain_workload();
  cfg.store.station_memory_kb = 2;
  cfg.store.policy = EvictionPolicy::kDropOldest;
  DtnFlowRouter router;
  Network net(trace, router, cfg);
  net.run();
  net.validate_invariants();
  EXPECT_GT(net.counters().admission_shed, 0u);
  EXPECT_GT(net.counters().delivered, 0u);
  std::uint64_t evicted_state = 0;
  for (const net::Packet& p : net.all_packets()) {
    if (p.state == PacketState::kEvicted) ++evicted_state;
  }
  EXPECT_EQ(evicted_state,
            net.counters().admission_shed + net.counters().evicted_policy);
}

// -- checkpoint resume across a spill file ------------------------------

TEST(Overload, CheckpointResumeSpansSpillFile) {
  const auto trace = overload_trace();
  auto cfg = overload_workload();
  cfg.store.station_memory_kb = 12;
  cfg.store.policy = EvictionPolicy::kReject;
  cfg.store.spill_dir = fresh_dir("ckpt_full").string();

  std::uint64_t full_digest = 0;
  std::uint64_t events = 0;
  {
    DtnFlowRouter router;
    Network net(trace, router, cfg);
    net.run();
    net.validate_invariants();
    ASSERT_GT(net.counters().spilled_bundles, 0u);
    full_digest = metrics::run_digest(net, router);
    events = net.events_executed();
  }

  // Suspend mid-run (spill files populated), then resume in a fresh
  // process-equivalent pointed at a DIFFERENT spill directory: the
  // snapshot, not the original files, must carry the spilled bundles.
  CheckpointConfig cc;
  cc.dir = fresh_dir("ckpt_snaps").string();
  cc.stop_after_events = events / 2;
  auto suspended_cfg = cfg;
  suspended_cfg.store.spill_dir = fresh_dir("ckpt_before").string();
  {
    CheckpointManager mgr(cc);
    DtnFlowRouter router;
    Network net(trace, router, suspended_cfg);
    ASSERT_FALSE(net.run(mgr));  // suspended, snapshot written
    ASSERT_TRUE(mgr.has_checkpoint());
  }
  CheckpointConfig resume = cc;
  resume.stop_after_events = 0;
  auto resumed_cfg = cfg;
  resumed_cfg.store.spill_dir = fresh_dir("ckpt_after").string();
  CheckpointManager mgr(resume);
  DtnFlowRouter router;
  Network net(trace, router, resumed_cfg);
  ASSERT_TRUE(net.run(mgr));
  net.validate_invariants();
  EXPECT_EQ(metrics::run_digest(net, router), full_digest);
}

}  // namespace
}  // namespace dtn
