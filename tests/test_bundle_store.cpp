// Bounded-memory bundle store (docs/bounded-store.md).
//
// Three layers of coverage:
//  * unit — admission, eviction-policy victim selection (property
//    style), retention constraints, the received-id dedup set, and a
//    differential run against a reference set with checkpoint reloads;
//  * audit — every seeded store corruption is detected and the revert
//    passes again, standalone and through Network::debug_corrupt_for_test;
//  * system — overloaded replays degrade gracefully (shed/evict instead
//    of dying), stay bit-identical across reruns, and resume from a
//    mid-run checkpoint bit-identically.
#include "net/bundle_store.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <filesystem>
#include <iterator>
#include <limits>
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
using Column = BundleStore::Column;
using net::EvictionPolicy;
using net::kNoPacket;
using net::Network;
using net::PacketId;
using net::PacketState;
using net::Retention;
using net::WorkloadConfig;
using persist::CheckpointConfig;
using persist::CheckpointManager;
using sim::AuditReport;
using trace::kDay;

// Fresh per-test checkpoint directory under the gtest temp root.
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

// The checkpoint image of one store, framed as its own section.
std::vector<std::uint8_t> store_image(const BundleStore& store) {
  persist::Writer w;
  w.begin_section("store");
  store.save(w);
  w.end_section();
  w.finish();
  return w.buffer();
}

void load_image(BundleStore& into, const std::vector<std::uint8_t>& bytes) {
  persist::Reader r(bytes);
  r.expect_section("store");
  into.load(r);
  r.end_section();
  r.finish();
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

// -- capacity, membership and the position column ------------------------

// Admission with default metadata into a reject store: true when stored.
bool admitted(BundleStore& s, PacketId pid) {
  return s.admit(request(pid), nullptr) == Admit::kStored;
}

TEST(BundleStore, UnboundedAcceptsEverything) {
  Column column;
  BundleStore s(0, EvictionPolicy::kReject, false, column);
  EXPECT_TRUE(s.unbounded());
  for (PacketId i = 0; i < 1000; ++i) {
    EXPECT_TRUE(admitted(s, i));
  }
  EXPECT_EQ(s.count(), 1000u);
}

TEST(BundleStore, HasSpaceQuery) {
  Column column;
  BundleStore s(2, EvictionPolicy::kReject, false, column);
  EXPECT_TRUE(s.has_space());
  ASSERT_TRUE(admitted(s, 0));
  EXPECT_TRUE(s.has_space());
  ASSERT_TRUE(admitted(s, 1));
  EXPECT_FALSE(s.has_space());
}

constexpr std::array<EvictionPolicy, 4> kAllPolicies = {
    EvictionPolicy::kReject, EvictionPolicy::kDropOldest,
    EvictionPolicy::kDropLargestExpectedDelay, EvictionPolicy::kTtlExpire};

TEST(BundleStore, CapacityEnforced) {
  // Whatever the policy, a full store never holds more than its
  // capacity: reject refuses the overflow, the others evict one each.
  for (const EvictionPolicy policy : kAllPolicies) {
    Column column;
    BundleStore s(2, policy, false, column);
    std::vector<PacketId> evicted;
    for (PacketId pid = 0; pid < 6; ++pid) {
      const Admit got = s.admit(request(pid), &evicted);
      EXPECT_EQ(got, pid < 2 || policy != EvictionPolicy::kReject
                         ? Admit::kStored
                         : Admit::kRefusedCapacity)
          << net::to_string(policy) << " pid " << pid;
      EXPECT_LE(s.count(), 2u) << net::to_string(policy);
    }
    EXPECT_EQ(s.count(), 2u) << net::to_string(policy);
    EXPECT_EQ(evicted.size(), policy == EvictionPolicy::kReject ? 0u : 4u)
        << net::to_string(policy);
  }
}

TEST(BundleStore, RemoveFreesSpace) {
  // A removal makes room under every policy: the next admission stores
  // without choosing a victim.
  for (const EvictionPolicy policy : kAllPolicies) {
    Column column;
    BundleStore s(1, policy, false, column);
    std::vector<PacketId> evicted;
    ASSERT_EQ(s.admit(request(7), &evicted), Admit::kStored);
    EXPECT_FALSE(s.has_space());
    s.remove(7);
    EXPECT_EQ(s.count(), 0u);
    EXPECT_TRUE(s.has_space());
    EXPECT_EQ(s.admit(request(8), &evicted), Admit::kStored);
    EXPECT_TRUE(evicted.empty()) << net::to_string(policy);
    EXPECT_TRUE(s.contains(8));
    EXPECT_FALSE(s.contains(7));
  }
}

TEST(BundleStore, ContainsTracksMembership) {
  Column column;
  BundleStore s(10, EvictionPolicy::kReject, false, column);
  EXPECT_FALSE(s.contains(1));
  ASSERT_TRUE(admitted(s, 1));
  EXPECT_TRUE(s.contains(1));
  s.remove(1);
  EXPECT_FALSE(s.contains(1));
}

TEST(BundleStore, PacketsSpanReflectsContents) {
  // packets() lists ids in admission order; remove_at swap-erases the
  // id and its metadata together, and the column follows the moved id.
  Column column;
  BundleStore s(10, EvictionPolicy::kReject, false, column);
  std::vector<PacketId> evicted;
  ASSERT_EQ(s.admit(request(3), &evicted), Admit::kStored);
  ASSERT_EQ(s.admit(request(5), &evicted), Admit::kStored);
  auto retained = request(8);
  retained.retention = Retention::kForwardPending;
  ASSERT_EQ(s.admit(retained, &evicted), Admit::kStored);
  EXPECT_EQ(std::vector<PacketId>(s.packets().begin(), s.packets().end()),
            (std::vector<PacketId>{3, 5, 8}));
  s.remove_at(0);
  EXPECT_EQ(std::vector<PacketId>(s.packets().begin(), s.packets().end()),
            (std::vector<PacketId>{8, 5}));
  EXPECT_FALSE(s.contains(3));
  EXPECT_EQ(s.index_of(8), 0u);
  EXPECT_EQ(s.retention(8), Retention::kForwardPending);
  EXPECT_EQ(s.retention(5), Retention::kNone);
  AuditReport report;
  s.audit(report, "store");
  EXPECT_TRUE(report.ok()) << report.to_string();
}

// Loads an image listing `ids` (default metadata, empty dedup set) into
// a reject store of `capacity_kb` over `column`: such states can only
// enter through a checkpoint, which is exactly where adversarial values
// come from.  The column is sized as a network sizes it to its packet
// table: to cover every id in `ids` but kNoPacket.
BundleStore store_from_image(Column& column, std::uint64_t capacity_kb,
                             const std::vector<PacketId>& ids) {
  std::size_t table = 0;
  for (const PacketId pid : ids) {
    if (pid != kNoPacket) table = std::max<std::size_t>(table, pid + 1);
  }
  column.assign(table, BundleStore::kAbsent);
  persist::Writer w;
  w.begin_section("store");
  w.u64(ids.size());
  for (const PacketId pid : ids) w.u32(pid);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    w.u64(i);                                        // admit seq
    w.f64(0.0);                                      // expected delay
    w.f64(std::numeric_limits<double>::infinity());  // deadline
    w.u32(ids[i]);                                   // logical id
    w.u8(static_cast<std::uint8_t>(Retention::kNone));
  }
  w.u64(ids.size());  // admission counter
  w.u64(0);           // dedup set
  w.end_section();
  w.finish();
  BundleStore s(capacity_kb, EvictionPolicy::kReject, false, column);
  load_image(s, w.buffer());
  return s;
}

TEST(BundleStore, HasSpaceDoesNotWrapNearUint64Max) {
  // A capacity at or near UINT64_MAX (or past 32 bits) is a bound, not
  // "unbounded": no comparison may narrow or wrap it.
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  for (const std::uint64_t cap : {kMax, kMax - 1, std::uint64_t{1} << 32}) {
    Column column;
    BundleStore s = store_from_image(column, cap, {1, 2});
    EXPECT_FALSE(s.unbounded()) << cap;
    EXPECT_EQ(s.capacity_kb(), cap);
    EXPECT_TRUE(s.has_space()) << cap;
    EXPECT_TRUE(admitted(s, 3)) << cap;
  }
}

TEST(BundleStore, HasSpaceRejectsOverfullAccounting) {
  // An image that fills the capacity loads full: nothing more fits
  // until a packet leaves.  (An overfull image is refused at load.)
  Column column;
  BundleStore s = store_from_image(column, 2, {4, 5});
  EXPECT_FALSE(s.has_space());
  EXPECT_FALSE(admitted(s, 6));
  EXPECT_EQ(s.count(), 2u);
  s.remove(4);
  EXPECT_TRUE(s.has_space());
  EXPECT_TRUE(admitted(s, 6));
}

TEST(BundleStore, LoadKeepsTheConfiguredCapacity) {
  // The image holds no capacity: it is configuration, pinned by the
  // config fingerprint, so a loaded store keeps the one it was built
  // with.
  Column saved_column;
  BundleStore saved(100, EvictionPolicy::kReject, false, saved_column);
  ASSERT_TRUE(admitted(saved, 3));
  Column column(4, BundleStore::kAbsent);
  BundleStore s(2, EvictionPolicy::kReject, false, column);
  load_image(s, store_image(saved));
  EXPECT_EQ(s.capacity_kb(), 2u);
  EXPECT_TRUE(s.contains(3));
  EXPECT_TRUE(s.has_space());
}

TEST(BundleStore, LoadRefusesMorePacketsThanTheCapacity) {
  Column column;
  EXPECT_NO_THROW((void)store_from_image(column, 2, {4, 5}));
  EXPECT_THROW((void)store_from_image(column, 2, {4, 5, 6}),
               persist::FormatError);
  EXPECT_NO_THROW((void)store_from_image(column, 0, {4, 5, 6}));
}

TEST(BundleStore, IndexOfMatchesStdFindAfterEverySwapErase) {
  // Every position of every length up to 70 is removed once, from a
  // store built afresh over its own column.
  constexpr PacketId kAbsent = 999;
  for (std::size_t len = 0; len <= 70; ++len) {
    std::vector<PacketId> ids;
    for (std::size_t i = 0; i < len; ++i) {
      ids.push_back(static_cast<PacketId>(7 * i + 3));
    }
    const auto filled = [&ids](Column& column) {
      BundleStore s(0, EvictionPolicy::kReject, false, column);
      for (const PacketId pid : ids) EXPECT_TRUE(admitted(s, pid));
      return s;
    };
    Column column;
    const BundleStore s = filled(column);
    EXPECT_EQ(s.index_of(kAbsent), len);
    EXPECT_FALSE(s.contains(kAbsent));
    EXPECT_FALSE(s.contains(kNoPacket));
    for (std::size_t pos = 0; pos < len; ++pos) {
      ASSERT_EQ(s.index_of(ids[pos]), pos) << "len " << len;
      EXPECT_TRUE(s.contains(ids[pos]));

      // remove() is a swap-erase at the found position, and the column
      // follows the moved id.
      Column removed_column;
      BundleStore removed = filled(removed_column);
      removed.remove(ids[pos]);
      std::vector<PacketId> want = ids;
      want[pos] = want.back();
      want.pop_back();
      ASSERT_TRUE(std::equal(want.begin(), want.end(),
                             removed.packets().begin(),
                             removed.packets().end()))
          << "len " << len << " pos " << pos;
      EXPECT_FALSE(removed.contains(ids[pos]));
      for (std::size_t i = 0; i < want.size(); ++i) {
        ASSERT_EQ(removed.index_of(want[i]), i)
            << "len " << len << " pos " << pos;
      }
    }
  }
}

TEST(BundleStore, LoadRebuildsTheIndex) {
  Column column;
  const BundleStore s = store_from_image(column, 0, {40, 7, 100003});
  EXPECT_EQ(s.index_of(40), 0u);
  EXPECT_EQ(s.index_of(7), 1u);
  EXPECT_EQ(s.index_of(100003), 2u);
  EXPECT_FALSE(s.contains(8));
}

TEST(BundleStore, LoadRefusesAnIdListNamingAPacketTwice) {
  // Only a checkpoint image can hold a duplicate; one store never
  // holds a packet twice, so the image is corrupt.
  Column column;
  EXPECT_THROW((void)store_from_image(column, 0, {5, 9, 5}),
               persist::FormatError);
  EXPECT_THROW((void)store_from_image(column, 0, {kNoPacket}),
               persist::FormatError);
}

TEST(BundleStoreDeath, RemovingAbsentPacketRejected) {
  Column column;
  BundleStore s(10, EvictionPolicy::kReject, false, column);
  EXPECT_DEATH(s.remove(42), "DTN_ASSERT");
}

// -- admission / eviction -----------------------------------------------

TEST(BundleStore, RejectPolicyRefusesWhenFull) {
  Column column;
  BundleStore s(2, EvictionPolicy::kReject, false, column);
  std::vector<PacketId> evicted;
  EXPECT_EQ(s.admit(request(0), &evicted), Admit::kStored);
  EXPECT_EQ(s.admit(request(1), &evicted), Admit::kStored);
  EXPECT_EQ(s.admit(request(2), &evicted), Admit::kRefusedCapacity);
  EXPECT_TRUE(evicted.empty());
  EXPECT_EQ(s.count(), 2u);
}

TEST(BundleStore, DropOldestEvictsSmallestAdmissionSequence) {
  Column column;
  BundleStore s(3, EvictionPolicy::kDropOldest, false, column);
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
  Column column;
  BundleStore s(3, EvictionPolicy::kDropLargestExpectedDelay, false, column);
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
  Column column;
  BundleStore s(3, EvictionPolicy::kTtlExpire, false, column);
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
  Column column;
  BundleStore s(4, EvictionPolicy::kDropOldest, false, column);
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
  Column column;
  BundleStore s(2, EvictionPolicy::kDropOldest, false, column);
  std::vector<PacketId> evicted;
  auto retained = request(0);
  retained.retention = Retention::kDispatchPending;
  ASSERT_EQ(s.admit(retained, &evicted), Admit::kStored);
  ASSERT_EQ(s.admit(request(1), &evicted), Admit::kStored);
  EXPECT_EQ(s.retention(0), Retention::kDispatchPending);
  EXPECT_EQ(s.retention(1), Retention::kNone);
  // Oldest is retained: the free entry (1) is the victim instead.
  EXPECT_EQ(s.admit(request(2), &evicted), Admit::kStored);
  EXPECT_EQ(evicted, std::vector<PacketId>{1});
  EXPECT_TRUE(s.contains(0));
}

TEST(BundleStore, FullyRetainedStoreRefusesAndStaysUntouched) {
  // When every resident is retained there is no victim: the store
  // refuses and keeps all of them.
  Column column;
  BundleStore s(2, EvictionPolicy::kDropOldest, false, column);
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

TEST(BundleStore, RetentionSetsAndClears) {
  Column column;
  BundleStore s(4, EvictionPolicy::kDropOldest, false, column);
  std::vector<PacketId> evicted;
  ASSERT_EQ(s.admit(request(0), &evicted), Admit::kStored);
  EXPECT_EQ(s.retention(0), Retention::kNone);
  s.set_retention_if_held(0, Retention::kForwardPending);
  EXPECT_EQ(s.retention(0), Retention::kForwardPending);
  s.set_retention_if_held(0, Retention::kNone);
  EXPECT_EQ(s.retention(0), Retention::kNone);
  // Absent ids are a no-op, not an error: they stay absent and report
  // no retention.
  s.set_retention_if_held(99, Retention::kForwardPending);
  EXPECT_FALSE(s.contains(99));
  EXPECT_EQ(s.retention(99), Retention::kNone);
}

// -- dedup ---------------------------------------------------------------

TEST(BundleStore, DedupRefusesReadmittedLogical) {
  Column column;
  BundleStore s(8, EvictionPolicy::kReject, /*dedup=*/true, column);
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
  Column column;
  BundleStore s(8, EvictionPolicy::kReject, /*dedup=*/false, column);
  std::vector<PacketId> evicted;
  ASSERT_EQ(s.admit(request(5), &evicted), Admit::kStored);
  EXPECT_FALSE(s.seen_logical(5));
  EXPECT_EQ(s.dedup_seen_count(), 0u);
}

// -- removal -------------------------------------------------------------

TEST(BundleStore, RemovingAResidentMakesRoomWithoutEviction) {
  // A full reject store refuses the overflow outright; nothing is held
  // for it elsewhere.  Once a resident leaves, the same bundle fits.
  Column column;
  BundleStore s(2, EvictionPolicy::kReject, false, column);
  std::vector<PacketId> evicted;
  ASSERT_EQ(s.admit(request(0), &evicted), Admit::kStored);
  ASSERT_EQ(s.admit(request(1), &evicted), Admit::kStored);
  EXPECT_EQ(s.admit(request(2), &evicted), Admit::kRefusedCapacity);
  EXPECT_FALSE(s.contains(2));
  EXPECT_FALSE(s.has_space());
  s.remove(0);
  EXPECT_TRUE(s.has_space());
  EXPECT_EQ(s.admit(request(2), &evicted), Admit::kStored);
  EXPECT_TRUE(evicted.empty());
  EXPECT_EQ(s.count(), 2u);
  AuditReport report;
  s.audit(report, "store");
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(BundleStore, RemovingFromTheMiddleKeepsEvictionOrder) {
  // The swap-erase moves the last entry's metadata with its id, so the
  // admission order that drop-oldest follows survives a removal.
  Column column;
  BundleStore s(3, EvictionPolicy::kDropOldest, false, column);
  std::vector<PacketId> evicted;
  for (PacketId pid : {0u, 1u, 2u}) {
    ASSERT_EQ(s.admit(request(pid), &evicted), Admit::kStored);
  }
  s.remove(1);
  ASSERT_EQ(s.admit(request(3), &evicted), Admit::kStored);
  EXPECT_TRUE(evicted.empty());
  for (PacketId pid : {4u, 5u, 6u}) {
    ASSERT_EQ(s.admit(request(pid), &evicted), Admit::kStored);
  }
  EXPECT_EQ(evicted, (std::vector<PacketId>{0, 2, 3}));
  AuditReport report;
  s.audit(report, "store");
  EXPECT_TRUE(report.ok()) << report.to_string();
}

// -- checkpoint round trip -----------------------------------------------

TEST(BundleStore, CheckpointRoundTripKeepsRetentionDedupAndVictimOrder) {
  Column a_column;
  BundleStore a(2, EvictionPolicy::kDropOldest, /*dedup=*/true, a_column);
  std::vector<PacketId> evicted;
  ASSERT_EQ(a.admit(request(0), &evicted), Admit::kStored);
  auto pinned = request(1);
  pinned.retention = Retention::kDispatchPending;
  ASSERT_EQ(a.admit(pinned, &evicted), Admit::kStored);

  // A load places ids inside its column, which a network sizes to the
  // packet table.
  Column b_column(2, BundleStore::kAbsent);
  BundleStore b(2, EvictionPolicy::kDropOldest, /*dedup=*/true, b_column);
  load_image(b, store_image(a));
  EXPECT_EQ(store_image(b), store_image(a));
  EXPECT_EQ(b.retention(0), Retention::kNone);
  EXPECT_EQ(b.retention(1), Retention::kDispatchPending);
  EXPECT_TRUE(b.seen_logical(0));
  EXPECT_TRUE(b.seen_logical(1));

  // The resumed store picks the same victim as the original: the
  // retained bundle stays, the free one goes.
  for (BundleStore* s : {&a, &b}) {
    evicted.clear();
    EXPECT_EQ(s->admit(request(2), &evicted), Admit::kStored);
    EXPECT_EQ(evicted, std::vector<PacketId>{0});
  }
  EXPECT_EQ(store_image(b), store_image(a));
  // The dedup set came along: a copy of an evicted logical is refused.
  auto copy = request(9);
  copy.logical = 0;
  EXPECT_EQ(b.admit(copy, &evicted), Admit::kRefusedDuplicate);
}

TEST(BundleStore, LoadRejectsAnImageOverItsCapacity) {
  Column big_column;
  BundleStore big(3, EvictionPolicy::kReject, false, big_column);
  std::vector<PacketId> evicted;
  for (PacketId pid : {0u, 1u, 2u}) {
    ASSERT_EQ(big.admit(request(pid), &evicted), Admit::kStored);
  }
  const auto bytes = store_image(big);
  Column same_column(3, BundleStore::kAbsent);
  BundleStore same(3, EvictionPolicy::kReject, false, same_column);
  load_image(same, bytes);
  EXPECT_EQ(same.count(), 3u);
  Column small_column;
  BundleStore small(2, EvictionPolicy::kReject, false, small_column);
  EXPECT_THROW(load_image(small, bytes), persist::FormatError);
}

// -- differential test against a reference set ---------------------------

// What the store should hold, tracked from the outcomes it reports:
// its entries (id -> retention) and, with dedup on, the logicals it has
// admitted.
struct ReferenceStore {
  std::map<PacketId, Retention> memory;
  std::set<PacketId> seen;

  [[nodiscard]] bool holds(PacketId pid) const {
    return memory.count(pid) != 0;
  }
};

// Compares every observable of `s` with `ref`: membership of `probes`,
// the id list, per-id retention, and the audit (which cross-checks the
// position column).
void expect_matches(const BundleStore& s, const ReferenceStore& ref,
                    const std::vector<PacketId>& probes) {
  ASSERT_EQ(s.count(), ref.memory.size());
  const std::set<PacketId> listed(s.packets().begin(), s.packets().end());
  ASSERT_EQ(listed.size(), ref.memory.size());
  for (const auto& [pid, retention] : ref.memory) {
    ASSERT_TRUE(listed.count(pid) != 0) << "packet " << pid;
    ASSERT_EQ(s.retention(pid), retention) << "packet " << pid;
  }
  for (const PacketId pid : probes) {
    ASSERT_EQ(s.contains(pid), ref.holds(pid)) << "packet " << pid;
  }
  AuditReport report;
  s.audit(report, "store");
  ASSERT_TRUE(report.ok()) << report.to_string();
}

// save -> load of both stores into fresh stores with the same
// configuration over a cleared column, as a network load does; the
// reloaded stores must save the same bytes.
void reload(std::array<BundleStore, 2>& stores, Column& column,
            std::uint64_t capacity, EvictionPolicy policy, bool dedup) {
  const std::array<std::vector<std::uint8_t>, 2> bytes = {
      store_image(stores[0]), store_image(stores[1])};
  column.assign(column.size(), BundleStore::kAbsent);
  for (std::size_t k = 0; k < 2; ++k) {
    BundleStore fresh(capacity, policy, dedup, column);
    load_image(fresh, bytes[k]);
    ASSERT_EQ(store_image(fresh), bytes[k]);
    stores[k] = std::move(fresh);
  }
}

// Applies an admission's outcome to `ref`: evicted victims leave it, a
// stored bundle enters it.
void note_admission(ReferenceStore& ref, const BundleStore& s,
                    const BundleStore::AdmitRequest& req, Admit verdict,
                    const std::vector<PacketId>& evicted, bool seen) {
  for (const PacketId v : evicted) {
    const auto it = ref.memory.find(v);
    ASSERT_NE(it, ref.memory.end()) << "evicted absent " << v;
    ASSERT_EQ(it->second, Retention::kNone);
    ref.memory.erase(it);
  }
  const bool dedup = s.dedup_enabled();
  switch (verdict) {
    case Admit::kStored:
      ASSERT_FALSE(dedup && req.check_dedup && seen);
      ref.memory[req.pid] = req.retention;
      break;
    case Admit::kRefusedDuplicate:
      ASSERT_TRUE(dedup && req.check_dedup && seen);
      break;
    case Admit::kRefusedCapacity:
      ASSERT_TRUE(evicted.empty());
      ASSERT_FALSE(s.has_space());
      break;
  }
  if (dedup && verdict == Admit::kStored) ref.seen.insert(req.logical);
}

TEST(BundleStoreDifferential, MatchesAReferenceSetUnderRandomTraffic) {
  // Two stores share one position column, as every store of a network
  // does, and bundles move between them in a transfer's order: read the
  // source position, admit into the target, then remove by that
  // position.  A packet sits in at most one of them.
  constexpr PacketId kUniverse = 700;
  constexpr int kOps = 2000;
  std::vector<PacketId> everything(kUniverse);
  for (PacketId pid = 0; pid < kUniverse; ++pid) everything[pid] = pid;
  // Unbounded stores place a few hundred ids in the column; bounded
  // ones evict or refuse.
  for (const std::uint64_t capacity : {0u, 24u, 300u}) {
    for (const EvictionPolicy policy :
         {EvictionPolicy::kReject, EvictionPolicy::kDropOldest,
          EvictionPolicy::kDropLargestExpectedDelay,
          EvictionPolicy::kTtlExpire}) {
      for (const bool dedup : {false, true}) {
        SCOPED_TRACE("capacity " + std::to_string(capacity) + " policy " +
                     to_string(policy) + " dedup " + std::to_string(dedup));
        Rng rng(capacity * 131 + static_cast<std::uint64_t>(policy) * 17 +
                (dedup ? 1 : 0));
        Column column(kUniverse, BundleStore::kAbsent);
        std::array<BundleStore, 2> stores = {
            BundleStore(capacity, policy, dedup, column),
            BundleStore(capacity, policy, dedup, column)};
        std::array<ReferenceStore, 2> refs;
        const auto held_anywhere = [&](PacketId pid) {
          return refs[0].holds(pid) || refs[1].holds(pid);
        };
        const auto random_request = [&](PacketId pid) {
          BundleStore::AdmitRequest req;
          req.pid = pid;
          req.logical = pid;
          req.retention = rng.bernoulli(0.15) ? Retention::kDispatchPending
                                              : Retention::kNone;
          req.expected_delay = static_cast<double>(rng.uniform_index(50));
          req.deadline = static_cast<double>(rng.uniform_index(50));
          req.check_dedup = rng.bernoulli(0.5);
          return req;
        };
        // Ids both stores hold, i.e. live entries of the column.
        const auto column_load = [&refs] {
          return refs[0].memory.size() + refs[1].memory.size();
        };
        std::size_t evictions = 0;
        std::size_t moves = 0;
        std::size_t peak = 0;
        PacketId touched = 0;
        for (int op = 0; op < kOps; ++op) {
          peak = std::max(peak, column_load());
          // Every 250 steps, all ids and a save -> load -> continue.
          if (op % 250 == 0 && op > 0) {
            for (std::size_t k = 0; k < 2; ++k) {
              expect_matches(stores[k], refs[k], everything);
            }
            reload(stores, column, capacity, policy, dedup);
            for (std::size_t k = 0; k < 2; ++k) {
              expect_matches(stores[k], refs[k], everything);
            }
          }
          // Most traffic enters store 0; store 1 fills through moves.
          const std::size_t k = rng.bernoulli(0.8) ? 0 : 1;
          BundleStore& s = stores[k];
          ReferenceStore& ref = refs[k];
          const std::uint64_t roll = rng.uniform_index(100);
          // Mostly admissions for the first half of the run (until
          // the store is full; unbounded ones stop at 350 ids), then
          // mostly churn: moves, removals, retention changes.
          const bool filling = op < kOps / 2;
          const std::uint64_t admit_share = filling ? 85 : 55;
          const std::uint64_t move_end = filling ? 90 : 75;
          const std::uint64_t remove_end = filling ? 95 : 90;
          if (roll < admit_share &&
              (capacity != 0 || ref.memory.size() < 350)) {
            const auto pid =
                static_cast<PacketId>(rng.uniform_index(kUniverse));
            if (held_anywhere(pid)) continue;
            const BundleStore::AdmitRequest req = random_request(pid);
            const bool seen = ref.seen.count(pid) != 0;
            std::vector<PacketId> evicted;
            const Admit verdict = s.admit(req, &evicted);
            evictions += evicted.size();
            note_admission(ref, s, req, verdict, evicted, seen);
            touched = pid;
          } else if (roll < move_end) {
            // A transfer to the other store.
            if (ref.memory.empty()) continue;
            auto it = ref.memory.begin();
            std::advance(it, static_cast<std::ptrdiff_t>(
                                 rng.uniform_index(ref.memory.size())));
            const PacketId pid = it->first;
            BundleStore& target = stores[1 - k];
            ReferenceStore& target_ref = refs[1 - k];
            const std::size_t at = s.index_of(pid);
            ASSERT_NE(at, s.count());
            BundleStore::AdmitRequest req = random_request(pid);
            req.retention = Retention::kNone;
            const bool seen = target_ref.seen.count(pid) != 0;
            std::vector<PacketId> evicted;
            const Admit verdict = target.admit(req, &evicted);
            evictions += evicted.size();
            note_admission(target_ref, target, req, verdict, evicted, seen);
            if (verdict == Admit::kStored) {
              // The target's append re-pointed the shared column; the
              // source still lists the bundle at `at`.
              ASSERT_EQ(s.packets()[at], pid);
              s.remove_at(at);
              ref.memory.erase(pid);
              ++moves;
            } else {
              // A refused admission leaves the source untouched.
              ASSERT_EQ(s.index_of(pid), at);
            }
            touched = pid;
          } else if (roll < remove_end) {
            if (ref.memory.empty()) continue;
            auto it = ref.memory.begin();
            std::advance(it, static_cast<std::ptrdiff_t>(
                                 rng.uniform_index(ref.memory.size())));
            const PacketId pid = it->first;
            ref.memory.erase(it);
            s.remove(pid);
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
          for (std::size_t j = 0; j < 2; ++j) {
            expect_matches(stores[j], refs[j], {touched});
          }
        }
        for (std::size_t j = 0; j < 2; ++j) {
          expect_matches(stores[j], refs[j], everything);
        }
        // Every configuration exercised what it exists for.
        EXPECT_GT(moves, 20u);
        if (capacity == 0) {
          EXPECT_GE(peak, 300u);
        }
        if (capacity != 0 && policy != EvictionPolicy::kReject) {
          EXPECT_GT(evictions, 0u);
        }
      }
    }
  }
}

TEST(BundleStoreDeath, DoubleAdmissionAborts) {
  // In memory: the admission check refuses, whether or not the store
  // has space left.
  Column column;
  BundleStore s(2, EvictionPolicy::kReject, false, column);
  std::vector<PacketId> evicted;
  ASSERT_EQ(s.admit(request(1), &evicted), Admit::kStored);
  EXPECT_DEATH((void)s.admit(request(1), &evicted), "DTN_ASSERT");
  ASSERT_EQ(s.admit(request(2), &evicted), Admit::kStored);
  EXPECT_DEATH((void)s.admit(request(1), &evicted), "DTN_ASSERT");
}

// -- standalone audit negatives -----------------------------------------

// Build a store exercising every feature, seed each corruption, prove
// the audit reports it, revert, prove it passes again.
TEST(BundleStoreAudit, EverySeededCorruptionIsDetectedAndRevertible) {
  Column column;
  BundleStore s(2, EvictionPolicy::kDropOldest, /*dedup=*/true, column);
  std::vector<PacketId> evicted;
  auto pinned = request(0);
  pinned.retention = Retention::kDispatchPending;
  ASSERT_EQ(s.admit(pinned, &evicted), Admit::kStored);
  ASSERT_EQ(s.admit(request(1), &evicted), Admit::kStored);
  // Full: the next admission evicts the only retention-free resident.
  ASSERT_EQ(s.admit(request(2), &evicted), Admit::kStored);
  ASSERT_EQ(evicted, std::vector<PacketId>{1});

  const auto audit_ok = [&s]() {
    AuditReport report;
    s.audit(report, "store");
    return report.ok();
  };
  ASSERT_TRUE(audit_ok());

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

TEST(Overload, RejectStationsShedInsteadOfEvicting) {
  // Without an eviction policy a full station has one outcome for an
  // overflowing bundle: refusal.  Generated traffic is shed, nothing is
  // evicted, and the replay still completes deterministically.
  auto cfg = overload_workload();
  cfg.store.station_memory_kb = 12;
  cfg.store.policy = EvictionPolicy::kReject;
  const auto rejected = run_overload(cfg);
  EXPECT_EQ(rejected.evicted_policy, 0u);
  EXPECT_GT(rejected.admission_shed, 0u);
  EXPECT_GT(rejected.delivered, 0u);
  EXPECT_EQ(run_overload(cfg), rejected);
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

// -- checkpoint resume of a bounded run --------------------------------

TEST(Overload, CheckpointResumeOfBoundedStationsIsBitIdentical) {
  const auto trace = overload_trace();
  auto cfg = overload_workload();
  cfg.store.station_memory_kb = 12;
  cfg.store.policy = EvictionPolicy::kDropOldest;
  cfg.store.dedup = true;

  std::uint64_t full_digest = 0;
  std::uint64_t events = 0;
  {
    DtnFlowRouter router;
    Network net(trace, router, cfg);
    net.run();
    net.validate_invariants();
    full_digest = metrics::run_digest(net, router);
    events = net.events_executed();
  }

  // Suspend mid-run, after the stations have started evicting, then
  // resume in a fresh process-equivalent.
  CheckpointConfig cc;
  cc.dir = fresh_dir("ckpt_snaps").string();
  cc.stop_after_events = events / 2;
  {
    CheckpointManager mgr(cc);
    DtnFlowRouter router;
    Network net(trace, router, cfg);
    ASSERT_FALSE(net.run(mgr));  // suspended, snapshot written
    ASSERT_TRUE(mgr.has_checkpoint());
    ASSERT_GT(net.counters().evicted_policy, 0u);
  }
  CheckpointConfig resume = cc;
  resume.stop_after_events = 0;
  CheckpointManager mgr(resume);
  DtnFlowRouter router;
  Network net(trace, router, cfg);
  ASSERT_TRUE(net.run(mgr));
  net.validate_invariants();
  EXPECT_EQ(metrics::run_digest(net, router), full_digest);
}

// -- node -> node moves over the shared position column ---------------

TEST(SharedColumn, NodeToNodeRelayAuditedAtEveryEventMatchesThePlainRun) {
  // Node -> node relaying moves a bundle between two stores of the same
  // kind, both over the network's one position column.  The audit after
  // every event checks each store's ids against the column, and the
  // audited run must stay bit-identical to the plain one.
  const auto trace = overload_trace();
  WorkloadConfig cfg = overload_workload();
  core::DtnFlowConfig rc;
  rc.node_to_node_relay = true;
  const auto digest_of = [&](const core::DtnFlowConfig& router_cfg,
                             std::uint64_t audit_period) {
    DtnFlowRouter router(router_cfg);
    WorkloadConfig run_cfg = cfg;
    run_cfg.audit_period_events = audit_period;
    Network net(trace, router, run_cfg);
    net.run();
    net.validate_invariants();
    if (audit_period == 1) {
      EXPECT_GE(net.auditor().audits_run(), net.events_executed());
    }
    return metrics::run_digest(net, router);
  };
  const std::uint64_t plain = digest_of(rc, 0);
  EXPECT_EQ(digest_of(rc, 1), plain);
  // The relay moved bundles: without it the run differs.
  EXPECT_NE(digest_of(core::DtnFlowConfig{}, 0), plain);
}

}  // namespace
}  // namespace dtn
