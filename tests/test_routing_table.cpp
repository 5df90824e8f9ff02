#include "core/routing_table.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "persist/serializer.hpp"
#include "sim/invariant_auditor.hpp"
#include "util/rng.hpp"

namespace dtn::core {
namespace {

TEST(RoutingTable, SelfRouteIsZero) {
  RoutingTable t(2, 5);
  const Route r = t.route(2);
  EXPECT_EQ(r.next, 2u);
  EXPECT_DOUBLE_EQ(r.delay, 0.0);
}

TEST(RoutingTable, UnreachableWithoutLinks) {
  RoutingTable t(0, 4);
  EXPECT_FALSE(t.route(3).reachable());
  EXPECT_TRUE(std::isinf(t.delay_to(3)));
  EXPECT_DOUBLE_EQ(t.coverage(), 0.0);
}

TEST(RoutingTable, DirectLinkRoutesImmediately) {
  RoutingTable t(0, 3);
  t.set_link_delay(1, 5.0);
  const Route r = t.route(1);
  EXPECT_EQ(r.next, 1u);
  EXPECT_DOUBLE_EQ(r.delay, 5.0);
  EXPECT_FALSE(t.route(2).reachable());
  EXPECT_DOUBLE_EQ(t.coverage(), 0.5);
}

// The paper's Fig. 7 worked example, §IV-C.2: landmark receives a table
// from neighbor l6 (link delay 7) with entries for l3/l9/l4 and updates
// (1,1,8),(4,7,20),(7,7,6),(9,7,34) to
// (1,1,8),(3,6,17),(4,6,18),(7,7,6),(9,7,34).
TEST(RoutingTable, PaperFigureSevenExample) {
  RoutingTable t(5, 10);
  t.set_link_delay(1, 8.0);
  t.set_link_delay(7, 6.0);
  t.set_link_delay(6, 7.0);
  // Prior state: routes to 4 and 9 go through 7 (adv 14 and 28).
  std::vector<double> adv7(10, kInfiniteDelay);
  adv7[7] = 0.0;
  adv7[4] = 14.0;
  adv7[9] = 28.0;
  ASSERT_TRUE(t.merge(DistanceVector{7, 0, adv7}));
  EXPECT_EQ(t.route(4).next, 7u);
  EXPECT_DOUBLE_EQ(t.route(4).delay, 20.0);
  EXPECT_EQ(t.route(9).next, 7u);
  EXPECT_DOUBLE_EQ(t.route(9).delay, 34.0);

  // Now the table from l6 arrives: (3, 10), (9, 30), (4, 11).
  std::vector<double> adv6(10, kInfiniteDelay);
  adv6[6] = 0.0;
  adv6[3] = 10.0;
  adv6[9] = 30.0;
  adv6[4] = 11.0;
  ASSERT_TRUE(t.merge(DistanceVector{6, 0, adv6}));

  EXPECT_EQ(t.route(1).next, 1u);
  EXPECT_DOUBLE_EQ(t.route(1).delay, 8.0);
  EXPECT_EQ(t.route(3).next, 6u);          // inserted: 7 + 10 = 17
  EXPECT_DOUBLE_EQ(t.route(3).delay, 17.0);
  EXPECT_EQ(t.route(4).next, 6u);          // replaced: 7 + 11 = 18 < 20
  EXPECT_DOUBLE_EQ(t.route(4).delay, 18.0);
  EXPECT_EQ(t.route(7).next, 7u);
  EXPECT_DOUBLE_EQ(t.route(7).delay, 6.0);
  EXPECT_EQ(t.route(9).next, 7u);          // kept: 7 + 30 = 37 > 34
  EXPECT_DOUBLE_EQ(t.route(9).delay, 34.0);
}

TEST(RoutingTable, StaleVectorDiscarded) {
  RoutingTable t(0, 3);
  t.set_link_delay(1, 1.0);
  DistanceVector dv{1, 5, {2.0, 0.0, 3.0}};
  ASSERT_TRUE(t.merge(dv));
  EXPECT_DOUBLE_EQ(t.delay_to(2), 4.0);
  // Older vector with a better-looking delay must be ignored.
  dv = DistanceVector{1, 4, {2.0, 0.0, 0.5}};
  EXPECT_FALSE(t.merge(dv));
  EXPECT_DOUBLE_EQ(t.delay_to(2), 4.0);
  // Newer one is accepted.
  dv.seq = 6;
  ASSERT_TRUE(t.merge(dv));
  EXPECT_DOUBLE_EQ(t.delay_to(2), 1.5);
}

TEST(RoutingTable, SelfOriginVectorIgnored) {
  RoutingTable t(0, 2);
  const DistanceVector dv{0, 0, {0.0, 1.0}};
  EXPECT_FALSE(t.merge(dv));
}

TEST(RoutingTable, BackupNextHopIsSecondBestNeighbor) {
  RoutingTable t(0, 4);
  t.set_link_delay(1, 1.0);
  t.set_link_delay(2, 2.0);
  DistanceVector dv1{1, 0, {kInfiniteDelay, 0.0, kInfiniteDelay, 5.0}};
  DistanceVector dv2{2, 0, {kInfiniteDelay, kInfiniteDelay, 0.0, 5.0}};
  ASSERT_TRUE(t.merge(dv1));
  ASSERT_TRUE(t.merge(dv2));
  const Route r = t.route(3);
  EXPECT_EQ(r.next, 1u);                  // 1 + 5 = 6
  EXPECT_DOUBLE_EQ(r.delay, 6.0);
  EXPECT_EQ(r.backup_next, 2u);           // 2 + 5 = 7
  EXPECT_DOUBLE_EQ(r.backup_delay, 7.0);
}

TEST(RoutingTable, SnapshotAdvertisesOwnDelays) {
  RoutingTable t(0, 3);
  t.set_link_delay(1, 4.0);
  const DistanceVector dv = t.snapshot();
  EXPECT_EQ(dv.origin, 0u);
  EXPECT_DOUBLE_EQ(dv.delay()[0], 0.0);
  EXPECT_DOUBLE_EQ(dv.delay()[1], 4.0);
  EXPECT_TRUE(std::isinf(dv.delay()[2]));
  const DistanceVector dv2 = t.snapshot();
  EXPECT_GT(dv2.seq, dv.seq);
}

TEST(RoutingTable, LinkDelayChangePropagatesToRoutes) {
  RoutingTable t(0, 3);
  t.set_link_delay(1, 10.0);
  DistanceVector dv{1, 0, {kInfiniteDelay, 0.0, 2.0}};
  ASSERT_TRUE(t.merge(dv));
  EXPECT_DOUBLE_EQ(t.delay_to(2), 12.0);
  t.set_link_delay(1, 1.0);
  EXPECT_DOUBLE_EQ(t.delay_to(2), 3.0);
  t.set_link_delay(1, kInfiniteDelay);  // link disappears
  EXPECT_FALSE(t.route(2).reachable());
}

TEST(RoutingTable, PinOverridesAndBackupIsOrganic) {
  RoutingTable t(0, 4);
  t.set_link_delay(1, 1.0);
  DistanceVector dv{1, 0, {kInfiniteDelay, 0.0, kInfiniteDelay, 2.0}};
  ASSERT_TRUE(t.merge(dv));
  EXPECT_EQ(t.route(3).next, 1u);
  t.pin(3, 2, 0.5);
  EXPECT_TRUE(t.is_pinned(3));
  const Route r = t.route(3);
  EXPECT_EQ(r.next, 2u);
  EXPECT_DOUBLE_EQ(r.delay, 0.5);
  EXPECT_EQ(r.backup_next, 1u);  // the organic best survives as backup
  t.unpin(3);
  EXPECT_FALSE(t.is_pinned(3));
  EXPECT_EQ(t.route(3).next, 1u);
}

TEST(RoutingTable, NextHopsVectorForStabilityMetric) {
  RoutingTable t(0, 3);
  t.set_link_delay(1, 1.0);
  const auto hops = t.next_hops();
  ASSERT_EQ(hops.size(), 3u);
  EXPECT_EQ(hops[0], 0u);
  EXPECT_EQ(hops[1], 1u);
  EXPECT_EQ(hops[2], kNoLandmark);
}

// The classic distance-vector pathology, demonstrated: after a link
// disappears, stale advertisements keep a phantom route alive until
// fresher vectors flush it — exactly the "untimely update" failure mode
// the paper's loop detection (§IV-E.2) exists for.
TEST(RoutingTable, StaleAdvertisementsSurviveLinkRemoval) {
  // 0 -1- 1 -1- 2; node 0 reaches 2 via 1 with delay 2.
  RoutingTable t0(0, 3);
  t0.set_link_delay(1, 1.0);
  DistanceVector dv1{1, 0, {1.0, 0.0, 1.0}};
  ASSERT_TRUE(t0.merge(dv1));
  EXPECT_DOUBLE_EQ(t0.delay_to(2), 2.0);
  // The 1-2 link dies.  Landmark 0 still believes the old vector...
  EXPECT_DOUBLE_EQ(t0.delay_to(2), 2.0);
  // ...until landmark 1 advertises the loss (infinite delay).
  DistanceVector dv1b{1, 1, {1.0, 0.0, kInfiniteDelay}};
  ASSERT_TRUE(t0.merge(dv1b));
  EXPECT_FALSE(t0.route(2).reachable());
}

// -- incremental vs. full recompute equivalence ------------------------
//
// recompute() only revisits destination columns marked dirty since the
// last query.  Feed two tables the exact same update stream, but query
// one after every mutation (forcing many small incremental recomputes)
// and the other only at the end (one bulk recompute): every route —
// including backup next hops and pins — must agree exactly.

void ExpectSameRoutes(const RoutingTable& interleaved,
                      const RoutingTable& batched) {
  ASSERT_EQ(interleaved.num_landmarks(), batched.num_landmarks());
  for (std::size_t d = 0; d < interleaved.num_landmarks(); ++d) {
    const auto dst = static_cast<LandmarkId>(d);
    const Route a = interleaved.route(dst);
    const Route b = batched.route(dst);
    EXPECT_EQ(a.next, b.next) << "dst=" << d;
    EXPECT_EQ(a.delay, b.delay) << "dst=" << d;
    EXPECT_EQ(a.backup_next, b.backup_next) << "dst=" << d;
    EXPECT_EQ(a.backup_delay, b.backup_delay) << "dst=" << d;
    EXPECT_EQ(interleaved.is_pinned(dst), batched.is_pinned(dst));
  }
  EXPECT_EQ(interleaved.coverage(), batched.coverage());
}

TEST(RoutingTableIncremental, MatchesFullRecomputeWithPinsAndBackups) {
  RoutingTable inc(0, 5);
  RoutingTable full(0, 5);
  const auto apply = [&](auto&& op) { op(inc); op(full); };
  const auto touch_all = [&] {
    for (std::size_t d = 0; d < inc.num_landmarks(); ++d) {
      (void)inc.route(static_cast<LandmarkId>(d));
    }
  };

  apply([](RoutingTable& t) { t.set_link_delay(1, 1.0); });
  touch_all();
  apply([](RoutingTable& t) { t.set_link_delay(2, 3.0); });
  touch_all();
  // Two neighbors both reach 3 and 4: exercises backup selection.
  DistanceVector dv1{1, 0, {kInfiniteDelay, 0.0, 9.0, 5.0, 2.0}};
  DistanceVector dv2{2, 0, {kInfiniteDelay, 9.0, 0.0, 1.0, 2.0}};
  apply([&](RoutingTable& t) { ASSERT_TRUE(t.merge(dv1)); });
  touch_all();
  apply([&](RoutingTable& t) { ASSERT_TRUE(t.merge(dv2)); });
  touch_all();
  // Pin, re-merge updated vectors underneath the pin, then unpin.
  apply([](RoutingTable& t) { t.pin(3, 4, 0.25); });
  touch_all();
  DistanceVector dv1b{1, 1, {kInfiniteDelay, 0.0, 9.0, 0.5, 2.0}};
  apply([&](RoutingTable& t) { ASSERT_TRUE(t.merge(dv1b)); });
  touch_all();
  ExpectSameRoutes(inc, full);  // pinned route + organic backup agree
  apply([](RoutingTable& t) { t.unpin(3); });
  touch_all();
  // Link-cost change after partial queries invalidates every column.
  apply([](RoutingTable& t) { t.set_link_delay(1, 6.0); });
  (void)inc.route(3);  // query only one column before the final sweep
  ExpectSameRoutes(inc, full);
}

TEST(RoutingTableIncremental, RandomizedOpStreamsAgree) {
  dtn::Rng rng(99);
  const std::size_t n = 12;
  RoutingTable inc(0, n);
  RoutingTable full(0, n);
  std::vector<std::uint64_t> seq(n, 0);
  for (int step = 0; step < 400; ++step) {
    const auto roll = rng.uniform_index(10);
    if (roll < 3) {  // link change (occasionally removal)
      const auto v = static_cast<LandmarkId>(1 + rng.uniform_index(n - 1));
      const double d =
          rng.uniform_index(8) == 0 ? kInfiniteDelay : rng.uniform(1.0, 20.0);
      inc.set_link_delay(v, d);
      full.set_link_delay(v, d);
    } else if (roll < 8) {  // merge a random (sometimes stale) vector
      const auto origin = static_cast<LandmarkId>(1 + rng.uniform_index(n - 1));
      const std::uint64_t s =
          rng.uniform_index(4) == 0 && seq[origin] > 0
              ? seq[origin] - 1  // stale: must be a no-op on both
              : seq[origin]++;
      std::vector<double> delay(n, kInfiniteDelay);
      delay[origin] = 0.0;
      for (std::size_t d = 0; d < n; ++d) {
        if (rng.uniform_index(3) != 0) delay[d] = rng.uniform(0.0, 30.0);
      }
      const DistanceVector dv{origin, s, std::move(delay)};
      EXPECT_EQ(inc.merge(dv), full.merge(dv));
    } else if (roll == 8) {  // pin / unpin
      const auto dst = static_cast<LandmarkId>(1 + rng.uniform_index(n - 1));
      if (rng.uniform_index(2) == 0) {
        const auto via = static_cast<LandmarkId>(1 + rng.uniform_index(n - 1));
        const double d = rng.uniform(0.0, 5.0);
        inc.pin(dst, via, d);
        full.pin(dst, via, d);
      } else {
        inc.unpin(dst);
        full.unpin(dst);
      }
    }
    // Query a random column on `inc` only: drains part of its dirty set
    // so its recompute schedule diverges maximally from `full`'s.
    (void)inc.route(static_cast<LandmarkId>(rng.uniform_index(n)));
    if (step % 50 == 49) ExpectSameRoutes(inc, full);
  }
  ExpectSameRoutes(inc, full);
}

// -- O(1) merge upkeep vs the full reference scan ----------------------
//
// merge() keeps clean columns current in place; audit() recomputes every
// clean column over all landmarks and compares bit for bit.  Small
// integer delays make equal costs common, so the (cost, index)
// tie-break of every upkeep branch is exercised.

void ExpectAuditClean(const RoutingTable& t) {
  sim::AuditReport report;
  t.audit(report);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(RoutingTableUpkeep, TieHeavyOpStreamStaysAuditClean) {
  for (const std::uint64_t seed : {7u, 8u, 9u}) {
    dtn::Rng rng(seed);
    const std::size_t n = 10;
    const auto any_other = [&] {
      return static_cast<LandmarkId>(1 + rng.uniform_index(n - 1));
    };
    const auto small_delay = [&] {
      return static_cast<double>(rng.uniform_index(4));
    };
    RoutingTable t(0, n);
    std::vector<std::uint64_t> seq(n, 0);
    std::vector<std::vector<double>> last(
        n, std::vector<double>(n, kInfiniteDelay));
    for (int step = 0; step < 1500; ++step) {
      const auto roll = rng.uniform_index(20);
      if (roll < 4) {  // link change, sometimes a removal
        const double d =
            rng.uniform_index(5) == 0 ? kInfiniteDelay : 1.0 + small_delay();
        t.set_link_delay(any_other(), d);
      } else if (roll < 15) {  // perturb a few cells of an origin's vector
        const auto origin = any_other();
        auto& cells = last[origin];
        for (std::size_t d = 0; d < n; ++d) {
          if (rng.uniform_index(4) != 0) continue;
          cells[d] = rng.uniform_index(6) == 0 ? kInfiniteDelay : small_delay();
        }
        cells[origin] = 0.0;
        const bool stale = rng.uniform_index(6) == 0 && seq[origin] > 0;
        const DistanceVector dv{origin, stale ? seq[origin] - 1 : seq[origin]++,
                                cells};
        EXPECT_EQ(t.merge(dv), !stale);
      } else if (roll < 18) {  // pin / unpin
        const auto dst = any_other();
        if (rng.uniform_index(2) == 0) {
          t.pin(dst, any_other(), small_delay());
        } else {
          t.unpin(dst);
        }
      }
      // Drain part of the dirty set so clean and dirty columns mix.
      if (rng.uniform_index(2) == 0) {
        (void)t.route(static_cast<LandmarkId>(rng.uniform_index(n)));
      }
      ExpectAuditClean(t);
      if (::testing::Test::HasFailure()) {
        FAIL() << "seed " << seed << ", step " << step;
      }
    }
  }
}

// Checkpoint payload layout written by save(): self u32 | n u64 | link
// delays n x f64 | per origin a heard flag u8, then for a heard row
// n x f64 | last seq n x u64 | pin count u64 | per pinned destination,
// ascending: destination u32, next hop u32, delay f64 | seq u64.
class Layout {
 public:
  /// Offsets into `image`, whose heard flags place every later field.
  explicit Layout(const std::vector<std::uint8_t>& image) {
    for (std::size_t i = 0; i < 8; ++i) {
      n_ |= static_cast<std::size_t>(image[4 + i]) << (8 * i);
    }
    std::size_t at = link(n_);
    for (std::size_t o = 0; o < n_; ++o) {
      rows_.push_back(at);
      at += image[at] != 0 ? 1 + 8 * n_ : 1;
    }
    seqs_ = at;
  }
  [[nodiscard]] std::size_t link(std::size_t v) const { return 12 + 8 * v; }
  [[nodiscard]] std::size_t heard(std::size_t o) const { return rows_[o]; }
  [[nodiscard]] std::size_t cell(std::size_t o, std::size_t d) const {
    return rows_[o] + 1 + 8 * d;
  }
  /// The i-th pin's destination; its next hop follows at +4.
  [[nodiscard]] std::size_t pin(std::size_t i) const {
    return seqs_ + 8 * n_ + 8 + 16 * i;
  }

 private:
  std::size_t n_ = 0;
  std::vector<std::size_t> rows_;
  std::size_t seqs_ = 0;
};

std::vector<std::uint8_t> saved_payload(const RoutingTable& t) {
  persist::Writer w;
  w.begin_section("routing");
  const std::size_t start = w.buffer().size();
  t.save(w);
  return {w.buffer().begin() + static_cast<std::ptrdiff_t>(start),
          w.buffer().end()};
}

void load_payload(RoutingTable& t, const std::vector<std::uint8_t>& payload) {
  persist::Writer w;
  w.begin_section("routing");
  for (const std::uint8_t b : payload) w.u8(b);
  w.end_section();
  w.finish();
  persist::Reader r(w.buffer());
  r.expect_section("routing");
  t.load(r);
  r.end_section();
}

void patch_u32(std::vector<std::uint8_t>& bytes, std::size_t at,
               std::uint32_t v) {
  for (std::size_t i = 0; i < 4; ++i) {
    bytes[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

void patch_u64(std::vector<std::uint8_t>& bytes, std::size_t at,
               std::uint64_t v) {
  for (std::size_t i = 0; i < 8; ++i) {
    bytes[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

void patch_f64(std::vector<std::uint8_t>& bytes, std::size_t at, double v) {
  patch_u64(bytes, at, std::bit_cast<std::uint64_t>(v));
}

// self 0 linked to 1, 2 and 3 at delay 1; every column is clean on
// return.  Toward 4: via 1 costs 6, via 2 costs 8, via 3 costs 10.
class UpkeepBranch : public ::testing::Test {
 protected:
  void SetUp() override {
    for (LandmarkId v = 1; v <= 3; ++v) t_.set_link_delay(v, 1.0);
    advertise(1, 5.0);
    advertise(2, 7.0);
    advertise(3, 9.0);
    settle();
  }
  void advertise(LandmarkId origin, double to_four) {
    std::vector<double> delay(5, kInfiniteDelay);
    delay[origin] = 0.0;
    delay[4] = to_four;
    ASSERT_TRUE(t_.merge(DistanceVector{origin, seq_[origin]++, delay}));
  }
  void settle() {
    (void)t_.route(4);
    ASSERT_FALSE(t_.debug_column_dirty_for_test(4));
  }
  void expect_route(LandmarkId next, double delay, LandmarkId backup,
                    double backup_delay) {
    const Route r = t_.route(4);
    EXPECT_EQ(r.next, next);
    EXPECT_EQ(r.delay, delay);
    EXPECT_EQ(r.backup_next, backup);
    EXPECT_EQ(r.backup_delay, backup_delay);
  }

  RoutingTable t_{0, 5};
  std::vector<std::uint64_t> seq_ = std::vector<std::uint64_t>(5, 0);
};

TEST_F(UpkeepBranch, BestImprovesInPlace) {
  advertise(1, 3.0);
  EXPECT_FALSE(t_.debug_column_dirty_for_test(4));
  ExpectAuditClean(t_);
  expect_route(1, 4.0, 2, 8.0);
}

TEST_F(UpkeepBranch, BestWorsensRescans) {
  advertise(1, 10.0);
  EXPECT_TRUE(t_.debug_column_dirty_for_test(4));
  ExpectAuditClean(t_);
  expect_route(2, 8.0, 3, 10.0);
}

TEST_F(UpkeepBranch, BackupOvertakesBestOnEqualCostWithLowerIndex) {
  advertise(2, 4.0);  // via 2 now 5: the backup overtakes at a lower cost
  EXPECT_FALSE(t_.debug_column_dirty_for_test(4));
  expect_route(2, 5.0, 1, 6.0);
  advertise(1, 4.0);  // via 1 now ties the best at 5 with the lower index
  EXPECT_FALSE(t_.debug_column_dirty_for_test(4));
  ExpectAuditClean(t_);
  expect_route(1, 5.0, 2, 5.0);
}

TEST_F(UpkeepBranch, OutsiderEntersTopTwo) {
  advertise(3, 6.0);  // via 3 now 7: displaces backup 2 at 8
  EXPECT_FALSE(t_.debug_column_dirty_for_test(4));
  ExpectAuditClean(t_);
  expect_route(1, 6.0, 3, 7.0);
  advertise(2, 4.0);  // via 2 now 5: takes the best, 1 shifts down
  EXPECT_FALSE(t_.debug_column_dirty_for_test(4));
  ExpectAuditClean(t_);
  expect_route(2, 5.0, 1, 6.0);
}

TEST_F(UpkeepBranch, CellGoesToInfinity) {
  advertise(3, kInfiniteDelay);  // an outsider drops out: nothing moves
  EXPECT_FALSE(t_.debug_column_dirty_for_test(4));
  ExpectAuditClean(t_);
  expect_route(1, 6.0, 2, 8.0);
  advertise(1, kInfiniteDelay);  // the best drops out: rescan
  EXPECT_TRUE(t_.debug_column_dirty_for_test(4));
  ExpectAuditClean(t_);
  expect_route(2, 8.0, kNoLandmark, kInfiniteDelay);
}

// -- checkpoint load rejects impossible state ---------------------------

RoutingTable image_source() {
  RoutingTable t(0, 4);
  t.set_link_delay(1, 10.0);
  t.set_link_delay(2, 100.0);
  const DistanceVector dv{1, 0, {10.0, 0.0, 25.0, 60.0}};
  (void)t.merge(dv);
  t.pin(3, 2, 1.0);
  (void)t.route(3);
  return t;
}

TEST(RoutingTableLoad, UnpatchedImageRoundTrips) {
  const RoutingTable src = image_source();
  RoutingTable dst(0, 4);
  load_payload(dst, saved_payload(src));
  EXPECT_EQ(saved_payload(dst), saved_payload(src));
  ExpectAuditClean(dst);
  ExpectSameRoutes(dst, src);
}

TEST(RoutingTableLoad, ImageHoldsInputsNotTheQuerySchedule) {
  // The same inputs, queried or not: the routes and dirty bookkeeping
  // differ, the images must not.
  RoutingTable queried = image_source();
  RoutingTable untouched(0, 4);
  untouched.set_link_delay(1, 10.0);
  untouched.set_link_delay(2, 100.0);
  (void)untouched.merge(DistanceVector{1, 0, {10.0, 0.0, 25.0, 60.0}});
  untouched.pin(3, 2, 1.0);
  ASSERT_TRUE(untouched.debug_column_dirty_for_test(2));
  (void)queried.route(2);
  ASSERT_FALSE(queried.debug_column_dirty_for_test(2));
  EXPECT_EQ(saved_payload(queried), saved_payload(untouched));
}

TEST(RoutingTableLoad, RejectsNextHopsOutOfRange) {
  // The image's one pin, destination 3 -> next hop 2: neither may name
  // a landmark the table lacks, nor none at all, and the destination is
  // never the table's own landmark.
  const Layout at(saved_payload(image_source()));
  {
    auto bytes = saved_payload(image_source());
    patch_u32(bytes, at.pin(0), 0);
    RoutingTable t(0, 4);
    EXPECT_THROW(load_payload(t, bytes), persist::FormatError) << "self";
  }
  for (const std::size_t field : {at.pin(0), at.pin(0) + 4}) {
    for (const std::uint32_t hop : {4u, kNoLandmark - 1, kNoLandmark}) {
      auto bytes = saved_payload(image_source());
      patch_u32(bytes, field, hop);
      RoutingTable t(0, 4);
      EXPECT_THROW(load_payload(t, bytes), persist::FormatError)
          << "field at " << field << ", hop " << hop;
    }
  }
}

TEST(RoutingTableLoad, RejectsNegativeOrNanDelays) {
  const Layout at(saved_payload(image_source()));
  for (const std::size_t field :
       {at.link(1), at.link(3), at.cell(1, 2), at.cell(1, 0), at.cell(1, 1)}) {
    for (const double bad :
         {-1.0, std::numeric_limits<double>::quiet_NaN(), -kInfiniteDelay}) {
      auto bytes = saved_payload(image_source());
      patch_f64(bytes, field, bad);
      RoutingTable t(0, 4);
      EXPECT_THROW(load_payload(t, bytes), persist::FormatError)
          << "field at " << field << ", value " << bad;
    }
  }
}

TEST(RoutingTableLoad, RejectsRowsOfTheWrongLength) {
  // Only origin 1 was heard from, so only its row is in the image.  A
  // row holds exactly n cells, so one cell short or one cell long
  // shifts every later field and leaves the section over- or under-read.
  const Layout at(saved_payload(image_source()));
  const auto row_end = static_cast<std::ptrdiff_t>(at.cell(1, 4));
  {
    auto bytes = saved_payload(image_source());
    ASSERT_EQ(bytes[at.heard(1)], 1u);
    bytes.erase(bytes.begin() + row_end - 8, bytes.begin() + row_end);
    RoutingTable t(0, 4);
    EXPECT_THROW(load_payload(t, bytes), persist::FormatError) << "short";
  }
  {
    auto bytes = saved_payload(image_source());
    bytes.insert(bytes.begin() + row_end, 8, std::uint8_t{0});
    RoutingTable t(0, 4);
    EXPECT_THROW(load_payload(t, bytes), persist::FormatError) << "long";
  }
  // A heard flag is a boolean; anything else is corruption.
  auto bytes = saved_payload(image_source());
  bytes[at.heard(2)] = 2;
  RoutingTable t(0, 4);
  EXPECT_THROW(load_payload(t, bytes), persist::FormatError);
}

// -- publish-once distance vectors --------------------------------------
//
// snapshot() shares one immutable payload per table version, and merge()
// skips the sweep of the payload the origin's row already holds.  Both
// are shortcuts: nothing a table computes or saves may depend on them.

/// The same vector with its payload deep-copied: never the payload a
/// row holds, so every merge of it sweeps.
DistanceVector unpublished_copy(const DistanceVector& dv) {
  return DistanceVector{dv.origin, dv.seq, dv.delay()};
}

/// A snapshot advertises the table's current best delays, 0 to itself.
void ExpectAdvertisesRoutes(const RoutingTable& t, const DistanceVector& dv) {
  ASSERT_EQ(dv.entries(), t.num_landmarks());
  for (std::size_t d = 0; d < dv.entries(); ++d) {
    const auto dst = static_cast<LandmarkId>(d);
    EXPECT_EQ(dv.delay()[d], dst == t.self() ? 0.0 : t.route(dst).delay)
        << "table " << t.self() << ", dst " << d;
  }
}

TEST(PublishOnce, UnchangedTableSharesOnePayload) {
  RoutingTable t(0, 4);
  t.set_link_delay(1, 4.0);
  t.set_link_delay(2, 6.0);
  const DistanceVector a = t.snapshot();
  const DistanceVector b = t.snapshot();
  ASSERT_NE(a.payload, nullptr);
  EXPECT_EQ(a.payload, b.payload);
  EXPECT_GT(b.seq, a.seq);

  // A delay change publishes a new payload; the old one that carriers
  // still hold is left as it was.
  t.set_link_delay(1, 3.0);
  const DistanceVector c = t.snapshot();
  EXPECT_NE(c.payload, a.payload);
  EXPECT_EQ(c.delay()[1], 3.0);
  EXPECT_EQ(a.delay()[1], 4.0);
  EXPECT_GT(c.seq, b.seq);

  // Changes that land on equal content keep the payload: a link moved and
  // moved back, a pin lifted before the next snapshot, and a merge that
  // only moves a backup hop.
  t.set_link_delay(2, 9.0);
  t.set_link_delay(2, 6.0);
  t.pin(3, 2, 0.5);
  t.unpin(3);
  ASSERT_TRUE(t.merge(
      DistanceVector{2, 0, {kInfiniteDelay, 1.0, 0.0, kInfiniteDelay}}));
  EXPECT_EQ(t.route(1).next, 1u);
  EXPECT_EQ(t.route(1).backup_next, 2u);
  const DistanceVector d = t.snapshot();
  EXPECT_EQ(d.payload, c.payload);

  // A pin advertises its injected delay.
  t.pin(3, 2, 0.5);
  const DistanceVector e = t.snapshot();
  EXPECT_NE(e.payload, d.payload);
  ExpectAdvertisesRoutes(t, e);
  EXPECT_EQ(e.delay()[3], 0.5);
}

TEST(PublishOnce, ReappliedPayloadStampsTheOrigin) {
  RoutingTable src(1, 3);
  src.set_link_delay(2, 2.0);
  RoutingTable dst(0, 3);
  dst.set_link_delay(1, 1.0);
  const DistanceVector first = src.snapshot();
  ASSERT_TRUE(dst.merge(first));
  const Route before = dst.route(2);

  const DistanceVector again = src.snapshot();
  ASSERT_EQ(again.payload, first.payload);
  EXPECT_TRUE(dst.merge(again));
  EXPECT_FALSE(dst.merge(again));  // the same seq is stale
  const Route after = dst.route(2);
  EXPECT_EQ(after.next, before.next);
  EXPECT_EQ(after.delay, 3.0);
  ExpectAuditClean(dst);

  // A cell written behind the table's back goes into a copy of the row,
  // which is no longer the payload: the next delivery of that payload
  // must sweep and repair it.  The payload itself is untouched.
  dst.debug_corrupt_advertised_for_test(1, 2, 0.5);
  EXPECT_EQ(first.delay()[2], 2.0);
  ASSERT_TRUE(dst.merge(src.snapshot()));
  ExpectAuditClean(dst);
  EXPECT_EQ(dst.route(2).delay, 3.0);
}

TEST(PublishOnce, LinkChangeBeforeRedeliveryMatchesCopiedMerges) {
  RoutingTable src(1, 4);
  src.set_link_delay(2, 2.0);
  src.set_link_delay(3, 5.0);
  RoutingTable dst(0, 4);
  dst.set_link_delay(1, 1.0);
  dst.set_link_delay(3, 4.0);
  const DistanceVector dv = src.snapshot();
  ASSERT_TRUE(dst.merge(dv));
  EXPECT_EQ(dst.route(2).delay, 3.0);
  EXPECT_EQ(dst.route(3).delay, 4.0);

  // The link to the origin worsens, then the origin's unchanged payload
  // arrives again: the merge skips the sweep, yet every route through
  // the origin follows the new link delay.
  dst.set_link_delay(1, 3.0);
  const DistanceVector again = src.snapshot();
  ASSERT_EQ(again.payload, dv.payload);
  ASSERT_TRUE(dst.merge(again));
  EXPECT_EQ(dst.route(2).delay, 5.0);
  EXPECT_EQ(dst.route(3).next, 3u);
  EXPECT_EQ(dst.route(3).delay, 4.0);
  EXPECT_EQ(dst.route(3).backup_next, 1u);
  EXPECT_EQ(dst.route(3).backup_delay, 8.0);
  ExpectAuditClean(dst);

  RoutingTable twin(0, 4);
  twin.set_link_delay(1, 1.0);
  twin.set_link_delay(3, 4.0);
  ASSERT_TRUE(twin.merge(unpublished_copy(dv)));
  (void)twin.route(3);
  twin.set_link_delay(1, 3.0);
  ASSERT_TRUE(twin.merge(unpublished_copy(again)));
  (void)twin.route(3);
  EXPECT_EQ(saved_payload(dst), saved_payload(twin));
}

TEST(PublishOnce, LoadRestoresRowsAsFreshPayloads) {
  RoutingTable src(1, 4);
  src.set_link_delay(2, 2.0);
  src.set_link_delay(3, 5.0);
  const DistanceVector old_dv = src.snapshot();
  src.set_link_delay(3, 1.0);
  const DistanceVector new_dv = src.snapshot();
  ASSERT_NE(old_dv.payload, new_dv.payload);

  // The image holds the row of old_dv; the live table then applies
  // new_dv, and loading the image puts old_dv's row back.
  RoutingTable t(0, 4);
  t.set_link_delay(1, 1.0);
  ASSERT_TRUE(t.merge(old_dv));
  (void)t.route(3);
  const std::vector<std::uint8_t> image = saved_payload(t);
  ASSERT_TRUE(t.merge(new_dv));
  EXPECT_EQ(t.route(3).delay, 2.0);
  load_payload(t, image);
  EXPECT_EQ(t.route(3).delay, 6.0);

  // new_dv is the payload t merged last, yet the restored row is a copy
  // of old_dv's: the merge must sweep it.
  ASSERT_TRUE(t.merge(new_dv));
  EXPECT_EQ(t.route(3).delay, 2.0);
  ExpectAuditClean(t);

  RoutingTable twin(0, 4);
  twin.set_link_delay(1, 1.0);
  ASSERT_TRUE(twin.merge(old_dv));
  (void)twin.route(3);
  ASSERT_TRUE(twin.merge(new_dv));
  (void)twin.route(3);
  EXPECT_EQ(saved_payload(t), saved_payload(twin));

  // What t advertises follows the load, too.
  const DistanceVector published = t.snapshot();
  EXPECT_EQ(published.delay()[3], 2.0);
  load_payload(t, image);
  const DistanceVector republished = t.snapshot();
  EXPECT_NE(republished.payload, published.payload);
  ExpectAdvertisesRoutes(t, republished);
  EXPECT_EQ(republished.delay()[3], 6.0);
}

// Differential: receiver `shared` merges the sources' published
// snapshots, `copied` merges deep copies of the same vectors.  Sources
// change links and merge each other's vectors, so payloads both repeat
// and move on; snapshots are delivered out of order, so stale and
// re-delivered payloads are common.  Receivers change links, pin, reload
// their own images and advertise.  After every op both
// receivers must save the same bytes and route alike.
TEST(PublishOnce, SharedAndCopiedPayloadsMergeIdentically) {
  for (const std::uint64_t seed : {21u, 22u, 23u}) {
    dtn::Rng rng(seed);
    const std::size_t n = 8;
    const auto any_other = [&] {
      return static_cast<LandmarkId>(1 + rng.uniform_index(n - 1));
    };
    std::vector<RoutingTable> sources;
    sources.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      sources.emplace_back(static_cast<LandmarkId>(i), n);
    }
    for (std::size_t i = 1; i < n; ++i) {
      sources[i].set_link_delay(static_cast<LandmarkId>(i % (n - 1) + 1),
                                rng.uniform(1.0, 9.0));
    }
    RoutingTable shared(0, n);
    RoutingTable copied(0, n);
    const auto both = [&](auto&& op) {
      op(shared);
      op(copied);
    };
    both([](RoutingTable& t) { t.set_link_delay(1, 1.0); });
    both([](RoutingTable& t) { t.set_link_delay(2, 3.0); });
    std::vector<DistanceVector> in_flight;
    std::vector<DistanceVector::Payload> last_payload(n);
    std::size_t repeats = 0;  // fresh deliveries of a payload already merged
    for (int step = 0; step < 600; ++step) {
      const auto roll = rng.uniform_index(21);
      if (roll < 2) {  // a source's link moves (or is set to its value)
        RoutingTable& s = sources[any_other()];
        const auto v = any_other();
        if (v != s.self()) {
          const double d = rng.uniform_index(3) == 0
                               ? s.link_delay(v)
                               : static_cast<double>(1 + rng.uniform_index(6));
          s.set_link_delay(v, d);
        }
      } else if (roll < 4) {  // sources exchange vectors
        const auto from = any_other();
        const auto to = any_other();
        if (from != to) (void)sources[to].merge(sources[from].snapshot());
      } else if (roll < 8) {  // a carrier picks up a source's vector
        RoutingTable& s = sources[any_other()];
        in_flight.push_back(s.snapshot());
        ExpectAdvertisesRoutes(s, in_flight.back());
      } else if (roll < 13 && !in_flight.empty()) {  // ...and delivers it
        const auto at = rng.uniform_index(in_flight.size());
        const DistanceVector dv = in_flight[at];
        if (rng.uniform_index(3) != 0) {
          in_flight.erase(in_flight.begin() + static_cast<std::ptrdiff_t>(at));
        }
        const bool fresh = copied.merge(unpublished_copy(dv));
        EXPECT_EQ(shared.merge(dv), fresh);
        if (fresh) {
          if (dv.payload == last_payload[dv.origin]) ++repeats;
          last_payload[dv.origin] = dv.payload;
        }
      } else if (roll < 16) {  // a receiver's link moves
        const auto v = any_other();
        const double d = rng.uniform_index(5) == 0
                             ? kInfiniteDelay
                             : static_cast<double>(1 + rng.uniform_index(6));
        both([&](RoutingTable& t) { t.set_link_delay(v, d); });
      } else if (roll < 19) {  // pin / unpin
        const auto dst = any_other();
        const auto via = any_other();
        const bool pin = rng.uniform_index(2) == 0;
        both([&](RoutingTable& t) {
          if (pin) {
            t.pin(dst, via, 0.5);
          } else {
            t.unpin(dst);
          }
        });
      } else if (roll < 20) {  // checkpoint round trip of the sharer
        load_payload(shared, saved_payload(shared));
      } else {
        const DistanceVector mine = shared.snapshot();
        ExpectAdvertisesRoutes(shared, mine);
        EXPECT_EQ(mine.delay(), copied.snapshot().delay());
      }
      if (rng.uniform_index(2) == 0) {  // drain part of the dirty set
        const auto dst = static_cast<LandmarkId>(rng.uniform_index(n));
        both([&](RoutingTable& t) { (void)t.route(dst); });
      }
      EXPECT_EQ(saved_payload(shared), saved_payload(copied));
      ExpectSameRoutes(shared, copied);
      if (::testing::Test::HasFailure()) {
        FAIL() << "seed " << seed << ", step " << step;
      }
    }
    EXPECT_GT(repeats, 20u) << "seed " << seed;
  }
}

// Property: after synchronous flooding on a random connected graph, DV
// delays equal all-pairs shortest paths (Floyd-Warshall reference).
class DvConvergenceTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DvConvergenceTest, ConvergesToShortestPaths) {
  dtn::Rng rng(GetParam());
  const std::size_t n = 8;
  std::vector<std::vector<double>> w(n, std::vector<double>(n, kInfiniteDelay));
  // Ring for connectivity + random chords; symmetric weights.
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t j = (i + 1) % n;
    const double d = rng.uniform(1.0, 10.0);
    w[i][j] = w[j][i] = d;
  }
  for (int extra = 0; extra < 6; ++extra) {
    const auto i = rng.uniform_index(n);
    const auto j = rng.uniform_index(n);
    if (i == j) continue;
    const double d = rng.uniform(1.0, 10.0);
    w[i][j] = std::min(w[i][j], d);
    w[j][i] = std::min(w[j][i], d);
  }

  std::vector<RoutingTable> tables;
  tables.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    tables.emplace_back(static_cast<LandmarkId>(i), n);
    for (std::size_t j = 0; j < n; ++j) {
      if (i != j && w[i][j] != kInfiniteDelay) {
        tables[i].set_link_delay(static_cast<LandmarkId>(j), w[i][j]);
      }
    }
  }
  // Synchronous rounds: everyone snapshots, everyone merges neighbors.
  for (std::size_t round = 0; round < n + 2; ++round) {
    std::vector<DistanceVector> snaps;
    snaps.reserve(n);
    for (auto& t : tables) snaps.push_back(t.snapshot());
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        if (i != j && w[i][j] != kInfiniteDelay) tables[i].merge(snaps[j]);
      }
    }
  }

  // Floyd-Warshall reference.
  auto dist = w;
  for (std::size_t i = 0; i < n; ++i) dist[i][i] = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        dist[i][j] = std::min(dist[i][j], dist[i][k] + dist[k][j]);
      }
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_DOUBLE_EQ(tables[i].coverage(), 1.0);
    for (std::size_t j = 0; j < n; ++j) {
      EXPECT_NEAR(tables[i].delay_to(static_cast<LandmarkId>(j)), dist[i][j],
                  1e-9)
          << "i=" << i << " j=" << j;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Graphs, DvConvergenceTest,
                         ::testing::Values(1ull, 2ull, 3ull, 4ull, 5ull));

}  // namespace
}  // namespace dtn::core
