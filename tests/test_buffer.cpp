#include "net/buffer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "persist/serializer.hpp"

namespace dtn::net {
namespace {

TEST(Buffer, UnboundedAcceptsEverything) {
  Buffer b(0);
  EXPECT_TRUE(b.unbounded());
  for (PacketId i = 0; i < 1000; ++i) {
    EXPECT_TRUE(b.add(i));
  }
  EXPECT_EQ(b.count(), 1000u);
}

TEST(Buffer, CapacityEnforced) {
  Buffer b(2);
  EXPECT_TRUE(b.add(0));
  EXPECT_TRUE(b.add(1));
  EXPECT_FALSE(b.add(2));  // 2 of 2 kB used, no room
  EXPECT_EQ(b.count(), 2u);
}

TEST(Buffer, HasSpaceQuery) {
  Buffer b(2);
  EXPECT_TRUE(b.has_space());
  ASSERT_TRUE(b.add(0));
  EXPECT_TRUE(b.has_space());
  ASSERT_TRUE(b.add(1));
  EXPECT_FALSE(b.has_space());
}

TEST(Buffer, RemoveFreesSpace) {
  Buffer b(1);
  ASSERT_TRUE(b.add(7));
  EXPECT_FALSE(b.add(8));
  b.remove(7);
  EXPECT_EQ(b.count(), 0u);
  EXPECT_TRUE(b.add(8));
}

TEST(Buffer, ContainsTracksMembership) {
  Buffer b(10);
  EXPECT_FALSE(b.contains(1));
  ASSERT_TRUE(b.add(1));
  EXPECT_TRUE(b.contains(1));
  b.remove(1);
  EXPECT_FALSE(b.contains(1));
}

TEST(Buffer, PacketsSpanReflectsContents) {
  Buffer b(10);
  ASSERT_TRUE(b.add(3));
  ASSERT_TRUE(b.add(5));
  const auto span = b.packets();
  ASSERT_EQ(span.size(), 2u);
}

// Loads an image holding `ids` into a buffer of `capacity_kb` (such
// states can only enter through a checkpoint, which is exactly where
// adversarial values come from).
Buffer buffer_from_image(std::uint64_t capacity_kb,
                         const std::vector<PacketId>& ids) {
  persist::Writer w;
  w.begin_section("buffer");
  w.u64(ids.size());
  for (const PacketId pid : ids) w.u32(pid);
  w.end_section();
  w.finish();
  auto bytes = w.buffer();
  persist::Reader r(std::move(bytes));
  r.expect_section("buffer");
  Buffer b(capacity_kb);
  b.load(r);
  r.end_section();
  r.finish();
  return b;
}

TEST(Buffer, HasSpaceDoesNotWrapNearUint64Max) {
  // A capacity at or near UINT64_MAX (or past 32 bits) is a bound, not
  // "unbounded": no comparison may narrow or wrap it.
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  for (const std::uint64_t cap : {kMax, kMax - 1, std::uint64_t{1} << 32}) {
    Buffer b = buffer_from_image(cap, {1, 2});
    EXPECT_FALSE(b.unbounded()) << cap;
    EXPECT_EQ(b.capacity_kb(), cap);
    EXPECT_TRUE(b.has_space()) << cap;
    EXPECT_TRUE(b.add(3)) << cap;
  }
}

TEST(Buffer, HasSpaceRejectsOverfullAccounting) {
  // An image that fills the capacity loads full: nothing more fits
  // until a packet leaves.  (An overfull image is refused at load.)
  Buffer b = buffer_from_image(2, {4, 5});
  EXPECT_FALSE(b.has_space());
  EXPECT_FALSE(b.add(6));
  EXPECT_EQ(b.count(), 2u);
  b.remove(4);
  EXPECT_TRUE(b.has_space());
  EXPECT_TRUE(b.add(6));
}

TEST(Buffer, LoadKeepsTheConfiguredCapacity) {
  // The image holds no capacity: it is configuration, pinned by the
  // config fingerprint, so a loaded buffer keeps the one it was built
  // with.
  Buffer saved(100);
  ASSERT_TRUE(saved.add(3));
  persist::Writer w;
  w.begin_section("buffer");
  saved.save(w);
  w.end_section();
  w.finish();
  persist::Reader r(w.buffer());
  r.expect_section("buffer");
  Buffer b(2);
  b.load(r);
  r.end_section();
  r.finish();
  EXPECT_EQ(b.capacity_kb(), 2u);
  EXPECT_TRUE(b.contains(3));
  EXPECT_TRUE(b.has_space());
}

TEST(Buffer, LoadRefusesMorePacketsThanTheCapacity) {
  EXPECT_NO_THROW((void)buffer_from_image(2, {4, 5}));
  EXPECT_THROW((void)buffer_from_image(2, {4, 5, 6}), persist::FormatError);
  EXPECT_NO_THROW((void)buffer_from_image(0, {4, 5, 6}));
}

TEST(Buffer, IndexOfMatchesStdFindAfterEverySwapErase) {
  // Lengths 0-70 cross the index's growth points (16, 32, 64, 128
  // cells at most half full); every position is removed once.
  constexpr PacketId kAbsent = 999;
  for (std::size_t len = 0; len <= 70; ++len) {
    std::vector<PacketId> ids;
    Buffer b(0);
    for (std::size_t i = 0; i < len; ++i) {
      ids.push_back(static_cast<PacketId>(7 * i + 3));
      ASSERT_TRUE(b.add(ids.back()));
    }
    EXPECT_EQ(b.index_of(kAbsent), len);
    EXPECT_FALSE(b.contains(kAbsent));
    EXPECT_FALSE(b.contains(kNoPacket));
    EXPECT_EQ(b.indexed_count(), len);
    for (std::size_t pos = 0; pos < len; ++pos) {
      ASSERT_EQ(b.index_of(ids[pos]), pos) << "len " << len;
      EXPECT_TRUE(b.contains(ids[pos]));

      // remove() is a swap-erase at the found position, and the index
      // follows the moved id.
      Buffer removed = b;
      removed.remove(ids[pos]);
      std::vector<PacketId> want = ids;
      want[pos] = want.back();
      want.pop_back();
      ASSERT_TRUE(std::equal(want.begin(), want.end(),
                             removed.packets().begin(),
                             removed.packets().end()))
          << "len " << len << " pos " << pos;
      EXPECT_EQ(removed.indexed_count(), len - 1);
      EXPECT_FALSE(removed.contains(ids[pos]));
      for (std::size_t i = 0; i < want.size(); ++i) {
        ASSERT_EQ(removed.index_of(want[i]), i)
            << "len " << len << " pos " << pos;
      }
    }
  }
}

TEST(Buffer, LoadRebuildsTheIndex) {
  const Buffer b = buffer_from_image(0, {40, 7, 1000003});
  EXPECT_EQ(b.indexed_count(), 3u);
  EXPECT_EQ(b.index_of(40), 0u);
  EXPECT_EQ(b.index_of(7), 1u);
  EXPECT_EQ(b.index_of(1000003), 2u);
  EXPECT_FALSE(b.contains(8));
}

TEST(Buffer, LoadRefusesAnIdListNamingAPacketTwice) {
  // Only a checkpoint image can hold a duplicate; one store never
  // holds a packet twice, so the image is corrupt.
  EXPECT_THROW((void)buffer_from_image(0, {5, 9, 5}),
               persist::FormatError);
  EXPECT_THROW((void)buffer_from_image(0, {kNoPacket}),
               persist::FormatError);
}

TEST(BufferDeath, RemovingAbsentPacketRejected) {
  Buffer b(10);
  EXPECT_DEATH(b.remove(42), "DTN_ASSERT");
}

TEST(BufferDeath, DoubleAddRejected) {
  Buffer b(10);
  ASSERT_TRUE(b.add(1));
  EXPECT_DEATH((void)b.add(1), "DTN_ASSERT");
  // append() skips no check: the index insert refuses the duplicate.
  EXPECT_DEATH(b.append(1), "DTN_ASSERT");
}

}  // namespace
}  // namespace dtn::net
