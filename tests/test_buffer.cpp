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
    EXPECT_TRUE(b.add(i, 1000));
  }
  EXPECT_EQ(b.count(), 1000u);
}

TEST(Buffer, CapacityEnforced) {
  Buffer b(3);
  EXPECT_TRUE(b.add(0, 1));
  EXPECT_TRUE(b.add(1, 2));
  EXPECT_FALSE(b.add(2, 1));  // 3 kB used, no room
  EXPECT_EQ(b.count(), 2u);
  EXPECT_EQ(b.used_kb(), 3u);
}

TEST(Buffer, HasSpaceQuery) {
  Buffer b(5);
  EXPECT_TRUE(b.has_space(5));
  EXPECT_FALSE(b.has_space(6));
  ASSERT_TRUE(b.add(0, 4));
  EXPECT_TRUE(b.has_space(1));
  EXPECT_FALSE(b.has_space(2));
}

TEST(Buffer, RemoveFreesSpace) {
  Buffer b(2);
  ASSERT_TRUE(b.add(7, 2));
  EXPECT_FALSE(b.add(8, 1));
  b.remove(7, 2);
  EXPECT_EQ(b.count(), 0u);
  EXPECT_EQ(b.used_kb(), 0u);
  EXPECT_TRUE(b.add(8, 1));
}

TEST(Buffer, ContainsTracksMembership) {
  Buffer b(10);
  EXPECT_FALSE(b.contains(1));
  ASSERT_TRUE(b.add(1, 1));
  EXPECT_TRUE(b.contains(1));
  b.remove(1, 1);
  EXPECT_FALSE(b.contains(1));
}

TEST(Buffer, PacketsSpanReflectsContents) {
  Buffer b(10);
  ASSERT_TRUE(b.add(3, 1));
  ASSERT_TRUE(b.add(5, 1));
  const auto span = b.packets();
  ASSERT_EQ(span.size(), 2u);
}

// Loads a Buffer image with the given capacity/byte accounting and ids
// (such states can only enter through a checkpoint, which is exactly
// where adversarial values come from).
Buffer buffer_from_image(std::uint64_t capacity_kb, std::uint64_t used_kb,
                         const std::vector<PacketId>& ids = {}) {
  persist::Writer w;
  w.begin_section("buffer");
  w.u64(capacity_kb);
  w.u64(used_kb);
  w.u64(ids.size());
  for (const PacketId pid : ids) w.u32(pid);
  w.end_section();
  w.finish();
  auto bytes = w.buffer();
  persist::Reader r(std::move(bytes));
  r.expect_section("buffer");
  Buffer b;
  b.load(r);
  r.end_section();
  r.finish();
  return b;
}

TEST(Buffer, HasSpaceDoesNotWrapNearUint64Max) {
  // Regression: has_space compared `used_kb_ + size_kb <= capacity_kb_`,
  // which wraps for capacities near UINT64_MAX and admitted into a full
  // buffer.
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  const Buffer b = buffer_from_image(kMax, kMax - 1);
  EXPECT_FALSE(b.unbounded());
  EXPECT_TRUE(b.has_space(1));
  EXPECT_FALSE(b.has_space(2));  // wrapped to "fits" before the fix
  EXPECT_FALSE(b.has_space(std::numeric_limits<std::uint32_t>::max()));
}

TEST(Buffer, HasSpaceRejectsOverfullAccounting) {
  // used_kb beyond capacity (corrupt image): nothing fits, and the old
  // wrapping comparison must not resurrect space.
  const Buffer b = buffer_from_image(10, std::numeric_limits<std::uint64_t>::max());
  EXPECT_FALSE(b.has_space(1));
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
      ASSERT_TRUE(b.add(ids.back(), 1));
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
      removed.remove(ids[pos], 1);
      std::vector<PacketId> want = ids;
      want[pos] = want.back();
      want.pop_back();
      ASSERT_TRUE(std::equal(want.begin(), want.end(),
                             removed.packets().begin(),
                             removed.packets().end()))
          << "len " << len << " pos " << pos;
      EXPECT_EQ(removed.used_kb(), len - 1);
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
  const Buffer b = buffer_from_image(0, 3, {40, 7, 1000003});
  EXPECT_EQ(b.indexed_count(), 3u);
  EXPECT_EQ(b.index_of(40), 0u);
  EXPECT_EQ(b.index_of(7), 1u);
  EXPECT_EQ(b.index_of(1000003), 2u);
  EXPECT_FALSE(b.contains(8));
}

TEST(Buffer, LoadRefusesAnIdListNamingAPacketTwice) {
  // Only a checkpoint image can hold a duplicate; one store never
  // holds a packet twice, so the image is corrupt.
  EXPECT_THROW((void)buffer_from_image(0, 3, {5, 9, 5}),
               persist::FormatError);
  EXPECT_THROW((void)buffer_from_image(0, 1, {kNoPacket}),
               persist::FormatError);
}

TEST(BufferDeath, RemovingAbsentPacketRejected) {
  Buffer b(10);
  EXPECT_DEATH(b.remove(42, 1), "DTN_ASSERT");
}

TEST(BufferDeath, DoubleAddRejected) {
  Buffer b(10);
  ASSERT_TRUE(b.add(1, 1));
  EXPECT_DEATH((void)b.add(1, 1), "DTN_ASSERT");
  // append() skips no check: the index insert refuses the duplicate.
  EXPECT_DEATH(b.append(1, 1), "DTN_ASSERT");
}

}  // namespace
}  // namespace dtn::net
