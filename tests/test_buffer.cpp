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
  Buffer::Column column;
  Buffer b(0, column);
  EXPECT_TRUE(b.unbounded());
  for (PacketId i = 0; i < 1000; ++i) {
    EXPECT_TRUE(b.add(i));
  }
  EXPECT_EQ(b.count(), 1000u);
}

TEST(Buffer, CapacityEnforced) {
  Buffer::Column column;
  Buffer b(2, column);
  EXPECT_TRUE(b.add(0));
  EXPECT_TRUE(b.add(1));
  EXPECT_FALSE(b.add(2));  // 2 of 2 kB used, no room
  EXPECT_EQ(b.count(), 2u);
}

TEST(Buffer, HasSpaceQuery) {
  Buffer::Column column;
  Buffer b(2, column);
  EXPECT_TRUE(b.has_space());
  ASSERT_TRUE(b.add(0));
  EXPECT_TRUE(b.has_space());
  ASSERT_TRUE(b.add(1));
  EXPECT_FALSE(b.has_space());
}

TEST(Buffer, RemoveFreesSpace) {
  Buffer::Column column;
  Buffer b(1, column);
  ASSERT_TRUE(b.add(7));
  EXPECT_FALSE(b.add(8));
  b.remove(7);
  EXPECT_EQ(b.count(), 0u);
  EXPECT_TRUE(b.add(8));
}

TEST(Buffer, ContainsTracksMembership) {
  Buffer::Column column;
  Buffer b(10, column);
  EXPECT_FALSE(b.contains(1));
  ASSERT_TRUE(b.add(1));
  EXPECT_TRUE(b.contains(1));
  b.remove(1);
  EXPECT_FALSE(b.contains(1));
}

TEST(Buffer, PacketsSpanReflectsContents) {
  Buffer::Column column;
  Buffer b(10, column);
  ASSERT_TRUE(b.add(3));
  ASSERT_TRUE(b.add(5));
  const auto span = b.packets();
  ASSERT_EQ(span.size(), 2u);
}

// Loads an image holding `ids` into a buffer of `capacity_kb` over
// `column` (such states can only enter through a checkpoint, which is
// exactly where adversarial values come from).  The column is sized as a
// network sizes it to its packet table: to cover every id in `ids` but
// kNoPacket.
Buffer buffer_from_image(Buffer::Column& column, std::uint64_t capacity_kb,
                         const std::vector<PacketId>& ids) {
  std::size_t table = 0;
  for (const PacketId pid : ids) {
    if (pid != kNoPacket) table = std::max<std::size_t>(table, pid + 1);
  }
  column.assign(table, Buffer::kAbsent);
  persist::Writer w;
  w.begin_section("buffer");
  w.u64(ids.size());
  for (const PacketId pid : ids) w.u32(pid);
  w.end_section();
  w.finish();
  auto bytes = w.buffer();
  persist::Reader r(std::move(bytes));
  r.expect_section("buffer");
  Buffer b(capacity_kb, column);
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
    Buffer::Column column;
    Buffer b = buffer_from_image(column, cap, {1, 2});
    EXPECT_FALSE(b.unbounded()) << cap;
    EXPECT_EQ(b.capacity_kb(), cap);
    EXPECT_TRUE(b.has_space()) << cap;
    EXPECT_TRUE(b.add(3)) << cap;
  }
}

TEST(Buffer, HasSpaceRejectsOverfullAccounting) {
  // An image that fills the capacity loads full: nothing more fits
  // until a packet leaves.  (An overfull image is refused at load.)
  Buffer::Column column;
  Buffer b = buffer_from_image(column, 2, {4, 5});
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
  Buffer::Column saved_column;
  Buffer saved(100, saved_column);
  ASSERT_TRUE(saved.add(3));
  persist::Writer w;
  w.begin_section("buffer");
  saved.save(w);
  w.end_section();
  w.finish();
  persist::Reader r(w.buffer());
  r.expect_section("buffer");
  Buffer::Column column(4, Buffer::kAbsent);
  Buffer b(2, column);
  b.load(r);
  r.end_section();
  r.finish();
  EXPECT_EQ(b.capacity_kb(), 2u);
  EXPECT_TRUE(b.contains(3));
  EXPECT_TRUE(b.has_space());
}

TEST(Buffer, LoadRefusesMorePacketsThanTheCapacity) {
  Buffer::Column column;
  EXPECT_NO_THROW((void)buffer_from_image(column, 2, {4, 5}));
  EXPECT_THROW((void)buffer_from_image(column, 2, {4, 5, 6}),
               persist::FormatError);
  EXPECT_NO_THROW((void)buffer_from_image(column, 0, {4, 5, 6}));
}

TEST(Buffer, IndexOfMatchesStdFindAfterEverySwapErase) {
  // Every position of every length up to 70 is removed once, from a
  // buffer built afresh over its own column.
  constexpr PacketId kAbsent = 999;
  for (std::size_t len = 0; len <= 70; ++len) {
    std::vector<PacketId> ids;
    for (std::size_t i = 0; i < len; ++i) {
      ids.push_back(static_cast<PacketId>(7 * i + 3));
    }
    const auto filled = [&ids](Buffer::Column& column) {
      Buffer b(0, column);
      for (const PacketId pid : ids) EXPECT_TRUE(b.add(pid));
      return b;
    };
    Buffer::Column column;
    const Buffer b = filled(column);
    EXPECT_EQ(b.index_of(kAbsent), len);
    EXPECT_FALSE(b.contains(kAbsent));
    EXPECT_FALSE(b.contains(kNoPacket));
    for (std::size_t pos = 0; pos < len; ++pos) {
      ASSERT_EQ(b.index_of(ids[pos]), pos) << "len " << len;
      EXPECT_TRUE(b.contains(ids[pos]));

      // remove() is a swap-erase at the found position, and the column
      // follows the moved id.
      Buffer::Column removed_column;
      Buffer removed = filled(removed_column);
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

TEST(Buffer, LoadRebuildsTheIndex) {
  Buffer::Column column;
  const Buffer b = buffer_from_image(column, 0, {40, 7, 100003});
  EXPECT_EQ(b.index_of(40), 0u);
  EXPECT_EQ(b.index_of(7), 1u);
  EXPECT_EQ(b.index_of(100003), 2u);
  EXPECT_FALSE(b.contains(8));
}

TEST(Buffer, LoadRefusesAnIdListNamingAPacketTwice) {
  // Only a checkpoint image can hold a duplicate; one store never
  // holds a packet twice, so the image is corrupt.
  Buffer::Column column;
  EXPECT_THROW((void)buffer_from_image(column, 0, {5, 9, 5}),
               persist::FormatError);
  EXPECT_THROW((void)buffer_from_image(column, 0, {kNoPacket}),
               persist::FormatError);
}

TEST(BufferDeath, RemovingAbsentPacketRejected) {
  Buffer::Column column;
  Buffer b(10, column);
  EXPECT_DEATH(b.remove(42), "DTN_ASSERT");
}

TEST(BufferDeath, DoubleAddRejected) {
  Buffer::Column column;
  Buffer b(10, column);
  ASSERT_TRUE(b.add(1));
  EXPECT_DEATH((void)b.add(1), "DTN_ASSERT");
  // append() skips no check: its column read refuses the duplicate.
  EXPECT_DEATH(b.append(1), "DTN_ASSERT");
}

}  // namespace
}  // namespace dtn::net
