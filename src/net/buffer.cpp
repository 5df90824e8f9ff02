#include "net/buffer.hpp"

#include <bit>

#include "persist/serializer.hpp"
#include "util/assert.hpp"

namespace dtn::net {

// -- SlotIndex ---------------------------------------------------------

std::size_t Buffer::SlotIndex::cell_of(PacketId pid) const {
  DTN_ASSERT(size_ != 0);
  for (std::size_t i = home(pid);; i = (i + 1) & mask()) {
    if (cells_[i].pid == pid) return i;
    DTN_ASSERT(cells_[i].pid != kNoPacket && "index: packet not present");
  }
}

void Buffer::SlotIndex::insert(PacketId pid, std::uint32_t slot) {
  DTN_ASSERT(pid != kNoPacket);
  if (2 * (size_ + 1) > cells_.size()) grow();
  std::size_t i = home(pid);
  for (; cells_[i].pid != kNoPacket; i = (i + 1) & mask()) {
    // The always-on duplicate-admission check: one store never holds
    // a packet twice.
    DTN_ASSERT(cells_[i].pid != pid && "index: packet already present");
  }
  cells_[i] = Cell{pid, slot};
  ++size_;
}

void Buffer::SlotIndex::move(PacketId pid, std::uint32_t slot) {
  cells_[cell_of(pid)].slot = slot;
}

void Buffer::SlotIndex::erase(PacketId pid) {
  std::size_t hole = cell_of(pid);
  // Backward shift: pull each later cell of the probe run into the hole
  // unless its home lies cyclically after the hole, so every remaining
  // id stays reachable from its home without tombstones.
  for (std::size_t j = (hole + 1) & mask(); cells_[j].pid != kNoPacket;
       j = (j + 1) & mask()) {
    const std::size_t from_home = (j - home(cells_[j].pid)) & mask();
    if (from_home >= ((j - hole) & mask())) {
      cells_[hole] = cells_[j];
      hole = j;
    }
  }
  cells_[hole] = Cell{};
  --size_;
}

void Buffer::SlotIndex::grow() {
  std::vector<Cell> old = std::move(cells_);
  const std::size_t capacity = old.empty() ? 16 : 2 * old.size();
  cells_.assign(capacity, Cell{});
  shift_ = 32 - static_cast<unsigned>(std::countr_zero(capacity));
  size_ = 0;
  for (const Cell& c : old) {
    if (c.pid != kNoPacket) insert(c.pid, c.slot);
  }
}

// -- Buffer ------------------------------------------------------------

bool Buffer::add(PacketId pid) {
  if (!has_space()) return false;
  append(pid);
  return true;
}

void Buffer::append(PacketId pid) {
  DTN_ASSERT(has_space());
  index_.insert(pid, static_cast<std::uint32_t>(packets_.size()));
  packets_.push_back(pid);
}

void Buffer::remove(PacketId pid) { remove_at(index_of(pid)); }

void Buffer::remove_at(std::size_t i) {
  DTN_ASSERT(i < packets_.size());
  // Swap-erase: buffer order is not meaningful; routers that need a
  // priority order sort a copy.
  index_.erase(packets_[i]);
  if (i + 1 != packets_.size()) {
    packets_[i] = packets_.back();
    index_.move(packets_[i], static_cast<std::uint32_t>(i));
  }
  packets_.pop_back();
}

void Buffer::debug_corrupt_index_for_test(int delta) {
  DTN_ASSERT(!packets_.empty());
  const PacketId first = packets_.front();
  index_.move(first, static_cast<std::uint32_t>(
                         static_cast<std::int64_t>(index_.find(first)) + delta));
}

template <class Ar>
void Buffer::fields(Ar& ar) {
  ar.vec("buffer packets", packets_);
  if constexpr (Ar::loading) {
    ar.check(unbounded() || packets_.size() <= capacity_kb_,
             "buffer holds more packets than its capacity");
    index_ = {};
    for (std::size_t i = 0; i < packets_.size(); ++i) {
      ar.check(packets_[i] != kNoPacket &&
                   index_.find(packets_[i]) == SlotIndex::kAbsent,
               "buffer holds a packet id twice");
      index_.insert(packets_[i], static_cast<std::uint32_t>(i));
    }
  }
}

void Buffer::save(persist::Writer& w) const {
  const_cast<Buffer*>(this)->fields(w);
}

void Buffer::load(persist::Reader& r) { fields(r); }

}  // namespace dtn::net
