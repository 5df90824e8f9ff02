#include "net/buffer.hpp"

#include <string>

#include "persist/serializer.hpp"
#include "util/assert.hpp"

namespace dtn::net {

bool Buffer::add(PacketId pid) {
  if (!has_space()) return false;
  append(pid);
  return true;
}

void Buffer::append(PacketId pid) {
  DTN_ASSERT(has_space());
  DTN_ASSERT(pid != kNoPacket);
  Column& column = *column_;
  if (pid >= column.size()) column.resize(std::size_t{pid} + 1, kAbsent);
  // The always-on duplicate-admission check: one store never holds a
  // packet twice.
  DTN_ASSERT(!contains(pid) && "buffer: packet already present");
  column[pid] = static_cast<std::uint32_t>(packets_.size());
  packets_.push_back(pid);
}

void Buffer::remove(PacketId pid) {
  const std::size_t i = index_of(pid);
  DTN_ASSERT(i != packets_.size() && "buffer: packet not present");
  remove_at(i);
}

void Buffer::remove_at(std::size_t i) {
  DTN_ASSERT(i < packets_.size());
  // Swap-erase: buffer order is not meaningful; routers that need a
  // priority order sort a copy.
  if (i + 1 != packets_.size()) {
    packets_[i] = packets_.back();
    (*column_)[packets_[i]] = static_cast<std::uint32_t>(i);
  }
  packets_.pop_back();
}

void Buffer::debug_corrupt_index_for_test(int delta) {
  DTN_ASSERT(!packets_.empty());
  std::uint32_t& at = (*column_)[packets_.front()];
  at = static_cast<std::uint32_t>(static_cast<std::int64_t>(at) + delta);
}

template <class Ar>
void Buffer::fields(Ar& ar) {
  ar.vec("buffer packets", packets_);
  if constexpr (Ar::loading) {
    ar.check(unbounded() || packets_.size() <= capacity_kb_,
             "buffer holds more packets than its capacity");
    Column& column = *column_;
    for (std::size_t i = 0; i < packets_.size(); ++i) {
      const PacketId pid = packets_[i];
      ar.check(pid < column.size(), "buffer packet out of range");
      if (const std::uint32_t at = column[pid]; at != kAbsent) {
        ar.check(at >= i || packets_[at] != pid,
                 "buffer holds a packet id twice");
        Ar::fail("packet " + std::to_string(pid) + " is held by two stores");
      }
      column[pid] = static_cast<std::uint32_t>(i);
    }
  }
}

void Buffer::save(persist::Writer& w) const {
  const_cast<Buffer*>(this)->fields(w);
}

void Buffer::load(persist::Reader& r) { fields(r); }

}  // namespace dtn::net
