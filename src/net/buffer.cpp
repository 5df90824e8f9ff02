#include "net/buffer.hpp"

#include <cstring>

#include "persist/serializer.hpp"

namespace dtn::net {

namespace {

// Index of the first `needle` in p[0, n), or n when absent: exactly what
// std::find returns.  add() runs this scan too (the duplicate-id assert
// is always on), so it is the whole cost of BM_BufferAddRemove.  The GNU
// vector path compares 16 ids per step and, on a hit, rescans that step
// in order, so the first match wins just as in the scalar tail.
std::size_t find_id(const PacketId* p, std::size_t n, PacketId needle) {
  std::size_t i = 0;
#if defined(__GNUC__)
  using V = std::uint32_t __attribute__((vector_size(16)));
  using Wide = std::int64_t __attribute__((vector_size(16)));
  const V want = {needle, needle, needle, needle};
  const auto eq = [p, want](std::size_t at) {
    V v;
    std::memcpy(&v, p + at, sizeof v);
    return v == want;
  };
  // Reduce a compare mask through 64-bit lanes: half the lane extracts.
  const auto any = [](auto m) {
    const Wide w = reinterpret_cast<Wide>(m);
    return (w[0] | w[1]) != 0;
  };
  for (; i + 16 <= n; i += 16) {
    if (!any((eq(i) | eq(i + 4)) | (eq(i + 8) | eq(i + 12)))) continue;
    for (std::size_t j = i; j < i + 16; ++j) {
      if (p[j] == needle) return j;
    }
  }
  for (; i + 4 <= n; i += 4) {
    if (any(eq(i))) break;
  }
#endif
  for (; i < n; ++i) {
    if (p[i] == needle) return i;
  }
  return n;
}

}  // namespace

bool Buffer::contains(PacketId pid) const {
  return find_id(packets_.data(), packets_.size(), pid) != packets_.size();
}

std::size_t Buffer::index_of(PacketId pid) const {
  return find_id(packets_.data(), packets_.size(), pid);
}

bool Buffer::add(PacketId pid, std::uint32_t size_kb) {
  if (!has_space(size_kb)) return false;
  DTN_ASSERT(!contains(pid));
  append(pid, size_kb);
  return true;
}

void Buffer::append(PacketId pid, std::uint32_t size_kb) {
  DTN_ASSERT(has_space(size_kb));
  packets_.push_back(pid);
  used_kb_ += size_kb;
}

void Buffer::remove(PacketId pid, std::uint32_t size_kb) {
  remove_at(find_id(packets_.data(), packets_.size(), pid), size_kb);
}

void Buffer::remove_at(std::size_t i, std::uint32_t size_kb) {
  DTN_ASSERT(i < packets_.size());
  // Swap-erase: buffer order is not meaningful; routers that need a
  // priority order sort a copy.
  packets_[i] = packets_.back();
  packets_.pop_back();
  DTN_ASSERT(used_kb_ >= size_kb);
  used_kb_ -= size_kb;
}

template <class Ar>
void Buffer::fields(Ar& ar) {
  ar.value("buffer capacity", capacity_kb_);
  ar.value("buffer used", used_kb_);
  ar.vec("buffer packets", packets_);
}

void Buffer::save(persist::Writer& w) const {
  const_cast<Buffer*>(this)->fields(w);
}

void Buffer::load(persist::Reader& r) { fields(r); }

}  // namespace dtn::net
