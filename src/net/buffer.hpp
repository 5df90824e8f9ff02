// Finite packet buffer of a mobile node (landmark stations are
// modelled as unbounded per §V-A.1: "the memory of the landmark was not
// limited").
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "net/packet.hpp"

namespace dtn::persist {
class Writer;
class Reader;
}  // namespace dtn::persist

namespace dtn::net {

class Buffer {
 public:
  /// capacity_kb == 0 means unbounded.
  explicit Buffer(std::uint64_t capacity_kb = 0) : capacity_kb_(capacity_kb) {}

  [[nodiscard]] std::uint64_t capacity_kb() const { return capacity_kb_; }
  [[nodiscard]] std::uint64_t used_kb() const { return used_kb_; }
  [[nodiscard]] bool unbounded() const { return capacity_kb_ == 0; }
  [[nodiscard]] bool has_space(std::uint32_t size_kb) const {
    // Compare by subtraction: `used_kb_ + size_kb` can wrap for
    // adversarial capacities near UINT64_MAX (e.g. loaded from a
    // hostile checkpoint), which would admit into a full buffer.
    return unbounded() ||
           (used_kb_ <= capacity_kb_ && size_kb <= capacity_kb_ - used_kb_);
  }
  [[nodiscard]] std::size_t count() const { return packets_.size(); }
  [[nodiscard]] bool empty() const { return packets_.empty(); }
  [[nodiscard]] std::span<const PacketId> packets() const { return packets_; }
  [[nodiscard]] bool contains(PacketId pid) const;
  /// Position of `pid` in the id list, or count() when absent (lets
  /// BundleStore keep a metadata slab parallel to the id list).
  [[nodiscard]] std::size_t index_of(PacketId pid) const;

  /// Insert; returns false (and leaves the buffer unchanged) on overflow.
  [[nodiscard]] bool add(PacketId pid, std::uint32_t size_kb);
  /// Insert a packet that fits and that the caller has already checked
  /// is absent, skipping add()'s duplicate scan (BundleStore runs its
  /// own check over memory and spill).
  void append(PacketId pid, std::uint32_t size_kb);

  /// Remove a packet that must be present.
  void remove(PacketId pid, std::uint32_t size_kb);
  /// Remove by known position (swap-erase), skipping the membership scan.
  void remove_at(std::size_t i, std::uint32_t size_kb);

  // -- checkpointing (src/persist/, docs/checkpointing.md) --------------
  /// The id list is stored in order: TTL sweeps and crash flushes
  /// iterate it.
  void save(persist::Writer& w) const;
  void load(persist::Reader& r);

  /// Test-only fault injection for the invariant auditor's negative
  /// tests: skew the byte accounting without touching the id list (the
  /// bug class this simulates is a transfer that accounted the wrong
  /// packet size).
  void debug_corrupt_used_kb_for_test(int delta) {
    used_kb_ = static_cast<std::uint64_t>(
        static_cast<std::int64_t>(used_kb_) + delta);
  }

 private:
  template <class Ar>
  void fields(Ar& ar);

  std::uint64_t capacity_kb_;
  std::uint64_t used_kb_ = 0;
  std::vector<PacketId> packets_;
};

}  // namespace dtn::net
