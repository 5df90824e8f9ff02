// Finite packet buffer of a mobile node (landmark stations are
// modelled as unbounded per §V-A.1: "the memory of the landmark was not
// limited").
//
// The id list keeps swap-erase order (the order routers observe).  A
// packet's position in it lives in a position column indexed by packet
// id, which every store of one network shares: packets are single-copy,
// so each id sits in at most one store at a time, and one network-wide
// column makes contains(), index_of() and remove() a column read plus a
// check that the id list holds the id there.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "net/packet.hpp"
#include "util/annotations.hpp"

namespace dtn::persist {
class Writer;
class Reader;
}  // namespace dtn::persist

namespace dtn::net {

class Buffer {
 public:
  /// Packet id -> position in the id list of the store holding it.  An
  /// entry is meaningful only where that store's id list holds the id at
  /// that position; a store grows the column to cover every id it
  /// appends, and a load expects the ids it lists to be kAbsent.
  using Column = std::vector<std::uint32_t>;
  static constexpr std::uint32_t kAbsent = static_cast<std::uint32_t>(-1);

  /// A buffer without a column: only a configured one (below) holds
  /// packets.
  Buffer() = default;
  /// Capacity in kB, i.e. in packets (every packet is 1 kB); 0 means
  /// unbounded.  `column` must outlive the buffer.
  Buffer(std::uint64_t capacity_kb, Column& column)
      : capacity_kb_(capacity_kb), column_(&column) {}

  [[nodiscard]] std::uint64_t capacity_kb() const { return capacity_kb_; }
  [[nodiscard]] bool unbounded() const { return capacity_kb_ == 0; }
  [[nodiscard]] bool has_space() const {
    return unbounded() || packets_.size() < capacity_kb_;
  }
  [[nodiscard]] std::size_t count() const { return packets_.size(); }
  [[nodiscard]] bool empty() const { return packets_.empty(); }
  [[nodiscard]] std::span<const PacketId> packets() const { return packets_; }
  [[nodiscard]] bool contains(PacketId pid) const {
    return index_of(pid) != packets_.size();
  }
  /// Position of `pid` in the id list, or count() when absent (lets
  /// BundleStore keep a metadata slab parallel to the id list).
  [[nodiscard]] std::size_t index_of(PacketId pid) const {
    if (pid < column_->size()) {
      const std::uint32_t at = (*column_)[pid];
      if (at < packets_.size() && packets_[at] == pid) return at;
    }
    return packets_.size();
  }

  /// Insert; returns false (and leaves the buffer unchanged) when full.
  /// Inserting an id the buffer already holds aborts.
  [[nodiscard]] bool add(PacketId pid);
  /// Insert into a buffer with space.  Aborts on an id the buffer
  /// already holds, so callers need no check of their own.
  void append(PacketId pid);

  /// Remove a packet that must be present.
  void remove(PacketId pid);
  /// Remove by known position (swap-erase).  Only the id moved into the
  /// hole gets a column write, so a transfer that admitted the removed
  /// id elsewhere first keeps that store's entry.
  void remove_at(std::size_t i);

  // -- checkpointing (src/persist/, docs/checkpointing.md) --------------
  /// The id list is stored in order: TTL sweeps and crash flushes
  /// iterate it.  The column is not stored: load writes each listed
  /// id's position and refuses an id outside the column, an id list
  /// that overfills the capacity, and an id the column already places
  /// (named twice in this list, or held by a store loaded before).
  void save(persist::Writer& w) const;
  void load(persist::Reader& r);

  /// Test-only: re-point the first id's column entry by `delta` slots
  /// (the bug class: a swap-erase renumbered the moved id wrong).
  void debug_corrupt_index_for_test(int delta);

 private:
  template <class Ar>
  void fields(Ar& ar);

  DTN_CKPT_SKIP("configuration, pinned by the config fingerprint")
  std::uint64_t capacity_kb_ = 0;
  std::vector<PacketId> packets_;
  DTN_CKPT_SKIP("shared with every store; load writes this store's ids")
  Column* column_ = nullptr;
};

}  // namespace dtn::net
