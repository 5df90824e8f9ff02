// Finite packet buffer of a mobile node (landmark stations are
// modelled as unbounded per §V-A.1: "the memory of the landmark was not
// limited").
//
// The id list keeps swap-erase order (the order routers observe); an
// exact id -> position index beside it makes contains(), index_of() and
// remove() O(1), so a transfer costs the same into a 300-packet station
// as into an empty node.
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
  /// Capacity in kB, i.e. in packets (every packet is 1 kB); 0 means
  /// unbounded.
  explicit Buffer(std::uint64_t capacity_kb = 0) : capacity_kb_(capacity_kb) {}

  [[nodiscard]] std::uint64_t capacity_kb() const { return capacity_kb_; }
  [[nodiscard]] bool unbounded() const { return capacity_kb_ == 0; }
  [[nodiscard]] bool has_space() const {
    return unbounded() || packets_.size() < capacity_kb_;
  }
  [[nodiscard]] std::size_t count() const { return packets_.size(); }
  [[nodiscard]] bool empty() const { return packets_.empty(); }
  [[nodiscard]] std::span<const PacketId> packets() const { return packets_; }
  [[nodiscard]] bool contains(PacketId pid) const {
    return index_.find(pid) != SlotIndex::kAbsent;
  }
  /// Position of `pid` in the id list, or count() when absent (lets
  /// BundleStore keep a metadata slab parallel to the id list).
  [[nodiscard]] std::size_t index_of(PacketId pid) const {
    const std::uint32_t slot = index_.find(pid);
    return slot == SlotIndex::kAbsent ? packets_.size() : slot;
  }
  /// Ids the index holds; equals count() unless the index is corrupt
  /// (BundleStore::audit cross-checks the two).
  [[nodiscard]] std::size_t indexed_count() const { return index_.size(); }

  /// Insert; returns false (and leaves the buffer unchanged) when full.
  /// Inserting an id the buffer already holds aborts.
  [[nodiscard]] bool add(PacketId pid);
  /// Insert into a buffer with space.  The index insert aborts on an id
  /// the buffer already holds, so callers need no check of their own.
  void append(PacketId pid);

  /// Remove a packet that must be present.
  void remove(PacketId pid);
  /// Remove by known position (swap-erase).
  void remove_at(std::size_t i);

  // -- checkpointing (src/persist/, docs/checkpointing.md) --------------
  /// The id list is stored in order: TTL sweeps and crash flushes
  /// iterate it.  The index is not stored: load rebuilds it and refuses
  /// an id list that names a packet twice or overfills the capacity.
  void save(persist::Writer& w) const;
  void load(persist::Reader& r);

  /// Test-only: re-point the first id's index entry by `delta` slots
  /// (the bug class: a swap-erase renumbered the moved id wrong).
  void debug_corrupt_index_for_test(int delta);

 private:
  /// Exact id -> position map: open addressing with linear probing,
  /// Fibonacci hashing, backward-shift erase (no tombstones), and a
  /// power-of-two table at most half full.  An empty buffer owns no
  /// table.
  class SlotIndex {
   public:
    static constexpr std::uint32_t kAbsent = static_cast<std::uint32_t>(-1);

    [[nodiscard]] std::size_t size() const { return size_; }
    /// Position of `pid`, or kAbsent.
    [[nodiscard]] std::uint32_t find(PacketId pid) const {
      if (size_ == 0) return kAbsent;
      for (std::size_t i = home(pid);; i = (i + 1) & mask()) {
        // Empty cells hold {kNoPacket, kAbsent}, so a miss (and a
        // lookup of kNoPacket itself) ends on kAbsent.
        if (cells_[i].pid == pid || cells_[i].pid == kNoPacket) {
          return cells_[i].slot;
        }
      }
    }
    /// Adds `pid` at `slot`; aborts when `pid` is already present.
    void insert(PacketId pid, std::uint32_t slot);
    /// Re-points a present `pid` to `slot`.
    void move(PacketId pid, std::uint32_t slot);
    /// Drops a present `pid`.
    void erase(PacketId pid);

   private:
    struct Cell {
      PacketId pid = kNoPacket;
      std::uint32_t slot = kAbsent;
    };
    [[nodiscard]] std::size_t mask() const { return cells_.size() - 1; }
    [[nodiscard]] std::size_t home(PacketId pid) const {
      return static_cast<std::uint32_t>(pid * 0x9E3779B9u) >> shift_;
    }
    /// Cell holding a present `pid`.
    [[nodiscard]] std::size_t cell_of(PacketId pid) const;
    void grow();

    std::vector<Cell> cells_;
    std::size_t size_ = 0;
    /// 32 - log2(cells_.size()): home() keeps the hash's top bits.
    unsigned shift_ = 32;
  };

  template <class Ar>
  void fields(Ar& ar);

  DTN_CKPT_SKIP("configuration, pinned by the config fingerprint")
  std::uint64_t capacity_kb_;
  std::vector<PacketId> packets_;
  DTN_CKPT_SKIP("derived: load rebuilds it from the id list")
  SlotIndex index_;
};

}  // namespace dtn::net
