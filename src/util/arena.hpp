// Bump/arena allocator for replay-loop scratch churn
// (docs/simd-hot-path.md).
//
// The replay loop used to allocate short-lived vectors on every router
// hook (offer queues, route-delay scratch, upload lists, batch visit
// buffers).  An Arena hands out pointers from a chain of reusable
// blocks with a single pointer bump; `reset()` rewinds the whole chain
// in O(blocks) without releasing memory, so steady-state replay does
// zero heap traffic for scratch.
//
// Lifetime rule (enforced by convention, audited by byte accounting):
// arena-backed containers are reset at *top-level hook entry* and must
// not outlive the hook that allocated them.  Hooks never nest — the
// engine calls exactly one router hook at a time — so a router owns one
// Arena and resets it as it enters a hook.
//
// Determinism: an Arena never influences replay decisions — it only
// changes where scratch bytes live.  All accounting is derived from
// allocation sizes, never from pointer values, so audit output is
// stable across runs and ASLR.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "util/assert.hpp"

namespace dtn {

class Arena {
 public:
  explicit Arena(std::size_t block_bytes = 64 * 1024)
      : block_bytes_(block_bytes == 0 ? 1 : block_bytes) {}

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Bump-allocate `bytes` with `align` alignment.  Oversized requests
  /// get a dedicated block; alignment must be a power of two.
  [[nodiscard]] void* allocate(std::size_t bytes, std::size_t align) {
    // Blocks come from operator new[], so anything up to max_align_t is
    // satisfiable with block-relative offsets alone.
    DTN_ASSERT(align != 0 && (align & (align - 1)) == 0 &&
               align <= alignof(std::max_align_t));
    if (bytes == 0) bytes = 1;
    if (cur_ < blocks_.size()) {
      Block& b = blocks_[cur_];
      const std::size_t off = align_up(b.used, align);
      if (off + bytes <= b.cap) {
        const std::size_t delta = off + bytes - b.used;
        b.used = off + bytes;
        return bump_finish(b, off, delta);
      }
    }
    return allocate_slow(bytes, align);
  }

  /// Rewind every block; capacity is retained for reuse.
  void reset() {
    for (Block& b : blocks_) b.used = 0;
    cur_ = 0;
    bytes_in_use_ = 0;
    ++resets_;
  }

  // -- auditor-visible byte accounting --------------------------------
  /// Live scratch bytes since the last reset (incrementally maintained;
  /// `check` cross-verifies it against the per-block sums).
  [[nodiscard]] std::size_t bytes_in_use() const { return bytes_in_use_; }
  /// Total capacity currently held across the block chain.
  [[nodiscard]] std::size_t bytes_reserved() const {
    std::size_t total = 0;
    for (const Block& b : blocks_) total += b.cap;
    return total;
  }
  /// Largest bytes_in_use observed over the arena's lifetime.
  [[nodiscard]] std::size_t high_water() const { return high_water_; }
  [[nodiscard]] std::size_t blocks() const { return blocks_.size(); }
  [[nodiscard]] std::uint64_t resets() const { return resets_; }
  [[nodiscard]] std::uint64_t allocations() const { return allocations_; }

  /// Consistency audit: the incremental byte counter must equal the sum
  /// of per-block used counts, every block must satisfy used <= cap,
  /// and the bump cursor must stay inside the chain.  Returns false and
  /// fills `why` on the first violation.
  [[nodiscard]] bool check(std::string* why) const {
    std::size_t sum = 0;
    for (std::size_t i = 0; i < blocks_.size(); ++i) {
      const Block& b = blocks_[i];
      if (b.used > b.cap) {
        if (why != nullptr) {
          *why = "arena block " + std::to_string(i) + " used " +
                 std::to_string(b.used) + " > cap " + std::to_string(b.cap);
        }
        return false;
      }
      sum += b.used;
    }
    if (cur_ > blocks_.size()) {
      if (why != nullptr) *why = "arena bump cursor past end of block chain";
      return false;
    }
    if (sum != bytes_in_use_) {
      if (why != nullptr) {
        *why = "arena byte accounting drifted: blocks sum to " +
               std::to_string(sum) + " but counter says " +
               std::to_string(bytes_in_use_);
      }
      return false;
    }
    return true;
  }

  /// Corrupt the incremental counter so auditor negatives can verify
  /// the accounting check actually fires.  Test-only.
  void debug_corrupt_accounting_for_test() { bytes_in_use_ += 1; }

 private:
  struct Block {
    std::unique_ptr<std::byte[]> data;
    std::size_t cap = 0;
    std::size_t used = 0;
  };

  static std::size_t align_up(std::size_t n, std::size_t align) {
    return (n + align - 1) & ~(align - 1);
  }

  void* bump_finish(Block& b, std::size_t off, std::size_t delta) {
    // b.used was already advanced by the caller; `delta` is how far the
    // cursor moved (payload + alignment padding), so the incremental
    // counter stays exactly equal to the per-block used sums that
    // check() recomputes.
    bytes_in_use_ += delta;
    if (bytes_in_use_ > high_water_) high_water_ = bytes_in_use_;
    ++allocations_;
    return b.data.get() + off;
  }

  void* allocate_slow(std::size_t bytes, std::size_t align) {
    // Find (or grow to) a block that fits; oversized requests get a
    // block of their own so block_bytes_ stays a steady-state bound.
    const std::size_t need = bytes + align - 1;
    while (true) {
      if (cur_ == blocks_.size()) {
        Block b;
        b.cap = need > block_bytes_ ? need : block_bytes_;
        b.data = std::make_unique<std::byte[]>(b.cap);
        blocks_.push_back(std::move(b));
      }
      Block& b = blocks_[cur_];
      const std::size_t off = align_up(b.used, align);
      if (off + bytes <= b.cap) {
        const std::size_t delta = off + bytes - b.used;
        b.used = off + bytes;
        return bump_finish(b, off, delta);
      }
      ++cur_;  // current block exhausted; move down the chain
    }
  }

  std::size_t block_bytes_;
  std::vector<Block> blocks_;
  std::size_t cur_ = 0;
  std::size_t bytes_in_use_ = 0;
  std::size_t high_water_ = 0;
  std::uint64_t resets_ = 0;
  std::uint64_t allocations_ = 0;
};

/// Standard-allocator adapter so std containers can live in an Arena.
/// Deallocation is a no-op — memory is reclaimed wholesale by reset().
template <typename T>
class ArenaAllocator {
 public:
  using value_type = T;

  explicit ArenaAllocator(Arena& arena) : arena_(&arena) {}
  template <typename U>
  ArenaAllocator(const ArenaAllocator<U>& other)  // NOLINT(google-explicit-constructor)
      : arena_(other.arena()) {}

  [[nodiscard]] T* allocate(std::size_t n) {
    return static_cast<T*>(arena_->allocate(n * sizeof(T), alignof(T)));
  }
  void deallocate(T*, std::size_t) {}  // reclaimed by Arena::reset()

  [[nodiscard]] Arena* arena() const { return arena_; }

  template <typename U>
  [[nodiscard]] bool operator==(const ArenaAllocator<U>& o) const {
    return arena_ == o.arena();
  }

 private:
  Arena* arena_;
};

template <typename T>
using ArenaVector = std::vector<T, ArenaAllocator<T>>;

}  // namespace dtn
