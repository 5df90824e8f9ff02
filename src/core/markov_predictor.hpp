// Order-k Markov predictor over landmark visiting sequences (§IV-B).
//
// A node's movement is the sequence of landmarks it visits,
// L = l(1) l(2) ... (consecutive duplicates collapse — revisiting the
// same landmark is not a transit).  The order-k predictor estimates
//
//   P(next = l | context c) = N(c . l) / N(c)            (eqs. 1-3)
//
// where c is the last k landmarks and N counts occurrences of the
// subsequence in the history so far.  `predict()` returns the argmax;
// when the context has never been seen there is no prediction, which is
// how the paper's accuracy metric treats it (predictions / correct
// predictions are only counted when a prediction is made).
//
// Storage is laid out for update cost (docs/routing-hot-path.md): the
// router records every inter-landmark transit but queries only when a
// landmark has a packet to hand over.  Packed context keys are interned
// to dense ids the moment a context forms; each id owns one `Row` —
// N(c), its (landmark, count) successors in first-seen order and an
// incrementally maintained argmax.  `record_visit` scans the outgoing
// context's row and keeps no query index; `predict()` reads the cached
// argmax, and `probability_of()` reads a dense landmark -> probability
// index of the current row that the first query after a context switch
// builds.  Keys are exact (20 bits per landmark id, order <= 3), so
// distinct (context, successor) pairs can never alias.
//
// A small model lives in the predictor object itself: the key -> id
// probe table starts in inline slots and each row keeps its first few
// successors inline, so the cold-start transits that dominate a short
// trace touch the node's own lines and the rows array.  A table or row
// that outgrows its inline capacity moves to one heap array.  No member
// points into the object, so a predictor copies and moves freely.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "trace/trace.hpp"
#include "util/assert.hpp"

namespace dtn::sim {
class AuditReport;
}

namespace dtn::core {

using trace::LandmarkId;
using trace::kNoLandmark;

class MarkovPredictor {
 public:
  /// `order` in [1, 3] (the paper evaluates k = 1..3); `num_landmarks`
  /// bounds the id space so contexts pack into 64 bits.
  MarkovPredictor(std::size_t num_landmarks, std::size_t order);

  /// Record the next visited landmark.  Consecutive duplicates are
  /// ignored (same-landmark re-association is not a transit).
  void record_visit(LandmarkId l);

  [[nodiscard]] std::size_t order() const { return order_; }
  [[nodiscard]] std::size_t num_landmarks() const { return num_landmarks_; }
  /// Length of the collapsed visiting sequence so far.
  [[nodiscard]] std::size_t history_length() const { return history_len_; }

  // The four query entry points below are defined in-class: the replay
  // hot loop calls them once per (carrier, destination) pair, so the
  // call itself must inline down to a handful of array reads
  // (docs/routing-hot-path.md).

  /// True when the current context has been seen before (a prediction
  /// can be made).
  [[nodiscard]] bool can_predict() const {
    return current_ctx_ != kNoContext && !rows_[current_ctx_].succ().empty();
  }

  /// Most probable next landmark, or kNoLandmark when no prediction can
  /// be made.  Ties break toward the smaller landmark id (determinism).
  /// (`current_ctx_ == kNoContext` iff the context has never been full.)
  [[nodiscard]] LandmarkId predict() const {
    if (current_ctx_ == kNoContext) return kNoLandmark;
    return rows_[current_ctx_].best;  // kNoLandmark until a successor
  }

  /// P(next = l | current context); 0 when no prediction can be made.
  [[nodiscard]] double probability_of(LandmarkId l) const {
    DTN_ASSERT(l < num_landmarks_);
    if (indexed_at_ != history_len_) build_index();
    return index_prob_[l];
  }

  /// Full conditional distribution over landmarks (all zeros when the
  /// context is unseen), written into `out` (resized to num_landmarks).
  /// Allocation-free once `out` has capacity — the router reuses one
  /// scratch buffer across calls.
  void next_distribution(std::vector<double>& out) const;

  /// The landmark of the most recent visit (kNoLandmark before any).
  [[nodiscard]] LandmarkId current() const {
    return context_len_ == 0 ? kNoLandmark : context_[context_len_ - 1];
  }

  // -- invariant auditing (debug tooling, see invariant_auditor.hpp) ----
  /// Re-derive every incrementally maintained structure from the rows
  /// and compare: per-context argmax (count + smaller-id tie-break),
  /// successor-count sums vs N(c), row uniqueness, the probe table, the
  /// current context id and, when built, the query index (against
  /// `next_distribution`).
  void audit(sim::AuditReport& report) const;

  /// Test-only fault injection for the auditor's negative tests: skew
  /// the cached argmax of the first context that has successors (the
  /// bug class this simulates is a missed incremental argmax update).
  /// Returns false when no context has a successor yet.
  bool debug_corrupt_argmax_for_test();

 private:
  /// A successor observed after some context, with its (k+1)-gram count
  /// N(c . l).
  struct Succ {
    LandmarkId landmark;
    std::uint32_t count;
  };

  /// Successors a row stores inline: three keep a row at the 48 bytes of
  /// the former vector-backed one.  With them and the inline probe
  /// slots, a perfbench city replay makes 14.7K heap allocations
  /// instead of 43.9K.
  static constexpr std::uint32_t kInlineSuccs = 3;

  /// Everything known about one context: its packed key, N(c), the
  /// successors in first-seen order, and the argmax over them (the most
  /// frequent successor, ties toward the smaller landmark id).  The
  /// first kInlineSuccs successors sit inline; the next one moves them
  /// all to one heap array the row owns (capacity doubling).
  class Row {
   public:
    explicit Row(std::uint64_t k) : key(k) {}
    Row(const Row& other);
    Row(Row&& other) noexcept;
    Row& operator=(Row other) noexcept;
    ~Row() {
      if (spilled()) delete[] heap_.data;
    }

    [[nodiscard]] std::span<Succ> succ() {
      return {spilled() ? heap_.data : inline_.data(), size_};
    }
    [[nodiscard]] std::span<const Succ> succ() const {
      return {spilled() ? heap_.data : inline_.data(), size_};
    }
    /// Append successor `l` with count 0 and return it.
    Succ& append(LandmarkId l) {
      if (size_ < kInlineSuccs) {
        inline_[size_] = Succ{l, 0};
        return inline_[size_++];
      }
      if (size_ == kInlineSuccs || size_ == heap_.capacity) grow();
      heap_.data[size_] = Succ{l, 0};
      return heap_.data[size_++];
    }

    std::uint64_t key = 0;
    std::uint32_t n = 0;
    LandmarkId best = kNoLandmark;
    std::uint32_t best_count = 0;

   private:
    /// Sizes only grow, so a row past its inline capacity is on the heap.
    [[nodiscard]] bool spilled() const { return size_ > kInlineSuccs; }
    /// Move the successors to a heap array of twice the current capacity.
    void grow();
    /// Adopt `other`'s fields and storage, leaving it empty.
    void take(Row& other) noexcept;

    std::uint32_t size_ = 0;
    union {
      std::array<Succ, kInlineSuccs> inline_{};
      struct {
        Succ* data;
        std::uint32_t capacity;
      } heap_;
    };
  };
  static_assert(sizeof(Row) == 48, "three inline successors: 48-byte rows");

  /// One probe-table slot: packed key -> dense context id.
  struct Probe {
    std::uint64_t key;
    std::uint32_t id;
  };

  static constexpr std::uint32_t kNoContext = 0xffffffffu;

  /// Probe slots stored inline; the table moves to the heap when the
  /// ½-load rule grows it past them, i.e. at the 16th context.  Against
  /// 16 inline slots, 32 replayed perfbench city ~3% faster (seed 1,
  /// 6 alternating 5 s runs, shared 4-vCPU host) with campus unchanged.
  static constexpr std::size_t kInlineProbes = 32;

  /// Exact packed key of the current (full, length == order) context:
  /// 20 bits per landmark id, most recent in the low bits.  Injective
  /// for order <= 3 and ids < 2^20, so no two contexts share a key.
  [[nodiscard]] std::uint64_t context_key() const;

  /// The live probe table: the inline slots until the first spill.
  [[nodiscard]] std::span<Probe> probes() {
    return probe_heap_.empty() ? std::span<Probe>(probe_inline_)
                               : std::span<Probe>(probe_heap_);
  }
  [[nodiscard]] std::span<const Probe> probes() const {
    return probe_heap_.empty() ? std::span<const Probe>(probe_inline_)
                               : std::span<const Probe>(probe_heap_);
  }

  /// Slot holding `key`, or the empty slot where it would go.
  [[nodiscard]] static std::size_t probe_slot(std::span<const Probe> table,
                                              std::uint64_t key);

  /// Dense id for `key`, appending a row on first sight.
  std::uint32_t intern_context(std::uint64_t key);

  /// Move the probe table to a heap array of `capacity` slots and
  /// reinsert every row's key.
  void probe_rehash(std::size_t capacity);

  /// Index the current row: clear the previously indexed row's entries,
  /// write N(c . l) / N(c) for each successor l (cold path of
  /// `probability_of`; allocates the index on first use).
  void build_index() const;

  /// First defect of `row` as a message (successor landmark out of
  /// range, duplicate successor, zero count, N(c) == 0, counts above
  /// N(c)), or "" when sound.  `seen` is num_landmarks zeros, left zeroed.
  [[nodiscard]] std::string row_defect(const Row& row,
                                       std::vector<std::uint8_t>& seen) const;

  // -- read by every transit: ahead of the inline probe slots -----------
  /// Per dense context id, in first-formed order.
  std::vector<Row> rows_;
  std::size_t history_len_ = 0;
  /// Last `context_len_` (<= order) landmarks, oldest first.
  std::array<LandmarkId, 3> context_{};
  /// Dense id of the current context (kNoContext until one forms).
  std::uint32_t current_ctx_ = kNoContext;
  std::size_t context_len_ = 0;
  std::size_t order_;
  /// The probe table once it outgrows `probe_inline_`; empty before.
  std::vector<Probe> probe_heap_;
  std::size_t num_landmarks_;

  // -- on-demand query index of the current row -------------------------
  static constexpr std::size_t kNotIndexed = ~std::size_t{0};
  /// `index_prob_[l]` is P(next = l) in row `indexed_ctx_` (all zeros
  /// for kNoContext), built at history length `indexed_at_`.  Every
  /// transit bumps the history, so the index is current iff
  /// `indexed_at_ == history_len_`; rows change only when left and only
  /// grow, so clearing the old row's successors zeroes the index.
  mutable std::size_t indexed_at_ = kNotIndexed;
  mutable std::uint32_t indexed_ctx_ = kNoContext;
  mutable std::vector<double> index_prob_;

  /// Packed key -> dense id: open-addressing linear-probe table
  /// (power-of-two capacity, all-ones empty sentinel — valid keys fit in
  /// 60 bits), probed on the update path only, never by a query.  These
  /// slots hold it until it grows past them; they go stale after.
  std::array<Probe, kInlineProbes> probe_inline_{};
};

/// Measured per-node prediction accuracy over a visiting sequence:
/// feeds each visit in turn, comparing the predictor's output with the
/// realized next landmark.  Returns (correct, predicted) counts —
/// the paper's Fig. 6 accuracy is correct/predicted.
struct PredictionScore {
  std::size_t correct = 0;
  std::size_t predictions = 0;
  [[nodiscard]] double accuracy() const {
    return predictions == 0 ? 0.0
                            : static_cast<double>(correct) /
                                  static_cast<double>(predictions);
  }
};

[[nodiscard]] PredictionScore score_sequence(
    std::size_t num_landmarks, std::size_t order,
    const std::vector<LandmarkId>& sequence);

/// Collapse a node's visit records into its landmark visiting sequence.
[[nodiscard]] std::vector<LandmarkId> visiting_sequence(
    std::span<const trace::Visit> visits);

}  // namespace dtn::core
