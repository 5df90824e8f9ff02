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
// Storage is a flat per-context transition store (docs/routing-hot-path.md):
// packed context keys are interned to dense ids the moment a context
// forms, each context owns a contiguous array of successor counts plus
// an incrementally maintained argmax, and a dense successor index of
// the *current* context is refreshed on `record_visit`.  The query
// path — `predict()`, `probability_of()`, `next_distribution()` —
// therefore performs only array reads: the single hash lookup left in
// the class sits on the update path (context interning), never on a
// query.  Keys are exact (20 bits per landmark id, order <= 3), so
// distinct (context, successor) pairs can never alias.
#pragma once

#include <cstdint>
#include <vector>

#include "trace/trace.hpp"
#include "util/annotations.hpp"
#include "util/assert.hpp"

namespace dtn::sim {
class AuditReport;
}

namespace dtn::persist {
class Writer;
class Reader;
}  // namespace dtn::persist

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
    return context_.size() == order_ && current_ctx_ != kNoContext &&
           !successors_[current_ctx_].empty();
  }

  /// Most probable next landmark, or kNoLandmark when no prediction can
  /// be made.  Ties break toward the smaller landmark id (determinism).
  /// (`current_ctx_ == kNoContext` iff the context has never been full —
  /// one sentinel load instead of recomputing the context length.)
  [[nodiscard]] LandmarkId predict() const {
    if (current_ctx_ == kNoContext) return kNoLandmark;
    return best_successor_[current_ctx_];  // kNoLandmark until a successor
  }

  /// P(next = l | current context); 0 when no prediction can be made.
  [[nodiscard]] double probability_of(LandmarkId l) const {
    DTN_ASSERT(l < num_landmarks_);
    // Sentinel guard first: before any full context stamp_ is still 0
    // and would spuriously match the zero-initialized stamp array.
    if (current_ctx_ == kNoContext) return 0.0;
    if (successor_stamp_[l] != stamp_) return 0.0;  // l never followed c
    const SuccRow& succ = successors_[current_ctx_];
    return static_cast<double>(succ.count[successor_pos_[l]]) /
           static_cast<double>(context_count_[current_ctx_]);
  }

  /// Full conditional distribution over landmarks (all zeros when the
  /// context is unseen), written into `out` (resized to num_landmarks).
  /// Allocation-free once `out` has capacity — the router reuses one
  /// scratch buffer across calls.
  void next_distribution(std::vector<double>& out) const;

  /// Allocating convenience overload of the above.  TEST-ONLY: replay
  /// code must use the scratch-buffer overload (the semantic analyzer's
  /// `policy` check rejects this spelling in replay code — see
  /// docs/static-analysis.md).
  [[nodiscard]] std::vector<double> next_distribution() const;

  /// The landmark of the most recent visit (kNoLandmark before any).
  [[nodiscard]] LandmarkId current() const {
    return context_.empty() ? kNoLandmark : context_.back();
  }

  // -- checkpointing (src/persist/, docs/checkpointing.md) --------------
  /// Serialize the full flat store and query cache.  The hash map is
  /// *not* written (iterating it would be order-nondeterministic, see
  /// docs/static-analysis.md); the dense id -> packed key vector
  /// `context_keys_` carries the same information in insertion order.
  void save(persist::Writer& w) const;
  /// Restore into a predictor constructed with the same (num_landmarks,
  /// order); the hash map is rebuilt from the key vector.  Throws
  /// persist::FormatError on shape mismatches.
  void load(persist::Reader& r);

  // -- invariant auditing (debug tooling, see invariant_auditor.hpp) ----
  /// Re-derive every incrementally maintained structure from the flat
  /// store and compare: per-context argmax (count + smaller-id
  /// tie-break) vs best_successor_/best_count_, successor-row count
  /// sums vs N(c), row uniqueness, and the stamped dense index of the
  /// current context (both directions).
  void audit(sim::AuditReport& report) const;

  /// Test-only fault injection for the auditor's negative tests: skew
  /// the cached argmax of the first context that has successors (the
  /// bug class this simulates is a missed incremental argmax update).
  /// Returns false when no context has a successor yet.
  bool debug_corrupt_argmax_for_test();

 private:
  /// Successors observed after some context, with their (k+1)-gram
  /// counts N(c . l), in first-observation order.  Structure-of-arrays:
  /// `next_distribution` sweeps the contiguous count column in one plain
  /// loop (docs/routing-hot-path.md); checkpoints still serialize the
  /// row interleaved (landmark, count) pairwise, so the byte layout is
  /// unchanged from the array-of-structs era.
  struct SuccRow {
    std::vector<LandmarkId> landmark;
    std::vector<std::uint32_t> count;
    [[nodiscard]] std::size_t size() const { return landmark.size(); }
    [[nodiscard]] bool empty() const { return landmark.empty(); }
  };

  static constexpr std::uint32_t kNoContext = 0xffffffffu;

  /// Exact packed key of the current (full, length == order) context:
  /// 20 bits per landmark id, most recent in the low bits.  Injective
  /// for order <= 3 and ids < 2^20, so no two contexts share a key.
  [[nodiscard]] std::uint64_t context_key() const;

  /// Dense id for `key`, allocating flat-store rows on first sight.
  std::uint32_t intern_context(std::uint64_t key);

  /// Double the probe table and reinsert every key from the dense
  /// context_keys_ mirror.
  void probe_rehash(std::size_t capacity);

  /// Make `ctx` the current context: refresh the dense successor index
  /// used by the O(1) query path.
  void switch_context(std::uint32_t ctx);

  std::size_t num_landmarks_;
  std::size_t order_;
  std::size_t history_len_ = 0;
  /// Last `order` landmarks, oldest first.
  std::vector<LandmarkId> context_;

  // -- flat per-context transition store --------------------------------
  /// Packed context key -> dense context id: open-addressing
  /// linear-probe table (power-of-two capacity, all-ones empty
  /// sentinel — valid keys fit in 60 bits, 3 x 20-bit slots).  A flat
  /// table keeps the once-per-transit intern at ~one cache line
  /// instead of std::unordered_map's bucket chase.  Never serialized
  /// and never iterated (slot order is capacity-dependent);
  /// context_keys_ below mirrors the same information in the
  /// deterministic insertion order.  Touched only by `record_visit`
  /// (update path); queries never hash.
  DTN_CKPT_SKIP("probe table derived from context_keys_; load rebuilds it")
  std::vector<std::uint64_t> probe_keys_;
  DTN_CKPT_SKIP("probe table derived from context_keys_; load rebuilds it")
  std::vector<std::uint32_t> probe_ids_;
  /// Dense context id -> packed key (insertion order).  The
  /// deterministic mirror of the probe table, used by checkpointing.
  std::vector<std::uint64_t> context_keys_;
  /// N(c) per context id.
  std::vector<std::uint32_t> context_count_;
  /// Successor-count rows per context id (contiguous, first-seen order).
  std::vector<SuccRow> successors_;
  /// Incrementally maintained argmax per context id: the most frequent
  /// successor (ties toward the smaller landmark id) and its count.
  std::vector<LandmarkId> best_successor_;
  std::vector<std::uint32_t> best_count_;

  // -- current-context query cache --------------------------------------
  /// Dense id of the current context (kNoContext until one forms).
  std::uint32_t current_ctx_ = kNoContext;
  /// `successor_pos_[l]` is l's index in the current context's successor
  /// row, valid iff `successor_stamp_[l] == stamp_` (stamps avoid
  /// clearing the dense index on every context switch).
  std::uint64_t stamp_ = 0;
  std::vector<std::uint32_t> successor_pos_;
  std::vector<std::uint64_t> successor_stamp_;
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
