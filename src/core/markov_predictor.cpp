#include "core/markov_predictor.hpp"

#include <algorithm>
#include <string>

#include "persist/serializer.hpp"
#include "sim/invariant_auditor.hpp"
#include "util/assert.hpp"

namespace dtn::core {

namespace {
// 20 bits per landmark id allows 3 context slots in 64 bits.
constexpr std::uint64_t kSlotBits = 20;
constexpr std::uint64_t kSlotMask = (1ULL << kSlotBits) - 1;

// Probe-table empty slot: valid packed keys occupy at most 60 bits
// (order <= 3), so all-ones can never collide with one.
constexpr std::uint64_t kEmptyProbe = ~0ULL;
constexpr std::size_t kInitialProbeCap = 64;

// Multiplicative (Fibonacci) mix; the high half decorrelates the
// low-entropy packed landmark ids before the power-of-two mask.
[[nodiscard]] inline std::size_t probe_index(std::uint64_t key) {
  return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ULL) >> 32);
}
}  // namespace

MarkovPredictor::MarkovPredictor(std::size_t num_landmarks, std::size_t order)
    : num_landmarks_(num_landmarks),
      order_(order),
      successor_pos_(num_landmarks, 0),
      successor_stamp_(num_landmarks, 0) {
  DTN_ASSERT(order_ >= 1 && order_ <= 3);
  DTN_ASSERT(num_landmarks_ > 0 && num_landmarks_ < (1ULL << kSlotBits));
  context_.reserve(order_ + 1);
  probe_keys_.assign(kInitialProbeCap, kEmptyProbe);
  probe_ids_.assign(kInitialProbeCap, 0);
  // Stamp 0 marks "never seen"; real stamps start at 1.
  stamp_ = 0;
}

std::uint64_t MarkovPredictor::context_key() const {
  // Called only on a full context (length == order): exactly `order_`
  // 20-bit slots, injective — no tag needed, no aliasing possible.
  DTN_ASSERT(context_.size() == order_);
  std::uint64_t key = 0;
  for (const LandmarkId l : context_) {
    key = (key << kSlotBits) | (static_cast<std::uint64_t>(l) & kSlotMask);
  }
  return key;
}

std::uint32_t MarkovPredictor::intern_context(std::uint64_t key) {
  DTN_ASSERT(key != kEmptyProbe);
  const std::size_t mask = probe_keys_.size() - 1;
  std::size_t i = probe_index(key) & mask;
  while (probe_keys_[i] != key) {
    if (probe_keys_[i] == kEmptyProbe) {
      const auto id = static_cast<std::uint32_t>(context_count_.size());
      probe_keys_[i] = key;
      probe_ids_[i] = id;
      context_keys_.push_back(key);
      context_count_.push_back(0);
      successors_.emplace_back();
      best_successor_.push_back(kNoLandmark);
      best_count_.push_back(0);
      // Grow at 1/2 load: linear probing stays ~2 slot reads per miss.
      if (2 * context_keys_.size() >= probe_keys_.size()) {
        probe_rehash(2 * probe_keys_.size());
      }
      return id;
    }
    i = (i + 1) & mask;
  }
  return probe_ids_[i];
}

void MarkovPredictor::probe_rehash(std::size_t capacity) {
  DTN_ASSERT((capacity & (capacity - 1)) == 0 &&
             capacity >= 2 * context_keys_.size());
  probe_keys_.assign(capacity, kEmptyProbe);
  probe_ids_.assign(capacity, 0);
  const std::size_t mask = capacity - 1;
  for (std::uint32_t id = 0; id < context_keys_.size(); ++id) {
    std::size_t i = probe_index(context_keys_[id]) & mask;
    while (probe_keys_[i] != kEmptyProbe) i = (i + 1) & mask;
    probe_keys_[i] = context_keys_[id];
    probe_ids_[i] = id;
  }
}

void MarkovPredictor::switch_context(std::uint32_t ctx) {
  current_ctx_ = ctx;
  ++stamp_;
  const SuccRow& succ = successors_[ctx];
  for (std::uint32_t i = 0; i < succ.size(); ++i) {
    successor_pos_[succ.landmark[i]] = i;
    successor_stamp_[succ.landmark[i]] = stamp_;
  }
}

void MarkovPredictor::record_visit(LandmarkId l) {
  DTN_ASSERT(l < num_landmarks_);
  if (!context_.empty() && context_.back() == l) return;  // not a transit
  if (context_.size() == order_) {
    // A full context precedes l: count the (k+1)-gram c.l in the
    // current context's contiguous successor row.
    DTN_ASSERT(current_ctx_ != kNoContext);
    SuccRow& succ = successors_[current_ctx_];
    std::uint32_t pos;
    if (successor_stamp_[l] == stamp_) {
      pos = successor_pos_[l];
    } else {
      pos = static_cast<std::uint32_t>(succ.size());
      succ.landmark.push_back(l);
      succ.count.push_back(0);
      successor_pos_[l] = pos;
      successor_stamp_[l] = stamp_;
    }
    const std::uint32_t count = ++succ.count[pos];
    // Maintain the argmax incrementally.  Counts only ever grow by one,
    // so "new count beats the best, or ties it with a smaller id" keeps
    // best_successor_ equal to the full-scan argmax with
    // smaller-id tie-breaking at all times.
    if (count > best_count_[current_ctx_] ||
        (count == best_count_[current_ctx_] &&
         l < best_successor_[current_ctx_])) {
      best_count_[current_ctx_] = count;
      best_successor_[current_ctx_] = l;
    }
  }
  context_.push_back(l);
  if (context_.size() > order_) context_.erase(context_.begin());
  ++history_len_;
  // Count the context as a substring occurrence the moment it forms —
  // eqs. (2)-(3) count *all* occurrences of the k-subsequence in L,
  // including the trailing one (so conditional probabilities over a
  // just-formed context sum to (N(c)-1)/N(c), as in the Song et al.
  // predictor the paper adopts).
  if (context_.size() == order_) {
    const std::uint32_t ctx = intern_context(context_key());
    ++context_count_[ctx];
    switch_context(ctx);
  }
}

void MarkovPredictor::next_distribution(std::vector<double>& out) const {
  out.assign(num_landmarks_, 0.0);
  if (context_.size() < order_) return;
  const SuccRow& succ = successors_[current_ctx_];
  const auto total = static_cast<double>(context_count_[current_ctx_]);
  const std::size_t n = succ.size();
  for (std::size_t i = 0; i < n; ++i) {
    out[succ.landmark[i]] = static_cast<double>(succ.count[i]) / total;
  }
}

std::vector<double> MarkovPredictor::next_distribution() const {
  std::vector<double> dist;
  next_distribution(dist);
  return dist;
}

void MarkovPredictor::save(persist::Writer& w) const {
  w.u64(num_landmarks_);
  w.u64(order_);
  w.u64(history_len_);
  w.u64(context_.size());
  for (const LandmarkId l : context_) w.u32(l);
  w.u64(context_keys_.size());
  for (const std::uint64_t k : context_keys_) w.u64(k);
  for (const std::uint32_t c : context_count_) w.u32(c);
  for (const SuccRow& row : successors_) {
    // Interleaved (landmark, count) pairs: the SoA split must not change
    // the checkpoint byte layout.
    w.u64(row.size());
    for (std::size_t i = 0; i < row.size(); ++i) {
      w.u32(row.landmark[i]);
      w.u32(row.count[i]);
    }
  }
  for (const LandmarkId l : best_successor_) w.u32(l);
  for (const std::uint32_t c : best_count_) w.u32(c);
  w.u32(current_ctx_);
  w.u64(stamp_);
  for (const std::uint32_t p : successor_pos_) w.u32(p);
  for (const std::uint64_t s : successor_stamp_) w.u64(s);
}

void MarkovPredictor::load(persist::Reader& r) {
  if (r.u64() != num_landmarks_ || r.u64() != order_) {
    throw persist::FormatError(
        "checkpoint predictor shape (num_landmarks, order) mismatch");
  }
  history_len_ = static_cast<std::size_t>(r.u64());
  context_.resize(static_cast<std::size_t>(r.u64()));
  if (context_.size() > order_) {
    throw persist::FormatError("checkpoint predictor context too long");
  }
  for (LandmarkId& l : context_) l = r.u32();
  const auto contexts = static_cast<std::size_t>(r.u64());
  context_keys_.resize(contexts);
  for (std::uint64_t& k : context_keys_) k = r.u64();
  context_count_.resize(contexts);
  for (std::uint32_t& c : context_count_) c = r.u32();
  successors_.assign(contexts, {});
  for (SuccRow& row : successors_) {
    const auto len = static_cast<std::size_t>(r.u64());
    row.landmark.resize(len);
    row.count.resize(len);
    for (std::size_t i = 0; i < len; ++i) {
      row.landmark[i] = r.u32();
      row.count[i] = r.u32();
    }
  }
  best_successor_.resize(contexts);
  for (LandmarkId& l : best_successor_) l = r.u32();
  best_count_.resize(contexts);
  for (std::uint32_t& c : best_count_) c = r.u32();
  current_ctx_ = r.u32();
  stamp_ = r.u64();
  successor_pos_.resize(num_landmarks_);
  for (std::uint32_t& p : successor_pos_) p = r.u32();
  successor_stamp_.resize(num_landmarks_);
  for (std::uint64_t& s : successor_stamp_) s = r.u64();
  if (current_ctx_ != kNoContext && current_ctx_ >= contexts) {
    throw persist::FormatError("checkpoint predictor current context id out of range");
  }
  // Rebuild the (deliberately unserialized) probe table from the dense
  // key vector; duplicate or over-wide keys mean a corrupt image (a
  // valid key has exactly `order_` 20-bit slots, so it can never equal
  // the empty-slot sentinel either).
  std::size_t capacity = kInitialProbeCap;
  while (capacity < 2 * (contexts + 1)) capacity *= 2;
  probe_keys_.assign(capacity, kEmptyProbe);
  probe_ids_.assign(capacity, 0);
  const std::size_t mask = capacity - 1;
  for (std::uint32_t id = 0; id < contexts; ++id) {
    const std::uint64_t key = context_keys_[id];
    if ((key >> (kSlotBits * order_)) != 0) {  // shift <= 60, well-defined
      throw persist::FormatError("checkpoint predictor context key out of range");
    }
    std::size_t i = probe_index(key) & mask;
    while (probe_keys_[i] != kEmptyProbe) {
      if (probe_keys_[i] == key) {
        throw persist::FormatError("checkpoint predictor has duplicate context keys");
      }
      i = (i + 1) & mask;
    }
    probe_keys_[i] = key;
    probe_ids_[i] = id;
  }
}

void MarkovPredictor::audit(sim::AuditReport& report) const {
  const std::size_t contexts = context_count_.size();
  std::size_t probe_occupied = 0;
  for (const std::uint64_t k : probe_keys_) {
    if (k != kEmptyProbe) ++probe_occupied;
  }
  if (successors_.size() != contexts || best_successor_.size() != contexts ||
      best_count_.size() != contexts || probe_occupied != contexts) {
    report.fail("flat-store arrays disagree in size (contexts=" +
                std::to_string(contexts) + ")");
    return;
  }
  // Every dense key must resolve to its own id through the probe table
  // (the bug class: a rehash or insert that desynchronizes the mirror).
  const std::size_t probe_mask = probe_keys_.size() - 1;
  for (std::uint32_t id = 0; id < contexts; ++id) {
    std::size_t i = probe_index(context_keys_[id]) & probe_mask;
    while (probe_keys_[i] != context_keys_[id]) {
      if (probe_keys_[i] == kEmptyProbe) break;
      i = (i + 1) & probe_mask;
    }
    if (probe_keys_[i] != context_keys_[id] || probe_ids_[i] != id) {
      report.fail("context key " + std::to_string(context_keys_[id]) +
                  " does not resolve to dense id " + std::to_string(id) +
                  " through the probe table");
      return;
    }
  }
  std::vector<std::uint8_t> seen(num_landmarks_, 0);
  for (std::size_t ctx = 0; ctx < contexts; ++ctx) {
    const SuccRow& row = successors_[ctx];
    if (row.landmark.size() != row.count.size()) {
      report.fail("context " + std::to_string(ctx) +
                  ": SoA successor columns disagree in length (" +
                  std::to_string(row.landmark.size()) + " landmarks vs " +
                  std::to_string(row.count.size()) + " counts)");
      continue;
    }
    // Full-scan argmax with the same tie-break the hot path maintains
    // incrementally; the two must agree at all times.
    LandmarkId best = kNoLandmark;
    std::uint32_t best_count = 0;
    std::uint64_t row_sum = 0;
    std::fill(seen.begin(), seen.end(), std::uint8_t{0});
    for (std::size_t i = 0; i < row.size(); ++i) {
      const LandmarkId lm = row.landmark[i];
      const std::uint32_t cnt = row.count[i];
      if (lm >= num_landmarks_) {
        report.fail("context " + std::to_string(ctx) +
                    ": successor landmark out of range");
        continue;
      }
      if (seen[lm] != 0) {
        report.fail("context " + std::to_string(ctx) +
                    ": duplicate successor row entry for landmark " +
                    std::to_string(lm));
      }
      seen[lm] = 1;
      if (cnt == 0) {
        report.fail("context " + std::to_string(ctx) +
                    ": zero-count successor row entry for landmark " +
                    std::to_string(lm));
      }
      row_sum += cnt;
      if (cnt > best_count || (cnt == best_count && lm < best)) {
        best = lm;
        best_count = cnt;
      }
    }
    if (best != best_successor_[ctx] || best_count != best_count_[ctx]) {
      report.fail("context " + std::to_string(ctx) +
                  ": cached argmax (landmark " +
                  std::to_string(best_successor_[ctx]) + ", count " +
                  std::to_string(best_count_[ctx]) +
                  ") disagrees with full row scan (landmark " +
                  std::to_string(best) + ", count " +
                  std::to_string(best_count) + ")");
    }
    // N(c) counts every occurrence of the context, including trailing
    // ones not (yet) followed by a successor, so the row can sum to at
    // most N(c) and a counted context must have been seen.
    if (context_count_[ctx] == 0) {
      report.fail("context " + std::to_string(ctx) + ": N(c) == 0");
    }
    if (row_sum > context_count_[ctx]) {
      report.fail("context " + std::to_string(ctx) + ": successor counts (" +
                  std::to_string(row_sum) + ") exceed N(c) (" +
                  std::to_string(context_count_[ctx]) + ")");
    }
  }
  // Dense successor index of the current context, both directions.
  if (current_ctx_ != kNoContext) {
    if (current_ctx_ >= contexts) {
      report.fail("current context id out of range");
      return;
    }
    const SuccRow& row = successors_[current_ctx_];
    for (std::size_t i = 0; i < row.size(); ++i) {
      const LandmarkId l = row.landmark[i];
      if (successor_stamp_[l] != stamp_ || successor_pos_[l] != i) {
        report.fail("dense index stale for successor landmark " +
                    std::to_string(l) + " of the current context");
      }
    }
    for (LandmarkId l = 0; l < num_landmarks_; ++l) {
      if (successor_stamp_[l] != stamp_) continue;
      if (successor_pos_[l] >= row.size() ||
          row.landmark[successor_pos_[l]] != l) {
        report.fail("dense index points landmark " + std::to_string(l) +
                    " at the wrong successor row slot");
      }
    }
  }
}

bool MarkovPredictor::debug_corrupt_argmax_for_test() {
  for (std::size_t ctx = 0; ctx < successors_.size(); ++ctx) {
    if (successors_[ctx].empty()) continue;
    ++best_count_[ctx];  // a count the row cannot justify
    return true;
  }
  return false;
}

PredictionScore score_sequence(std::size_t num_landmarks, std::size_t order,
                               const std::vector<LandmarkId>& sequence) {
  MarkovPredictor predictor(num_landmarks, order);
  PredictionScore score;
  for (const LandmarkId l : sequence) {
    if (predictor.current() == l) continue;
    const LandmarkId guess = predictor.predict();
    if (guess != kNoLandmark) {
      ++score.predictions;
      if (guess == l) ++score.correct;
    }
    predictor.record_visit(l);
  }
  return score;
}

std::vector<LandmarkId> visiting_sequence(std::span<const trace::Visit> visits) {
  std::vector<LandmarkId> seq;
  seq.reserve(visits.size());
  for (const auto& v : visits) {
    if (seq.empty() || seq.back() != v.landmark) seq.push_back(v.landmark);
  }
  return seq;
}

}  // namespace dtn::core
