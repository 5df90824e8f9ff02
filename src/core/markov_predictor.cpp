#include "core/markov_predictor.hpp"

#include <algorithm>
#include <string>

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

// Multiplicative (Fibonacci) mix; the high half decorrelates the
// low-entropy packed landmark ids before the power-of-two mask.
[[nodiscard]] inline std::size_t probe_index(std::uint64_t key) {
  return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ULL) >> 32);
}

// Move the argmax (best, best_count) to (l, count) when the count beats
// it or ties it with a smaller landmark id.
inline void raise_argmax(LandmarkId& best, std::uint32_t& best_count,
                         LandmarkId l, std::uint32_t count) {
  if (count > best_count || (count == best_count && l < best)) {
    best = l;
    best_count = count;
  }
}
}  // namespace

MarkovPredictor::Row::Row(const Row& other)
    : key(other.key),
      n(other.n),
      best(other.best),
      best_count(other.best_count),
      size_(other.size_) {
  if (spilled()) heap_ = {new Succ[other.heap_.capacity], other.heap_.capacity};
  const std::span<const Succ> from = other.succ();
  std::copy(from.begin(), from.end(), succ().begin());
}

MarkovPredictor::Row::Row(Row&& other) noexcept { take(other); }

MarkovPredictor::Row& MarkovPredictor::Row::operator=(Row other) noexcept {
  if (spilled()) delete[] heap_.data;
  take(other);
  return *this;
}

void MarkovPredictor::Row::take(Row& other) noexcept {
  key = other.key;
  n = other.n;
  best = other.best;
  best_count = other.best_count;
  size_ = other.size_;
  if (spilled()) {
    heap_ = other.heap_;
    other.size_ = 0;  // the heap array changed hands
  } else {
    std::copy_n(other.inline_.begin(), size_, inline_.begin());
  }
}

void MarkovPredictor::Row::grow() {
  const std::uint32_t capacity = 2 * (spilled() ? heap_.capacity : size_);
  auto* data = new Succ[capacity];
  std::copy_n(succ().begin(), size_, data);
  if (spilled()) delete[] heap_.data;
  heap_.data = data;
  heap_.capacity = capacity;
}

MarkovPredictor::MarkovPredictor(std::size_t num_landmarks, std::size_t order)
    : order_(order), num_landmarks_(num_landmarks) {
  DTN_ASSERT(order_ >= 1 && order_ <= 3);
  DTN_ASSERT(num_landmarks_ > 0 && num_landmarks_ < (1ULL << kSlotBits));
  probe_inline_.fill(Probe{kEmptyProbe, 0});
}

std::uint64_t MarkovPredictor::context_key() const {
  // Called only on a full context (length == order): exactly `order_`
  // 20-bit slots, injective — no tag needed, no aliasing possible.
  DTN_ASSERT(context_len_ == order_);
  std::uint64_t key = 0;
  for (std::size_t i = 0; i < order_; ++i) {
    key = (key << kSlotBits) |
          (static_cast<std::uint64_t>(context_[i]) & kSlotMask);
  }
  return key;
}

std::size_t MarkovPredictor::probe_slot(std::span<const Probe> table,
                                        std::uint64_t key) {
  const std::size_t mask = table.size() - 1;
  std::size_t i = probe_index(key) & mask;
  while (table[i].key != key && table[i].key != kEmptyProbe) {
    i = (i + 1) & mask;
  }
  return i;
}

std::uint32_t MarkovPredictor::intern_context(std::uint64_t key) {
  DTN_ASSERT(key != kEmptyProbe);
  const std::span<Probe> table = probes();
  Probe& slot = table[probe_slot(table, key)];
  if (slot.key == key) return slot.id;
  const auto id = static_cast<std::uint32_t>(rows_.size());
  slot = Probe{key, id};
  rows_.emplace_back(key);
  // Grow at 1/2 load: linear probing stays ~2 slot reads per miss.
  if (2 * rows_.size() >= table.size()) probe_rehash(2 * table.size());
  return id;
}

void MarkovPredictor::probe_rehash(std::size_t capacity) {
  DTN_ASSERT((capacity & (capacity - 1)) == 0 && capacity > kInlineProbes &&
             capacity > 2 * rows_.size());
  probe_heap_.assign(capacity, Probe{kEmptyProbe, 0});
  for (std::uint32_t id = 0; id < rows_.size(); ++id) {
    probe_heap_[probe_slot(probe_heap_, rows_[id].key)] =
        Probe{rows_[id].key, id};
  }
}

void MarkovPredictor::record_visit(LandmarkId l) {
  DTN_ASSERT(l < num_landmarks_);
  if (context_len_ != 0 && context_[context_len_ - 1] == l) {
    return;  // not a transit
  }
  if (context_len_ == order_) {
    // A full context precedes l: count the (k+1)-gram c.l in the
    // outgoing context's row.
    Row& row = rows_[current_ctx_];
    const std::span<Succ> succ = row.succ();
    const auto it = std::find_if(
        succ.begin(), succ.end(),
        [l](const Succ& s) { return s.landmark == l; });
    Succ& s = it != succ.end() ? *it : row.append(l);
    // Maintain the argmax incrementally.  Counts only ever grow by one,
    // so "new count beats the best, or ties it with a smaller id" keeps
    // `best` equal to the full-scan argmax at all times.
    raise_argmax(row.best, row.best_count, l, ++s.count);
    std::copy(context_.begin() + 1, context_.begin() + order_,
              context_.begin());
    context_[order_ - 1] = l;
  } else {
    context_[context_len_++] = l;
  }
  ++history_len_;
  // Count the context as a substring occurrence the moment it forms —
  // eqs. (2)-(3) count *all* occurrences of the k-subsequence in L,
  // including the trailing one (so conditional probabilities over a
  // just-formed context sum to (N(c)-1)/N(c), as in the Song et al.
  // predictor the paper adopts).  The bumped history length retires the
  // query index.
  if (context_len_ == order_) {
    current_ctx_ = intern_context(context_key());
    ++rows_[current_ctx_].n;
  }
}

void MarkovPredictor::build_index() const {
  if (index_prob_.empty()) index_prob_.assign(num_landmarks_, 0.0);
  if (indexed_ctx_ != kNoContext) {
    for (const Succ& s : rows_[indexed_ctx_].succ()) {
      index_prob_[s.landmark] = 0.0;
    }
  }
  if (current_ctx_ != kNoContext) {
    const Row& row = rows_[current_ctx_];
    const auto total = static_cast<double>(row.n);
    for (const Succ& s : row.succ()) {
      index_prob_[s.landmark] = static_cast<double>(s.count) / total;
    }
  }
  indexed_ctx_ = current_ctx_;
  indexed_at_ = history_len_;
}

void MarkovPredictor::next_distribution(std::vector<double>& out) const {
  out.assign(num_landmarks_, 0.0);
  if (current_ctx_ == kNoContext) return;
  const Row& row = rows_[current_ctx_];
  const auto total = static_cast<double>(row.n);
  for (const Succ& s : row.succ()) {
    out[s.landmark] = static_cast<double>(s.count) / total;
  }
}

std::string MarkovPredictor::row_defect(const Row& row,
                                        std::vector<std::uint8_t>& seen) const {
  // N(c) counts every occurrence of the context, including trailing
  // ones not (yet) followed by a successor, so the row can sum to at
  // most N(c) and a counted context must have been seen.
  if (row.n == 0) return "N(c) == 0";
  std::string defect;
  std::uint64_t sum = 0;
  for (const Succ& s : row.succ()) {
    const char* what =
        s.landmark >= num_landmarks_ ? "out-of-range successor landmark "
        : seen[s.landmark]++ != 0    ? "duplicate successor "
        : s.count == 0               ? "zero count for successor "
                                     : nullptr;
    if (what != nullptr) {
      defect = what + std::to_string(s.landmark);
      break;
    }
    sum += s.count;
  }
  for (const Succ& s : row.succ()) {
    if (s.landmark < num_landmarks_) seen[s.landmark] = 0;
  }
  if (defect.empty() && sum > row.n) {
    defect = "successor counts (" + std::to_string(sum) + ") exceed N(c) (" +
             std::to_string(row.n) + ")";
  }
  return defect;
}

void MarkovPredictor::audit(sim::AuditReport& report) const {
  const std::size_t contexts = rows_.size();
  const std::span<const Probe> table = probes();
  const auto occupied = static_cast<std::size_t>(
      std::count_if(table.begin(), table.end(),
                    [](const Probe& p) { return p.key != kEmptyProbe; }));
  if (occupied != contexts) {
    report.fail("probe table holds " + std::to_string(occupied) +
                " keys for " + std::to_string(contexts) + " contexts");
    return;
  }
  std::vector<std::uint8_t> seen(num_landmarks_);
  for (std::uint32_t id = 0; id < contexts; ++id) {
    const Row& row = rows_[id];
    const std::string ctx = "context " + std::to_string(id);
    // Every key must resolve to its own id through the probe table (the
    // bug class: a rehash or insert that desynchronizes the two).
    const Probe& slot = table[probe_slot(table, row.key)];
    if (slot.key != row.key || slot.id != id) {
      report.fail(ctx + ": key does not resolve to its id");
    }
    if (const std::string defect = row_defect(row, seen); !defect.empty()) {
      report.fail(ctx + ": " + defect);
      continue;
    }
    // Full-scan argmax with the same tie-break the hot path maintains
    // incrementally; the two must agree at all times.
    LandmarkId best = kNoLandmark;
    std::uint32_t best_count = 0;
    for (const Succ& s : row.succ()) {
      raise_argmax(best, best_count, s.landmark, s.count);
    }
    if (best != row.best || best_count != row.best_count) {
      report.fail(ctx + ": cached argmax (landmark " +
                  std::to_string(row.best) + ", count " +
                  std::to_string(row.best_count) +
                  ") disagrees with full row scan (landmark " +
                  std::to_string(best) + ", count " +
                  std::to_string(best_count) + ")");
    }
  }
  if (current_ctx_ != kNoContext &&
      (current_ctx_ >= contexts || context_len_ != order_ ||
       rows_[current_ctx_].key != context_key())) {
    report.fail("current context id does not match the context");
    return;
  }
  if (indexed_at_ != history_len_) return;  // no index built since the switch
  std::vector<double> dist;
  next_distribution(dist);
  if (dist != index_prob_) {
    report.fail("query index disagrees with the current row");
  }
}

bool MarkovPredictor::debug_corrupt_argmax_for_test() {
  for (Row& row : rows_) {
    if (row.succ().empty()) continue;
    ++row.best_count;  // a count the row cannot justify
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
