#include "trace/cursor.hpp"

#include <bit>
#include <cmath>
#include <limits>
#include <string>
#include <utility>

#include "persist/serializer.hpp"

namespace dtn::trace {

namespace {

// 11-bit digits: six passes, and the 48 KiB of histograms stay in
// cache and cost little to clear on every sort.
constexpr int kDigitBits = 11;
constexpr std::size_t kBuckets = std::size_t{1} << kDigitBits;
constexpr int kDigits = (64 + kDigitBits - 1) / kDigitBits;

[[nodiscard]] inline std::size_t digit(std::uint64_t key, int d) {
  return static_cast<std::size_t>(key >> (d * kDigitBits)) & (kBuckets - 1);
}

/// Stable LSD radix sort by `time_bits`, 11 bits per pass.  A pass
/// whose digit every key shares cannot move anything and is skipped
/// (e.g. the low digit of whole-second times).
template <class T>
void stable_radix_sort(std::vector<T>& items) {
  const std::size_t n = items.size();
  if (n < 2) return;
  DTN_ASSERT(n <= std::numeric_limits<std::uint32_t>::max());
  std::vector<std::uint32_t> slots(kDigits * kBuckets, 0);
  for (const T& it : items) {
    for (int d = 0; d < kDigits; ++d) {
      ++slots[d * kBuckets + digit(it.time_bits, d)];
    }
  }
  std::vector<T> buffer;
  for (int d = 0; d < kDigits; ++d) {
    std::uint32_t* slot = &slots[d * kBuckets];
    if (slot[digit(items.front().time_bits, d)] == n) continue;
    std::uint32_t sum = 0;  // counts -> first output slot per bucket
    for (std::size_t b = 0; b < kBuckets; ++b) {
      const std::uint32_t count = slot[b];
      slot[b] = sum;
      sum += count;
    }
    buffer.resize(n);
    for (const T& it : items) buffer[slot[digit(it.time_bits, d)]++] = it;
    items.swap(buffer);
  }
}

}  // namespace

ReplayOrder build_replay_order(const Trace& trace) {
  DTN_ASSERT(trace.finalized());
  const std::size_t n = trace.num_nodes();
  ReplayOrder order;
  auto& entries = order.entries;
  order.seq_base.resize(n + 1);
  entries.reserve(2 * trace.total_visits());
  // Listed in seq order, so the stable sort breaks time ties by seq.
  for (std::size_t i = 0; i < n; ++i) {
    const auto node = static_cast<NodeId>(i);
    order.seq_base[i] = entries.size();
    const auto add = [&entries, node](std::uint32_t index, double t) {
      DTN_ASSERT(t >= 0.0 && !std::signbit(t));  // the key order needs it
      entries.push_back({std::bit_cast<std::uint64_t>(t), node, index});
    };
    const auto visits = trace.visits(node);
    for (std::uint32_t v = 0; v < visits.size(); ++v) {
      add(2 * v, visits[v].start);
      add(2 * v + 1, visits[v].end);
    }
  }
  order.seq_base[n] = entries.size();
  stable_radix_sort(entries);
  return order;
}

TraceCursor::TraceCursor(const Trace& trace)
    : order_(trace.replay_order()),
      entries_(order_->entries),
      seq_base_(order_->seq_base),
      pos_(trace.num_nodes(), 0) {
  if (!exhausted()) materialize();
}

template <class Ar>
void TraceCursor::fields(Ar& ar) {
  ar.expect("cursor node count", pos_.size());
  std::vector<std::uint32_t> pos = pos_;
  for (std::size_t i = 0; i < pos.size(); ++i) {
    ar.index("cursor position", pos[i], seq_base_[i + 1] - seq_base_[i] + 1);
  }
  if constexpr (Ar::loading) {
    // A consistent image is a prefix of the replay order: among its
    // first `done` events, each node owns exactly its saved position.
    std::size_t done = 0;
    for (const std::uint32_t p : pos) done += p;
    std::vector<std::uint32_t> seen(pos.size(), 0);
    for (std::size_t k = 0; k < done; ++k) ++seen[entries_[k].node];
    ar.check(seen == pos,
             "cursor positions are no prefix of the trace's replay order");
    pos_ = std::move(pos);
    next_ = done;
    if (!exhausted()) materialize();
  }
}

void TraceCursor::save(persist::Writer& w) const {
  const_cast<TraceCursor*>(this)->fields(w);
}

void TraceCursor::load(persist::Reader& r) { fields(r); }

}  // namespace dtn::trace
