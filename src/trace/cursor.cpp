#include "trace/cursor.hpp"

#include <algorithm>
#include <bit>
#include <string>

#include "persist/serializer.hpp"

namespace dtn::trace {

namespace {

[[nodiscard]] inline bool earlier_head(std::uint64_t ta, std::uint64_t sa,
                                       std::uint64_t tb, std::uint64_t sb) {
  // Packed comparison: time bit patterns order like the doubles they
  // encode (non-negative times only, asserted where heads are built).
  if (ta != tb) return ta < tb;
  return sa < sb;
}

}  // namespace

TraceCursor::TraceCursor(const Trace& trace) : trace_(&trace) {
  DTN_ASSERT(trace.finalized());
  const std::size_t n = trace.num_nodes();
  pos_.resize(n, 0);
  seq_base_.resize(n, 0);
  std::uint64_t base = 0;
  for (std::size_t i = 0; i < n; ++i) {
    seq_base_[i] = base;
    base += 2 * trace.visits(static_cast<NodeId>(i)).size();
  }
  total_events_ = base;
  reset();
}

TraceCursor::Head TraceCursor::head_of(NodeId n, std::uint32_t e) const {
  const Visit& v = trace_->visits(n)[e / 2];
  const double t = (e % 2 == 0) ? v.start : v.end;
  DTN_ASSERT(t >= 0.0);  // the packed-key ordering needs this
  return Head{std::bit_cast<std::uint64_t>(t), seq_base_[n] + e, n};
}

void TraceCursor::reset() {
  for (std::size_t i = 0; i < pos_.size(); ++i) pos_[i] = 0;
  rebuild_heap();
}

void TraceCursor::rebuild_heap() {
  heap_.clear();
  for (std::size_t i = 0; i < pos_.size(); ++i) {
    const auto n = static_cast<NodeId>(i);
    if (pos_[i] < 2 * trace_->visits(n).size()) {
      heap_.push_back(head_of(n, pos_[i]));
    }
  }
  // Floyd heap construction over the quaternary layout: every internal
  // node is a parent of heap_.size() - 1 or earlier, i.e. at most
  // (size - 2) / 4.
  if (heap_.size() >= 2) {
    for (std::size_t i = (heap_.size() - 2) / 4 + 1; i-- > 0;) sift_down(i);
  }
  if (!heap_.empty()) materialize_top();
}

void TraceCursor::save(persist::Writer& w) const {
  w.u64(pos_.size());
  for (const std::uint32_t p : pos_) w.u32(p);
}

void TraceCursor::load(persist::Reader& r) {
  const auto n = static_cast<std::size_t>(r.u64());
  if (n != pos_.size()) {
    throw persist::FormatError(
        "checkpoint cursor image disagrees with the trace node count");
  }
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t p = r.u32();
    if (p > 2 * trace_->visits(static_cast<NodeId>(i)).size()) {
      throw persist::FormatError(
          "checkpoint cursor position out of range for node " +
          std::to_string(i));
    }
    pos_[i] = p;
  }
  rebuild_heap();
}

void TraceCursor::materialize_top() {
  const Head& top = heap_.front();
  const std::uint32_t e = pos_[top.node];
  current_.time = std::bit_cast<double>(top.time_bits);
  current_.seq = top.seq;
  current_.kind = (e % 2 == 0) ? sim::EventKind::kArrival
                               : sim::EventKind::kDeparture;
  current_.a = top.node;
  current_.b = e / 2;  // visit index
}

void TraceCursor::advance() {
  DTN_ASSERT(!heap_.empty());
  const NodeId n = heap_.front().node;
  const std::uint32_t e = ++pos_[n];
  if (e < 2 * trace_->visits(n).size()) {
    // Replace the top with the node's next event and restore the heap:
    // one sift instead of a pop + push pair.
    heap_.front() = head_of(n, e);
    sift_down(0);
  } else {
    heap_.front() = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) sift_down(0);
  }
  if (!heap_.empty()) materialize_top();
}

void TraceCursor::sift_down(std::size_t i) {
  // Quaternary layout: half the levels of a binary heap, so the
  // replace-top sift after every advance() touches half the cache
  // lines.  The heap's internal arrangement never leaks — extraction
  // follows the total (time_bits, seq) order (seq is unique), so the
  // replay event order is identical to the binary layout's.
  const std::size_t n = heap_.size();
  Head item = heap_[i];
  while (true) {
    const std::size_t first = 4 * i + 1;
    if (first >= n) break;
    const std::size_t last = std::min(first + 4, n);
    std::size_t child = first;
    for (std::size_t c = first + 1; c < last; ++c) {
      if (earlier_head(heap_[c].time_bits, heap_[c].seq,
                       heap_[child].time_bits, heap_[child].seq)) {
        child = c;
      }
    }
    if (!earlier_head(heap_[child].time_bits, heap_[child].seq,
                      item.time_bits, item.seq)) {
      break;
    }
    heap_[i] = heap_[child];
    i = child;
  }
  heap_[i] = item;
}

}  // namespace dtn::trace
