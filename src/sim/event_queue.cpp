#include "sim/event_queue.hpp"

#include <algorithm>
#include <string>

#include "persist/serializer.hpp"
#include "sim/invariant_auditor.hpp"

namespace dtn::sim {

void EventQueue::grow_if_full() {
  // Explicit doubling with a generous floor: one reserve per doubling
  // instead of relying on the library's growth policy, and never a
  // per-event allocation.  Out of line: it runs once per doubling and
  // keeping it here keeps schedule()'s inlined body small.
  if (keys_.size() < keys_.capacity()) return;
  const std::size_t want = std::max<std::size_t>(64, keys_.capacity() * 2);
  keys_.reserve(want);
  pay_.reserve(want);
}

template <class Ar>
void EventQueue::fields(Ar& ar) {
  if constexpr (Ar::loading) {
    DTN_ASSERT(keys_.empty() && next_seq_ == 0 && popped_ == 0);
  }
  ar.value("queue next seq", next_seq_);
  ar.value("queue popped count", popped_);
  ar.value("queue last popped time", last_popped_);
  // Canonical image: key-sorted, not the live heap array.  The heap
  // array's layout depends on the push/pop history, so a resumed queue
  // (rebuilt from an image) and the uninterrupted one can hold the same
  // events in different slots.  Keys are unique, so the sorted order is a
  // pure function of the pending set: snapshots of one simulation point
  // are byte-identical however the queue got there, and save -> load ->
  // save reproduces the image (a sorted array is a valid min-heap, so
  // load keeps it as is).
  std::vector<Event> sorted = pay_;  // empty when loading
  std::sort(sorted.begin(), sorted.end(), happens_before);
  ar.seq("queue events", sorted, [&](Event& ev) {
    ar.non_negative("queue event time", ev.time);
    ar.value("queue event seq", ev.seq);
    ar.index("queue event kind", ev.kind,
             static_cast<std::size_t>(EventKind::kStationUp) + 1);
    ar.check(ev.kind != EventKind::kCallback,
             "queue image holds a closure event");
    ar.value("queue event a", ev.a);
    ar.value("queue event b", ev.b);
  });
  if constexpr (Ar::loading) {
    keys_.reserve(sorted.size());
    for (const Event& ev : sorted) {
      keys_.push_back(Key{std::bit_cast<std::uint64_t>(ev.time), ev.seq});
    }
    pay_ = std::move(sorted);
    // The image was written key-sorted, which is a valid heap; verify
    // rather than trust the file.
    for (std::size_t i = 1; i < keys_.size(); ++i) {
      ar.check(!less(keys_[i], keys_[(i - 1) / 2]),
               "queue image is not in heap order");
    }
  }
}

void EventQueue::save(persist::Writer& w) const {
  const_cast<EventQueue*>(this)->fields(w);
}

void EventQueue::load(persist::Reader& r) { fields(r); }

void EventQueue::audit(AuditReport& report) const {
  const std::size_t n = keys_.size();
  if (pay_.size() != n) {
    report.fail("key/payload arrays disagree in size: " +
                std::to_string(n) + " keys vs " + std::to_string(pay_.size()) +
                " payloads");
    return;
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (keys_[i].time_bits != std::bit_cast<std::uint64_t>(pay_[i].time) ||
        keys_[i].seq != pay_[i].seq) {
      report.fail("slot " + std::to_string(i) +
                  ": packed key does not match its payload (time " +
                  std::to_string(std::bit_cast<double>(keys_[i].time_bits)) +
                  " vs " + std::to_string(pay_[i].time) + ", seq " +
                  std::to_string(keys_[i].seq) + " vs " +
                  std::to_string(pay_[i].seq) + ")");
    }
    if (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (less(keys_[i], keys_[parent])) {
        report.fail("heap property violated at slot " + std::to_string(i) +
                    ": child (t=" +
                    std::to_string(std::bit_cast<double>(keys_[i].time_bits)) +
                    ", seq=" + std::to_string(keys_[i].seq) +
                    ") orders before parent slot " + std::to_string(parent));
      }
    }
  }
  if (n > 0) {
    const double head = std::bit_cast<double>(keys_[0].time_bits);
    if (head < last_popped_) {
      report.fail("pending minimum t=" + std::to_string(head) +
                  " is earlier than the last popped event t=" +
                  std::to_string(last_popped_));
    }
  }
}

void EventQueue::debug_corrupt_key_for_test(std::size_t index,
                                            double new_time) {
  DTN_ASSERT(index < keys_.size());
  keys_[index].time_bits = std::bit_cast<std::uint64_t>(new_time);
  pay_[index].time = new_time;
}

}  // namespace dtn::sim
