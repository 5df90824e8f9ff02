#include "sim/event_queue.hpp"

#include <string>

#include "persist/serializer.hpp"
#include "sim/invariant_auditor.hpp"

namespace dtn::sim {

template <class Ar>
void EventQueue::fields(Ar& ar) {
  if constexpr (Ar::loading) {
    DTN_ASSERT(heap_.empty() && next_seq_ == 0 && popped_ == 0);
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
  std::vector<Event> sorted = heap_;  // empty when loading
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
    // The image was written key-sorted, which is a valid heap; verify
    // rather than trust the file.
    ar.check(std::is_heap(sorted.begin(), sorted.end(), later),
             "queue image is not in heap order");
    heap_ = std::move(sorted);
  }
}

void EventQueue::save(persist::Writer& w) const {
  const_cast<EventQueue*>(this)->fields(w);
}

void EventQueue::load(persist::Reader& r) { fields(r); }

void EventQueue::audit(AuditReport& report) const {
  for (std::size_t i = 1; i < heap_.size(); ++i) {
    const std::size_t parent = (i - 1) / 2;
    if (later(heap_[parent], heap_[i])) {
      report.fail("heap property violated at slot " + std::to_string(i) +
                  ": child (t=" + std::to_string(heap_[i].time) +
                  ", seq=" + std::to_string(heap_[i].seq) +
                  ") orders before parent slot " + std::to_string(parent));
    }
  }
  if (!heap_.empty() && heap_.front().time < last_popped_) {
    report.fail("pending minimum t=" + std::to_string(heap_.front().time) +
                " is earlier than the last popped event t=" +
                std::to_string(last_popped_));
  }
}

void EventQueue::debug_corrupt_key_for_test(std::size_t index,
                                            double new_time) {
  DTN_ASSERT(index < heap_.size());
  heap_[index].time = new_time;
}

}  // namespace dtn::sim
