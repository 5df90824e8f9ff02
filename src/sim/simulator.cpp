#include "sim/simulator.hpp"

#include <algorithm>

#include "persist/serializer.hpp"

namespace dtn::sim {

void Simulator::set_static_schedule(std::vector<Event> events) {
  DTN_ASSERT(executed_ == 0 && static_next_ == 0);
  DTN_ASSERT(std::is_sorted(events.begin(), events.end(), happens_before));
  DTN_ASSERT(events.empty() || events.front().time >= now_);
  static_ = std::move(events);
}

template <class Ar>
void Simulator::fields(Ar& ar) {
  if constexpr (Ar::loading) {
    DTN_ASSERT(executed_ == 0 && static_next_ == 0 && queue_.empty());
  }
  ar.value("clock", now_);
  ar.value("executed events", executed_);
  // Every static event before the position ran, none at or after it
  // did: their times bracket the clock.
  ar.index("static schedule position", static_next_, static_.size() + 1);
  ar.check(static_next_ == 0 || static_[static_next_ - 1].time <= now_,
           "static schedule position", " is ahead of the clock");
  ar.check(static_next_ == static_.size() || static_[static_next_].time >= now_,
           "static schedule position", " is behind the clock");
  ar.object(queue_);
}

void Simulator::save(persist::Writer& w) const {
  const_cast<Simulator*>(this)->fields(w);
}

void Simulator::load(persist::Reader& r) { fields(r); }

}  // namespace dtn::sim
