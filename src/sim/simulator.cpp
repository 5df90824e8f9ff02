#include "sim/simulator.hpp"

#include "persist/serializer.hpp"

namespace dtn::sim {

template <class Ar>
void Simulator::fields(Ar& ar) {
  if constexpr (Ar::loading) DTN_ASSERT(executed_ == 0 && queue_.empty());
  ar.value("clock", now_);
  ar.value("executed events", executed_);
  ar.object(queue_);
}

void Simulator::save(persist::Writer& w) const {
  const_cast<Simulator*>(this)->fields(w);
}

void Simulator::load(persist::Reader& r) { fields(r); }

}  // namespace dtn::sim
