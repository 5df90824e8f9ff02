#include "sim/simulator.hpp"

#include "persist/serializer.hpp"

namespace dtn::sim {

void Simulator::save(persist::Writer& w) const {
  w.f64(now_);
  w.u64(executed_);
  queue_.save(w);
}

void Simulator::load(persist::Reader& r) {
  DTN_ASSERT(executed_ == 0 && queue_.empty());
  now_ = r.f64();
  executed_ = r.u64();
  queue_.load(r);
}

}  // namespace dtn::sim
