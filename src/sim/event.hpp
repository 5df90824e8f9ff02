// Typed simulation events.
//
// The hot path of a trace replay executes millions of events; making
// each one a 32-byte POD (instead of a heap-allocated std::function
// closure) keeps the event heap flat in memory and allocation-free.
// The sim layer defines the *layout* and the total order; the meaning
// of each kind is owned by the engine that dispatches them (net::
// Network for every kind but kCallback).
#pragma once

#include <cstdint>

namespace dtn::sim {

enum class EventKind : std::uint8_t {
  /// A node associates with a landmark (payload: a = node, b = visit
  /// index into the trace's per-node visit list).
  kArrival,
  /// A node disassociates from a landmark (payload as kArrival).
  kDeparture,
  /// Poisson packet-generation tick of one landmark (a = landmark).
  kPacketGen,
  /// Deterministic manual-workload packet (a = index into the
  /// workload's manual_packets list).
  kManualPacket,
  /// TTL expiry sweep over all live packets.
  kTtlSweep,
  /// Measurement time-unit boundary (a = unit ordinal, 1-based).
  kTimeUnitTick,
  /// Opaque closure (a = closure index) owned by a test-only
  /// scheduler (tests/closure_scheduler.hpp).  The engine never
  /// schedules one, and checkpoint images reject it; the value keeps
  /// its slot so every later kind's serialized byte is unchanged.
  kCallback,
  // -- fault events (scheduled only when a FaultPlan is attached and
  //    non-empty; see sim/fault_injector.hpp) --------------------------
  /// A node crashes (a = node; b = scheduled-crash index + 1, or 0 for
  /// a stochastic crash whose downtime is drawn at dispatch).
  kNodeCrash,
  /// A crashed node reboots (a = node).
  kNodeReboot,
  /// A landmark station goes down (a = station; b as kNodeCrash).
  kStationDown,
  /// A downed station recovers (a = station).
  kStationUp,
};

/// One scheduled occurrence.  `seq` breaks time ties: the queue pops in
/// (time, seq) order and every producer assigns strictly increasing
/// sequence numbers, which makes replay fully deterministic — binary
/// heaps alone are not stable, and tie order matters (e.g. a node
/// arrival and a packet generation at the same instant).
struct Event {
  double time = 0.0;
  std::uint64_t seq = 0;
  EventKind kind = EventKind::kCallback;
  std::uint32_t a = 0;  ///< primary payload (see EventKind)
  std::uint32_t b = 0;  ///< secondary payload (see EventKind)
};

/// Strict total order: earlier time first, then lower sequence.
[[nodiscard]] constexpr bool happens_before(const Event& x, const Event& y) {
  if (x.time != y.time) return x.time < y.time;
  return x.seq < y.seq;
}

}  // namespace dtn::sim
