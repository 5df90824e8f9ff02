// Router interface.
//
// A router owns all routing state (predictors, probability tables,
// distance vectors) and reacts to network events; the `Network` owns the
// ground truth (who is where, who holds which packet) and performs the
// actual transfers so that buffer limits, delivery and cost accounting
// are uniform across every algorithm.
#pragma once

#include <string>

#include "net/packet.hpp"

namespace dtn::sim {
class AuditReport;
}

namespace dtn::persist {
class Writer;
class Reader;
}  // namespace dtn::persist

namespace dtn::net {

class Network;

class Router {
 public:
  virtual ~Router() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  /// True for architectures with landmark central stations (DTN-FLOW):
  /// generated packets enter the station buffer and stations relay.
  /// False for node-only baselines: generated packets wait in a passive
  /// origin queue until a carrier picks them up.
  [[nodiscard]] virtual bool uses_stations() const { return false; }

  /// Called once before the first event.
  virtual void on_init(Network& net) { (void)net; }

  /// `node` associated with landmark `l` (after presence update and
  /// automatic delivery of packets destined to `l`).
  virtual void on_arrival(Network& net, NodeId node, LandmarkId l) {
    (void)net; (void)node; (void)l;
  }

  /// `node` is about to leave `l` (still present).
  virtual void on_departure(Network& net, NodeId node, LandmarkId l) {
    (void)net; (void)node; (void)l;
  }

  /// Never called: the engine dispatches every departure on its own.
  /// It stays only because perfbench/replay_bench.cpp overrides it, and
  /// that directory is frozen by BENCHMARK.json; delete it with that
  /// override at the next change to the benchmark.
  virtual void on_departure_batch_begin(Network& net, LandmarkId l,
                                        std::size_t count) {
    (void)net; (void)l; (void)count;
  }

  /// False when on_contact is a no-op for this router's configuration:
  /// the engine then skips the per-arrival contact fan-out.  Read once
  /// per replay.  Must be honest — a router that returns false must
  /// behave identically when every contact is delivered anyway.
  [[nodiscard]] virtual bool observes_contacts() const { return true; }

  /// `arriving` just arrived at `l` where `present` already is.  Called
  /// once per (arriving, present) pair; routers handle both directions.
  virtual void on_contact(Network& net, NodeId arriving, NodeId present,
                          LandmarkId l) {
    (void)net; (void)arriving; (void)present; (void)l;
  }

  /// A packet was generated (already placed at origin/station of its
  /// source landmark).
  virtual void on_packet_generated(Network& net, PacketId pid) {
    (void)net; (void)pid;
  }

  /// Periodic tick at each measurement time-unit boundary (§IV-C.1).
  virtual void on_time_unit(Network& net, std::size_t unit_index) {
    (void)net; (void)unit_index;
  }

  // -- fault hooks (fired only when a FaultPlan is attached; see
  //    sim/fault_injector.hpp and docs/fault-injection.md) --------------
  /// `node` crashed (radio dead, surviving buffer frozen until reboot).
  /// Fired after the engine flushed the lost packets and marked the
  /// node down.  Routers drop in-flight control state the node carried.
  virtual void on_node_crash(Network& net, NodeId node) {
    (void)net; (void)node;
  }
  /// Landmark `l`'s station went down: storage is frozen (durable, not
  /// wiped) and all station transfers at `l` are refused until recovery.
  virtual void on_station_outage(Network& net, LandmarkId l) {
    (void)net; (void)l;
  }
  virtual void on_station_recovery(Network& net, LandmarkId l) {
    (void)net; (void)l;
  }

  // -- checkpointing (src/persist/, docs/checkpointing.md) --------------
  /// True when the router implements checkpoint_save/checkpoint_load.
  /// Checkpointed runs require it; `Network::run` with a
  /// CheckpointManager refuses routers that return false.
  [[nodiscard]] virtual bool checkpointable() const { return false; }
  /// Serialize all routing state into the open "router" section.
  virtual void checkpoint_save(persist::Writer& w) const { (void)w; }
  /// Restore state saved by checkpoint_save.  Called *instead of*
  /// on_init on resume (implementations typically call on_init
  /// themselves to size their containers, then overwrite).  Throws
  /// persist::FormatError on malformed images.
  virtual void checkpoint_load(persist::Reader& r, Network& net) {
    (void)r; (void)net;
  }

  /// Invariant audit hook (debug tooling, see invariant_auditor.hpp):
  /// re-derive any incrementally maintained router state from scratch
  /// and report disagreements.  Called by Network::audit and by the
  /// periodic invariant auditor when enabled.  Default: stateless
  /// routers have nothing to audit.
  virtual void audit(const Network& net, sim::AuditReport& report) const {
    (void)net; (void)report;
  }
};

}  // namespace dtn::net
