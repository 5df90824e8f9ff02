// Trace-driven DTN network engine.
//
// Replays a mobility trace as discrete events (node arrivals/departures
// at landmarks), generates the packet workload, maintains ground truth
// (locations, buffers, packet states), performs transfers on behalf of
// the active `Router`, and accounts the paper's four metrics' raw
// counters (§V-A.1): delivery, delay, packet-forwarding operations and
// control-information transfer.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "net/bundle_store.hpp"
#include "net/packet.hpp"
#include "net/router.hpp"
#include "sim/fault_injector.hpp"
#include "sim/invariant_auditor.hpp"
#include "sim/simulator.hpp"
#include "trace/cursor.hpp"
#include "trace/trace.hpp"
#include "util/assert.hpp"

namespace dtn::persist {
class CheckpointManager;
class Reader;
class Writer;
}  // namespace dtn::persist

namespace dtn::net {

struct WorkloadConfig {
  /// Packets generated per landmark per day (Poisson arrivals);
  /// destinations uniform over the other landmarks.
  double packets_per_landmark_per_day = 20.0;
  double ttl = 20.0 * trace::kDay;
  /// Per-node memory in kB, i.e. in 1 kB packets (0 = unbounded).
  std::uint64_t node_memory_kb = 2000;
  /// Bounded-store behaviour (src/net/bundle_store.hpp,
  /// docs/bounded-store.md): station capacity, eviction policy,
  /// received-id dedup.  The default bounds nothing and
  /// enables nothing — replays stay bit-identical to the unbounded
  /// §V-A.1 model.
  BundleStoreConfig store;
  /// Fraction of the trace used as an initialization phase before any
  /// packet is generated (paper: first 1/4, routers warm up on it).
  double warmup_fraction = 0.25;
  /// Measurement time unit for bandwidth/routing-table updates
  /// (paper: 3 days for DART, 0.5 day for DNET).
  double time_unit = 3.0 * trace::kDay;
  std::uint64_t seed = 7;

  /// >0 runs the invariant auditor after every N-th dispatched event of
  /// the replay; see invariant_auditor.hpp.  DTN_AUDIT /
  /// DTN_AUDIT_PERIOD in the environment also enable it.  0 = disabled
  /// (default).
  std::uint64_t audit_period_events = 0;

  /// Optional per-landmark destination weights for the Poisson
  /// workload; empty = uniform over the other landmarks.  Skewed
  /// weights create hot-spot traffic (overloaded links, §IV-E.3).
  std::vector<double> destination_weights;

  /// Deterministic extra workload: packets injected at exact times
  /// (used by tests, examples and the deployment bench in addition to —
  /// or instead of — the Poisson workload).
  struct ManualPacket {
    trace::LandmarkId src = 0;
    trace::LandmarkId dst = 0;
    double time = 0.0;
    double ttl = 0.0;  ///< 0 = use the config TTL
    /// Node-addressed packet (§IV-E.4): delivery requires reaching this
    /// node; `dst` is only the routing target landmark.
    trace::NodeId dst_node = trace::kNoNode;
  };
  std::vector<ManualPacket> manual_packets;

  /// Optional fault plan (sim/fault_injector.hpp).  No plan, or a plan
  /// with zero probabilities and empty schedules, leaves the replay
  /// bit-identical to the fault-free engine (golden determinism tests).
  std::optional<sim::FaultPlan> faults;
};

/// Raw counters produced by a run; `metrics::` derives the paper's
/// success rate / average delay / forwarding cost / total cost.
struct RunCounters {
  std::uint64_t generated = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped_ttl = 0;
  /// Transfers refused because the receiving node's buffer was full.
  std::uint64_t refused_buffer = 0;
  /// Packet forwarding operations (origin->node, node->node,
  /// node->station, station->node, arrival auto-delivery, replication).
  std::uint64_t packet_forwards = 0;
  /// Copies created by multi-copy routers.
  std::uint64_t replications = 0;
  /// Control-information entries transferred (routing tables,
  /// meeting-probability vectors); converted to operations by the cost
  /// model (entries / alpha).
  double control_entries = 0.0;
  /// Sum of delays of delivered packets (seconds).
  double total_delay = 0.0;
  /// Per-packet delays of delivered packets (for quantile figures).
  std::vector<double> delivery_delays;
  /// Forwarding operations each delivered packet took (path length).
  std::vector<std::uint32_t> delivery_hops;

  // -- bounded-store counters (docs/bounded-store.md; all zero with the
  //    default unbounded, policy-off store configuration) ---------------
  /// Victims dropped by an eviction policy to admit an incoming bundle.
  std::uint64_t evicted_policy = 0;
  /// Generated packets shed at admission because their origin station
  /// was full (graceful load shedding; they still count as generated).
  std::uint64_t admission_shed = 0;
  /// Copies of an already-delivered logical packet retired at a
  /// transfer admission point instead of being re-admitted.
  std::uint64_t duplicates_suppressed = 0;
  /// Admissions refused by a store's received-id dedup set.
  std::uint64_t dedup_refused = 0;

  // -- resilience counters (all zero unless a FaultPlan is attached) ----
  std::uint64_t node_crashes = 0;
  std::uint64_t node_reboots = 0;
  std::uint64_t station_outages = 0;
  std::uint64_t station_recoveries = 0;
  /// Packets destroyed by crash buffer loss.
  std::uint64_t packets_lost_fault = 0;
  /// Transfer attempts broken mid-contact, and packets that later made
  /// it across after at least one such break (retry/backoff resumption).
  std::uint64_t transfers_interrupted = 0;
  std::uint64_t transfers_resumed = 0;
  /// Attempts refused outright: an endpoint was down, or the packet was
  /// still inside its retry-backoff window.
  std::uint64_t transfers_blocked_fault = 0;
  /// Per-outage recovery times: station recovery -> first successful
  /// station transfer there (seconds).
  std::vector<double> outage_recovery_delays;

  /// The one field list: the checkpoint's "counters" section and
  /// metrics::run_digest both walk it.
  template <class Ar>
  void fields(Ar& ar) {
    ar.value("generated", generated);
    ar.value("delivered", delivered);
    ar.value("dropped ttl", dropped_ttl);
    ar.value("refused buffer", refused_buffer);
    ar.value("packet forwards", packet_forwards);
    ar.value("replications", replications);
    ar.value("control entries", control_entries);
    ar.value("total delay", total_delay);
    ar.vec("delivery delays", delivery_delays);
    ar.vec("delivery hops", delivery_hops);
    ar.value("evicted policy", evicted_policy);
    ar.value("admission shed", admission_shed);
    ar.value("duplicates suppressed", duplicates_suppressed);
    ar.value("dedup refused", dedup_refused);
    ar.value("node crashes", node_crashes);
    ar.value("node reboots", node_reboots);
    ar.value("station outages", station_outages);
    ar.value("station recoveries", station_recoveries);
    ar.value("packets lost fault", packets_lost_fault);
    ar.value("transfers interrupted", transfers_interrupted);
    ar.value("transfers resumed", transfers_resumed);
    ar.value("transfers blocked fault", transfers_blocked_fault);
    ar.vec("outage recovery delays", outage_recovery_delays);
  }

  /// Bit-exact comparison, vectors included — two runs with the same
  /// trace, router and seed must compare equal (determinism guard).
  friend bool operator==(const RunCounters&, const RunCounters&) = default;
};

class Network {
 public:
  Network(const trace::Trace& trace, Router& router, WorkloadConfig config);
  /// Every store points at the network's position column.
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Replay the whole trace.  Call exactly once.
  void run();

  /// Checkpointed replay (docs/checkpointing.md).  Resumes from `ckpt`'s
  /// newest snapshot when one exists (throwing persist::FormatError if
  /// it is corrupt or was taken under a different configuration),
  /// otherwise starts fresh; writes snapshots at the cadence in
  /// ckpt.config().  Cadence and stop_after_events fire right after the
  /// event that reaches their count.  Returns true when the
  /// replay reached the trace horizon, false when it suspended after
  /// CheckpointConfig::stop_after_events (a snapshot of the suspension
  /// point is on disk, so a later process finishes the run — the
  /// deterministic stand-in for a kill).  A run checkpointed and resumed
  /// any number of times produces bit-identical counters and delivery
  /// records to an uninterrupted run().  Requires
  /// `router.checkpointable()`.  Call exactly once (instead of run()).
  bool run(persist::CheckpointManager& ckpt);

  // -- introspection ----------------------------------------------------
  [[nodiscard]] double now() const { return sim_.now(); }
  /// Events executed by the replay so far (trace + workload + ticks).
  [[nodiscard]] std::uint64_t events_executed() const {
    return sim_.events_executed();
  }
  [[nodiscard]] std::size_t num_nodes() const { return node_stores_.size(); }
  [[nodiscard]] std::size_t num_landmarks() const { return stations_.size(); }
  [[nodiscard]] const WorkloadConfig& config() const { return cfg_; }
  [[nodiscard]] const RunCounters& counters() const { return counters_; }
  [[nodiscard]] double trace_begin() const { return trace_begin_; }
  [[nodiscard]] double trace_end() const { return trace_end_; }
  /// Time packet generation starts (end of warmup).
  [[nodiscard]] double workload_start() const { return workload_start_; }
  /// Times of the time-unit ticks dispatched so far, in order (read from
  /// the static schedule's position, so a snapshot between an arrival
  /// and the tick at the same instant lists no such tick yet).
  [[nodiscard]] std::vector<double> dispatched_tick_times() const;

  // The per-packet, per-node and per-landmark reads every router hook
  // makes are defined here, so they inline into the router's own
  // translation unit.
  /// Nodes currently associated with landmark `l`.
  [[nodiscard]] std::span<const NodeId> nodes_at(LandmarkId l) const {
    DTN_ASSERT(l < stations_.size());
    return stations_[l].present;
  }
  /// Current landmark of `node` (kNoLandmark while in transit).
  [[nodiscard]] LandmarkId location(NodeId node) const {
    DTN_ASSERT(node < location_.size());
    return location_[node];
  }
  /// Landmark of the node's previous (completed) visit.
  [[nodiscard]] LandmarkId previous_landmark(NodeId node) const;
  /// Completed visits of `node` so far (online history; grows as the
  /// replay progresses — routers must only read, never assume future).
  /// A view of the trace prefix the cursor has replayed, not a copy.
  [[nodiscard]] std::span<const trace::Visit> history(NodeId node) const;
  /// The visit `node` is in (arrival replayed, departure hook not yet
  /// run), or nullptr while it is in transit.
  [[nodiscard]] const trace::Visit* current_visit(NodeId node) const;

  [[nodiscard]] Packet& packet(PacketId pid) {
    DTN_ASSERT(pid < packets_.size());
    return packets_[pid];
  }
  [[nodiscard]] const Packet& packet(PacketId pid) const {
    DTN_ASSERT(pid < packets_.size());
    return packets_[pid];
  }
  [[nodiscard]] std::span<const Packet> all_packets() const { return packets_; }

  [[nodiscard]] std::span<const PacketId> origin_packets(LandmarkId l) const;
  [[nodiscard]] std::span<const PacketId> station_packets(LandmarkId l) const {
    DTN_ASSERT(l < stations_.size());
    return stations_[l].storage.packets();
  }
  [[nodiscard]] std::span<const PacketId> node_packets(NodeId node) const {
    return node_buffer(node).packets();
  }
  [[nodiscard]] const BundleStore& node_buffer(NodeId node) const {
    DTN_ASSERT(node < node_stores_.size());
    return node_stores_[node];
  }
  [[nodiscard]] const BundleStore& station_store(LandmarkId l) const;

  // -- faults (meaningful only when WorkloadConfig::faults is set) ------
  /// Is `node` currently crashed (radio dead)?  Always false without a
  /// fault plan.
  [[nodiscard]] bool node_down(NodeId node) const {
    return faults_.has_value() && faults_->node_down(node);
  }
  /// Is landmark `l`'s station currently down?
  [[nodiscard]] bool station_down(LandmarkId l) const {
    return faults_.has_value() && faults_->station_down(l);
  }
  /// The run's fault injector, or nullptr when no plan is attached.
  [[nodiscard]] sim::FaultInjector* faults() {
    return faults_.has_value() ? &*faults_ : nullptr;
  }
  [[nodiscard]] const sim::FaultInjector* faults() const {
    return faults_.has_value() ? &*faults_ : nullptr;
  }

  // -- transfers (routers call these; all enforce state/buffers) --------
  // Every transfer is a radio operation: it is refused while either
  // endpoint is down and may break mid-contact under an injected
  // transfer-failure probability (the packet then stays with the sender
  // and retries after an exponential backoff on a later contact).
  /// Origin queue -> node at the same landmark.  False if no space.
  bool pickup_from_origin(NodeId node, PacketId pid);
  /// Station -> node at the same landmark.  False if no space.
  bool station_to_node(LandmarkId l, NodeId node, PacketId pid);
  /// Node -> station of the landmark the node is at; delivers if it is
  /// the destination.  Stations are unbounded by default (then this
  /// fails only on TTL expiry or an injected fault); a bounded station
  /// store may also refuse admission, leaving the packet on the node.
  bool node_to_station(NodeId node, PacketId pid);
  /// Node -> node, both at the same landmark.  False if no space.
  bool node_to_node(NodeId from, NodeId to, PacketId pid);

  /// Multi-copy support: duplicate `pid` (held by `from`) into `to`'s
  /// buffer as a new copy of the same logical packet.  Returns the new
  /// copy's id, or kNoPacket when `to` lacks space / already delivered.
  PacketId replicate_node_to_node(NodeId from, NodeId to, PacketId pid);

  /// Does `node` carry any copy of the logical packet `logical`?
  [[nodiscard]] bool node_holds_logical(NodeId node, PacketId logical) const;

  /// Has the logical packet been delivered (by any copy)?
  [[nodiscard]] bool logical_delivered(PacketId logical) const;

  /// Record control-information transfer of `entries` table entries.
  void account_control(double entries);

  /// Run audit() and, on any violation, print the report and abort via
  /// DTN_ASSERT; cheap enough for tests after every run.
  void validate_invariants() const;

  // -- invariant auditing (debug tooling, see invariant_auditor.hpp) ----
  /// Run every engine-level invariant check into `report` (no abort):
  /// event-queue heap property, station present lists and node
  /// locations against the trace cursor, the packet table against the
  /// stores, one store per held packet, plus the router's own audit hook.
  /// The periodic auditor runs these checks and, besides, the
  /// checkpoint CRC check.
  void audit(sim::AuditReport& report) const;

  /// The periodic auditor driving this run (enabled via
  /// WorkloadConfig::audit_period_events or DTN_AUDIT; see above).
  [[nodiscard]] const sim::InvariantAuditor& auditor() const {
    return auditor_;
  }
  [[nodiscard]] sim::InvariantAuditor& auditor() { return auditor_; }

  /// Test-only fault injection for the auditor's negative tests.
  enum class Corruption {
    /// Swap the first two entries of the first station present list
    /// holding two nodes (swapping again reverts it).
    kPresentOrder,
    /// Skew the in-flight transfer ledger's per-packet index (needs a
    /// live ledger entry, i.e. a faulted run with pending retries).
    kLedgerIndex,
    /// Skew the packets_lost_fault counter away from the recount.
    kFaultLossCounter,
    /// Break the first non-empty dedup set's sorted-unique invariant.
    kStoreDedupOrder,
    /// Grow the first non-empty store's metadata slab past its id list.
    kStorePoolSize,
    /// Re-point the first non-empty store's entry in the position column.
    kStoreIndex,
    /// Re-point the first live packet's holder field.
    kPacketHolder,
  };
  /// Seed `kind` by skewing the targeted counter by `delta`; returns
  /// false when no eligible state exists (e.g. no station has two
  /// nodes present for kPresentOrder, which ignores `delta`).  Target
  /// selection is deterministic, so a test can corrupt (+1), observe
  /// detection and revert (-1) within one callback to leave the replay
  /// unharmed.
  bool debug_corrupt_for_test(Corruption kind, int delta = 1);

  /// Test seam for checkpoint mutation tests: restore `image` into this
  /// network as a resume does (load, re-serialize check, audit) without
  /// replaying, then re-serialize the restored state into `out` when
  /// given (a persist::Recorder maps the image field by field).
  void debug_restore_for_test(const std::vector<std::uint8_t>& image,
                              persist::Writer* out = nullptr);

 private:
  /// The serial replay behind run() and run(CheckpointManager&): one
  /// Simulator::run_until over the trace cursor whose step, after every
  /// event, snapshots when `ckpt` is attached and its cadence is due,
  /// then runs the periodic audit when that is due.  Returns
  /// false when the checkpoint cadence suspended the run.
  bool replay(persist::CheckpointManager* ckpt);
  /// Typed-event dispatch: the simulator hands every engine event
  /// (arrival/departure from the trace cursor, generation ticks, manual
  /// packets, TTL sweeps, time-unit ticks) to this switch.
  void dispatch(const sim::Event& ev);
  static void dispatch_trampoline(void* self, const sim::Event& ev) {
    static_cast<Network*>(self)->dispatch(ev);
  }
  /// Drop `pid` now if its TTL has lapsed (removing it from its holder);
  /// returns true when dropped.  Transfers call this first so expired
  /// packets never keep moving between sweep ticks.
  bool drop_if_expired(PacketId pid);
  /// Take a live packet out of circulation: detach it from its holder
  /// and mark it an obsolete copy when its logical packet was already
  /// delivered, else a TTL drop.
  void retire(Packet& p);
  /// Remove `pid` from whatever currently holds it (non-terminal states).
  void detach_from_holder(Packet& p);
  /// Hand a live packet to its destination: detach it from its holder,
  /// count the final hop and forward, and deliver it.
  void deliver_from_holder(Packet& p);
  PacketId generate_packet(LandmarkId src, LandmarkId dst, double ttl,
                           NodeId dst_node = trace::kNoNode);
  void deliver_node_addressed(NodeId arriving, LandmarkId l);
  void deliver(PacketId pid);
  /// TTL sweep: retire every held packet whose TTL lapsed or whose
  /// logical packet was delivered by another copy.
  void drop_expired();
  void handle_arrival(const trace::Visit& visit);
  void handle_departure(const trace::Visit& visit);

  // -- static schedule (docs/event-engine.md) ---------------------------
  /// Every event known before the run, sorted by (time, seq), with seqs
  /// from `seq_base` up in schedule order: manual packets, sweep/tick
  /// pairs, then the Poisson workload ranked by (time, source).  The
  /// workload is drawn from per-landmark split streams of the workload
  /// seed, so each landmark's draws are independent of event
  /// interleaving; a generation event carries (a = source, b =
  /// destination).  A pure function of the run's inputs.
  [[nodiscard]] std::vector<sim::Event> build_static_schedule(
      std::uint64_t seq_base) const;
  /// FNV-1a digest of the installed static schedule (the snapshot's
  /// "workload" check).
  [[nodiscard]] std::uint64_t static_schedule_digest() const;

  // -- checkpointing (src/persist/, docs/checkpointing.md) --------------
  /// The snapshot's field list, section by section: "meta" (a
  /// fingerprint of everything the checkpoint does NOT store but a
  /// resume must be handed unchanged: trace shape, workload config,
  /// fault plan, router identity), "sim", "cursor", then workload (the
  /// static schedule's digest), counters, packets, nodes (buffers),
  /// stations (storage, origin queue), ledger, faults, router.  Node
  /// locations and present lists are rebuilt from the cursor.
  template <class Ar>
  void fields(Ar& ar);
  /// Full serial-format snapshot of the live run.
  [[nodiscard]] persist::Writer serialize_state() const;
  void write_snapshot();
  /// Snapshot when the cadence is due; false once stop_after_events is
  /// reached (the snapshot of that point is written first).
  bool checkpoint_step();
  void load_checkpoint(const std::vector<std::uint8_t>& bytes);
  /// Load check of the restored queue, once the fault log is restored:
  /// every pending event is a fault event (trace, packet, sweep and tick
  /// events never sit in the queue) whose payload names a node or
  /// station of this run and a scheduled window or stochastic process of
  /// its plan, and no id's pending transitions would down it while down
  /// or raise it while up.  Throws FormatError otherwise.
  void check_pending_events() const;
  /// Auditor check: when a snapshot exists for exactly this simulation
  /// point, a fresh serialization of live state must reproduce its
  /// per-section CRCs.
  void audit_checkpoint_crc(sim::AuditReport& report) const;

  // -- fault machinery (see docs/fault-injection.md) --------------------
  /// Schedule the plan's initial fault events (after the workload, so
  /// non-fault event sequence numbers match a fault-free run).
  void schedule_faults();
  void apply_node_crash(const sim::Event& ev);
  void apply_node_reboot(const sim::Event& ev);
  void apply_station_down(const sim::Event& ev);
  void apply_station_up(const sim::Event& ev);
  /// Transfer-failure gate shared by every transfer: true when the
  /// attempt must fail now (mid-contact break drawn, or the packet is
  /// still inside its retry-backoff window).  Updates the ledger and
  /// the interrupted/resumed/blocked counters.
  bool transfer_interrupted(PacketId pid);
  /// A station transfer at `l` just succeeded: close a pending
  /// recovery-time measurement, if any.
  void note_station_activity(LandmarkId l);
  [[nodiscard]] std::uint32_t ledger_slot(PacketId pid) const;
  void ledger_erase(PacketId pid);
  void audit_fault_state(sim::AuditReport& report) const;

  struct StationState {
    /// Nodes currently associated, in arrival order (routers observe
    /// this order through nodes_at/on_contact, so it is part of the
    /// deterministic-replay contract).  Rebuilt from the cursor on load.
    /// First in the struct: placed after the store, the list every
    /// arrival and departure touches left city replays ~5% slower.
    std::vector<NodeId> present;
    /// Central station store; unbounded per §V-A.1 unless
    /// WorkloadConfig::store bounds it (docs/bounded-store.md).
    BundleStore storage;
    std::vector<PacketId> origin;    // passive origin queue (baselines)
  };

  /// Node locations and station present lists as the cursor's per-node
  /// positions imply them: a node at an odd position is at the landmark
  /// of its current visit, and each present list is in arrival order,
  /// i.e. by (visit start, node id).
  struct Presence {
    std::vector<LandmarkId> location;
    std::vector<std::vector<NodeId>> present;
  };
  [[nodiscard]] Presence rebuild_presence() const;
  /// The "network.present_sets" check: the live locations and present
  /// lists equal rebuild_presence().
  void audit_present_sets(sim::AuditReport& report) const;
  /// The "network.packet_table" check: every live packet sits in the
  /// store its state and holder name, every held id points back at its
  /// store, held equals live, and delivered equals the number of
  /// delivery delays.
  void audit_packet_table(sim::AuditReport& report) const;
  /// The "network.buffer_accounting" check: every id a store holds names
  /// a packet, and no packet is held twice.
  void audit_buffer_accounting(sim::AuditReport& report) const;
  /// The "network.bundle_store" check: every store re-derives its pool
  /// accounting, position-column entries and dedup set.
  void audit_bundle_stores(sim::AuditReport& report) const;

  // -- bounded-store admission (docs/bounded-store.md) ------------------
  /// Admission wrapper the transfer and generation paths funnel
  /// through: builds the AdmitRequest from the packet table (retention,
  /// expected delay, deadline), lets the store evict per policy,
  /// retires eviction victims and counts the dedup refusals.
  Admit store_admit(BundleStore& store, Packet& p, Retention retention,
                    bool check_dedup);
  /// Retire eviction victims: each leaves circulation as kEvicted (or
  /// kObsoleteCopy when its logical was already delivered).
  void finalize_evictions(std::vector<PacketId>& victims);
  /// A transfer admission point saw a copy of an already-delivered
  /// logical packet: retire it instead of re-admitting (satellite:
  /// duplicate-delivery suppression).  True when retired.
  bool suppress_delivered_copy(Packet& p);
  /// Update the retention constraint on the store holding `p`, if any.
  void set_holder_retention(Packet& p, Retention r);

  const trace::Trace& trace_;
  Router& router_;
  WorkloadConfig cfg_;
  sim::Simulator sim_;
  sim::InvariantAuditor auditor_;
  /// Engaged iff cfg_.faults is set; owns the outage sets and all
  /// fault randomness (its streams are split from the plan seed, so the
  /// workload RNG above never sees a fault-dependent draw).
  std::optional<sim::FaultInjector> faults_;

  /// In-flight transfer ledger: one entry per packet whose last
  /// transfer attempt broke mid-contact, holding the attempt count and
  /// the earliest retry time (exponential backoff).  `ledger_index_`
  /// maps packet id -> slot (kNoLedgerSlot when absent); removal
  /// swap-erases, which is fine because replay never iterates the
  /// ledger (only the auditor does, order-insensitively).  The index is
  /// not stored: a load rebuilds it from the entries.
  struct LedgerEntry {
    PacketId pid = kNoPacket;
    std::uint32_t attempts = 0;
    double next_retry = 0.0;
  };
  static constexpr std::uint32_t kNoLedgerSlot =
      static_cast<std::uint32_t>(-1);
  std::vector<LedgerEntry> ledger_;
  DTN_CKPT_SKIP("derived from the ledger entries; a load rebuilds it")
  std::vector<std::uint32_t> ledger_index_;
  /// Per-landmark pending recovery-time measurement: the time the
  /// station recovered, or a negative sentinel when none is pending.
  std::vector<double> outage_recovery_pending_;

  /// The replay's event source; its per-node positions are also what
  /// history(), previous_landmark() and a load's presence rebuild read.
  trace::TraceCursor cursor_;
  /// One bundle store per node.
  std::vector<BundleStore> node_stores_;
  /// Packet id -> position in the node or station store holding it,
  /// shared by every store (docs/bounded-store.md): a packet is in at
  /// most one store, so one column replaces a per-store index.
  DTN_CKPT_SKIP("derived from the stores' id lists; a load rebuilds it")
  BundleStore::Column store_position_;
  /// Current landmark per node (kNoLandmark in transit).  Kept beside
  /// the cursor because the cursor counts a departure before its hook
  /// runs, while the node stays located through on_departure.
  DTN_CKPT_SKIP("rebuilt from the cursor on load")
  std::vector<LandmarkId> location_;
  std::vector<StationState> stations_;
  std::vector<Packet> packets_;
  std::vector<std::uint8_t> logical_delivered_;
  /// True once any node-addressed packet (dst_node set) exists; while
  /// false, every arrival skips the node-addressed handover scans
  /// entirely (the standard workload is landmark-addressed only).
  bool any_node_addressed_ = false;
  /// Router::observes_contacts(), read once per replay: while false,
  /// arrivals skip the node-node contact fan-out.
  bool observes_contacts_ = true;
  /// Reused per-arrival scratch list (avoids an allocation per event).
  std::vector<PacketId> scratch_;
  RunCounters counters_;

  // -- active checkpointed run (see docs/checkpointing.md) --------------
  persist::CheckpointManager* ckpt_mgr_ = nullptr;
  std::uint64_t ckpt_last_events_ = 0;
  double ckpt_last_time_ = 0.0;
  /// Per-section (name, crc32) of the most recent snapshot and the
  /// executed-event count it captured; the checkpoint_crc auditor check
  /// re-serializes live state against these whenever the counts match.
  std::vector<std::pair<std::string, std::uint32_t>> last_ckpt_sections_;
  std::uint64_t last_ckpt_executed_ = 0;

  double trace_begin_ = 0.0;
  double trace_end_ = 0.0;
  double workload_start_ = 0.0;
  bool ran_ = false;
};

}  // namespace dtn::net
