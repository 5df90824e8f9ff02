// Bounded-memory bundle store of a mobile node or a landmark station
// (docs/bounded-store.md).  Stations are unbounded by default, as in
// §V-A.1 ("the memory of the landmark was not limited").
//
// The id list keeps swap-erase order: the replay contract routers
// observe.  A packet's position in it lives in a position column indexed
// by packet id, which every store of one network shares: packets are
// single-copy, so each id sits in at most one store at a time, and one
// network-wide column makes contains(), index_of() and remove() a column
// read plus a check that the id list holds the id there.  A parallel
// slab of POD entry metadata (admission sequence, retention constraint,
// expected delay, TTL deadline, logical id) rides along under the same
// swap-erase.  Admission, removal and membership are O(1) with no
// per-entry allocation; only eviction scans the slab for a victim.
//
// On top of the pooled entries sit the robustness features, all off by
// default so the stock configuration replays bit-identical to the
// unbounded model:
//
//  * Retention constraints (DTN7-ESP's RETENTION_CONSTRAINT_* shape):
//    dispatch-pending source data and forward-pending retry-ledger
//    entries are never eviction victims.
//  * Deterministic eviction policies — drop-oldest (min admission
//    sequence), drop-largest-expected-delay (the routing table's
//    expected inter-landmark delay, ties to oldest), ttl-expire
//    (earliest deadline, ties to oldest) — that free space for an
//    incoming bundle instead of rejecting it.  Victim order is a pure
//    function of store contents, so reruns and resumed replays evict
//    identically.
//  * A received-id dedup set (sorted flat vector, deterministic
//    iteration) letting multicopy routers suppress re-admission of
//    logicals this store already carried.
//
// Every bundle is one 1 kB packet, so a full store either evicts
// exactly one retention-free victim by policy or refuses the incoming
// bundle.  There is no disk tier: everything a store holds is in memory.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <string_view>
#include <vector>

#include "net/packet.hpp"
#include "util/annotations.hpp"

namespace dtn::persist {
class Writer;
class Reader;
}  // namespace dtn::persist

namespace dtn::sim {
class AuditReport;
}  // namespace dtn::sim

namespace dtn::net {

/// What a full store does with an incoming bundle that does not fit.
enum class EvictionPolicy : std::uint8_t {
  kReject = 0,                  ///< refuse admission (the pre-store behaviour)
  kDropOldest = 1,              ///< evict the smallest admission sequence
  kDropLargestExpectedDelay = 2,///< evict the worst expected delivery delay
  kTtlExpire = 3,               ///< evict the earliest TTL deadline
};

[[nodiscard]] const char* to_string(EvictionPolicy p);
/// Parses the CLI spellings ("reject", "drop-oldest",
/// "drop-largest-expected-delay", "ttl-expire"); false on unknown input.
[[nodiscard]] bool parse_eviction_policy(std::string_view s,
                                         EvictionPolicy* out);

/// Why a bundle may not be chosen as an eviction victim (DTN7-ESP's
/// retention constraints).
enum class Retention : std::uint8_t {
  kNone = 0,
  /// Source data waiting at its origin station for a first carrier.
  kDispatchPending = 1,
  /// A failed transfer's retry is pending in the ledger (fault paths).
  kForwardPending = 2,
};

/// Per-workload store configuration (net::WorkloadConfig::store).  The
/// default value bounds nothing and enables nothing: replays are
/// bit-identical to the unbounded §V-A.1 model.
struct BundleStoreConfig {
  /// Landmark-station capacity; 0 keeps stations unbounded (§V-A.1).
  std::uint64_t station_memory_kb = 0;
  EvictionPolicy policy = EvictionPolicy::kReject;
  /// Received-id duplicate suppression for multicopy routers.
  bool dedup = false;
};

/// Outcome of one admission attempt.
enum class Admit : std::uint8_t {
  kStored,            ///< admitted (possibly after an eviction)
  kRefusedCapacity,   ///< no space and the policy could not make any
  kRefusedDuplicate,  ///< dedup set already saw this logical id
};

class BundleStore {
 public:
  /// Packet id -> position in the id list of the store holding it.  An
  /// entry is meaningful only where that store's id list holds the id at
  /// that position; a store grows the column to cover every id it
  /// admits, and a load expects the ids it lists to be kAbsent.
  using Column = std::vector<std::uint32_t>;
  static constexpr std::uint32_t kAbsent = static_cast<std::uint32_t>(-1);

  /// Capacity in kB, i.e. in packets (every packet is 1 kB); 0 means
  /// unbounded.  `column` is the position column shared by every store
  /// of the network and must outlive the store.  Configuration is
  /// fingerprinted, not checkpointed.
  BundleStore(std::uint64_t capacity_kb, EvictionPolicy policy, bool dedup,
              Column& column)
      : capacity_kb_(capacity_kb),
        column_(&column),
        policy_(policy),
        dedup_(dedup) {}

  /// Everything an admission decision needs, captured at the call site
  /// so the store never reaches back into the packet table.
  struct AdmitRequest {
    PacketId pid = kNoPacket;
    PacketId logical = kNoPacket;
    Retention retention = Retention::kNone;
    double expected_delay = 0.0;
    double deadline = std::numeric_limits<double>::infinity();
    /// Consult the dedup set (callers skip this for e.g. a copy
    /// returning to a store that legitimately re-hosts it).
    bool check_dedup = true;
  };

  [[nodiscard]] std::uint64_t capacity_kb() const { return capacity_kb_; }
  [[nodiscard]] bool unbounded() const { return capacity_kb_ == 0; }
  [[nodiscard]] bool has_space() const {
    return unbounded() || packets_.size() < capacity_kb_;
  }
  [[nodiscard]] std::size_t count() const { return packets_.size(); }
  [[nodiscard]] bool empty() const { return packets_.empty(); }
  [[nodiscard]] std::span<const PacketId> packets() const { return packets_; }
  [[nodiscard]] bool contains(PacketId pid) const {
    return index_of(pid) != packets_.size();
  }
  /// Position of `pid` in packets(), or count() when absent.
  [[nodiscard]] std::size_t index_of(PacketId pid) const {
    if (pid < column_->size()) {
      const std::uint32_t at = (*column_)[pid];
      if (at < packets_.size() && packets_[at] == pid) return at;
    }
    return packets_.size();
  }

  // -- admission / removal ---------------------------------------------
  /// Admits `req.pid` unless dedup or capacity refuses it; admitting an
  /// id the store already holds aborts.  On kStored after an eviction,
  /// the victim id (already removed from the store) is appended to
  /// `evicted_out` for the caller to retire; `evicted_out` may be null
  /// when the policy is kReject.  Never evicts bundles whose retention
  /// != kNone.
  [[nodiscard]] Admit admit(const AdmitRequest& req,
                            std::vector<PacketId>* evicted_out);

  /// Remove a bundle that must be present.
  void remove(PacketId pid);
  /// Remove the bundle at packets() position `i` (swap-erase of the id
  /// list and the slab).  Only the id moved into the hole gets a column
  /// write, so a transfer reads the source position, admits into the
  /// target (both share the column), then removes by that position.
  void remove_at(std::size_t i);

  // -- retention ---------------------------------------------------------
  /// Updates the retention constraint if `pid` is held; no-op otherwise.
  void set_retention_if_held(PacketId pid, Retention r);
  /// Retention of a held bundle (kNone when absent).
  [[nodiscard]] Retention retention(PacketId pid) const;

  // -- dedup -------------------------------------------------------------
  [[nodiscard]] bool dedup_enabled() const { return dedup_; }
  /// True when the dedup set has seen `logical` (always false when
  /// dedup is off, so router pre-checks are no-ops by default).
  [[nodiscard]] bool seen_logical(PacketId logical) const;
  [[nodiscard]] std::size_t dedup_seen_count() const { return seen_.size(); }

  [[nodiscard]] EvictionPolicy policy() const { return policy_; }

  // -- checkpointing (src/persist/, docs/checkpointing.md) --------------
  /// The id list is stored in order: TTL sweeps and crash flushes
  /// iterate it.  The column is not stored: load writes each listed
  /// id's position and refuses an id outside the column, an id list
  /// that overfills the capacity, and an id the column already places
  /// (named twice in this list, or held by a store loaded before).
  void save(persist::Writer& w) const;
  void load(persist::Reader& r);

  // -- invariant auditing (sim/invariant_auditor.hpp) -------------------
  /// Re-derives the pool accounting (metadata slab parallel to the id
  /// list, capacity bound), the position column (every id found at its
  /// own position) and the dedup set's sorted-unique and membership
  /// invariants.
  /// `label` prefixes failure details ("node 3", "station 7").
  void audit(sim::AuditReport& report, std::string_view label) const;

  /// Test-only seeded corruption for the auditor's negative tests; each
  /// is exactly revertible by the opposite sign.
  /// +1: duplicate the first seen id at the back (breaks sortedness);
  /// -1: undo.
  void debug_corrupt_dedup_order_for_test(int delta);
  /// +1: append a copy of the first entry to the metadata slab (the slab
  /// outgrows the id list); -1: undo.
  void debug_corrupt_pool_size_for_test(int delta);
  /// Re-point the first id's column entry by `delta` slots (the bug
  /// class: a swap-erase renumbered the moved id wrong).
  void debug_corrupt_index_for_test(int delta);

 private:
  struct Entry {
    std::uint64_t admit_seq = 0;
    double expected_delay = 0.0;
    double deadline = std::numeric_limits<double>::infinity();
    PacketId logical = kNoPacket;
    Retention retention = Retention::kNone;

    /// The bundle metadata image.
    template <class Ar>
    void fields(Ar& ar);
  };

  template <class Ar>
  void fields(Ar& ar);

  void note_seen(PacketId logical);
  /// Evicts one retention-free victim per `policy_`; false (store
  /// unchanged) when every resident is retained.
  bool evict_for(std::vector<PacketId>* evicted_out);
  [[nodiscard]] std::size_t pick_victim() const;

  DTN_CKPT_SKIP("configuration, pinned by the config fingerprint")
  std::uint64_t capacity_kb_;
  std::vector<PacketId> packets_;
  DTN_CKPT_SKIP("shared with every store; load writes this store's ids")
  Column* column_;
  /// Pooled entry slab, parallel to packets_ (same swap-erase).
  std::vector<Entry> meta_;
  std::uint64_t next_admit_seq_ = 0;
  /// Sorted unique logical ids this store has admitted (dedup set).
  std::vector<PacketId> seen_;
  DTN_CKPT_SKIP("configuration, pinned by the config fingerprint")
  EvictionPolicy policy_;
  DTN_CKPT_SKIP("configuration, pinned by the config fingerprint")
  bool dedup_;
};

}  // namespace dtn::net
