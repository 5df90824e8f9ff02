// Deterministic fault injection for trace replays (docs/fault-injection.md).
//
// A `FaultPlan` describes every fault a run may suffer: node crashes and
// reboots (with configurable buffer loss), landmark-station outages and
// recoveries, mid-contact transfer failures with retry/backoff, and
// control-plane faults (loss or deferral of the distance vectors that
// ride on mobile nodes).  Faults come from two sources that compose:
//
//  * scheduled entries — exact (who, when, how long) tuples, the
//    reproducible-experiment and unit-test workhorse;
//  * stochastic rates — per-day Poisson crash/outage processes and
//    per-attempt failure probabilities, for sweeps.
//
// Determinism contract: the injector draws from its own RNG streams
// (split from `FaultPlan::seed`, never from the workload RNG), draws
// only when the corresponding probability/rate is actually positive,
// and schedules events only for faults that exist.  A plan with all
// probabilities zero and no scheduled entries therefore leaves the
// replay bit-identical to a run with no plan at all — the golden
// determinism tests pin this down.
//
// The injector also owns the authoritative up/down state ("outage
// sets"): the engine asks `node_down` / `station_down` before any radio
// operation, and the invariant auditor cross-checks the bitsets against
// the counters and the router's own degraded-mode view.  The sets are
// the running result of an append-only transition log, which is what a
// checkpoint stores.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "util/annotations.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"

namespace dtn::persist {
class Writer;
class Reader;
}  // namespace dtn::persist

namespace dtn::sim {

class AuditReport;

/// Seconds per day, for the per-day stochastic fault rates.  (The sim
/// layer sits below trace/, so trace::kDay is not visible here; the
/// value is fixed by the trace schema anyway.)
inline constexpr double kFaultDaySeconds = 86400.0;

struct FaultPlan {
  /// Seed of the injector's own RNG streams; independent of the
  /// workload seed so attaching a plan never perturbs the workload.
  std::uint64_t seed = 0x0fau;

  // -- (a) node crashes / reboots ---------------------------------------
  /// A scheduled crash: the node dies at `time` (losing buffered
  /// packets per `crash_buffer_loss`) and reboots `downtime` later.
  struct NodeCrash {
    std::uint32_t node = 0;
    double time = 0.0;
    double downtime = 6.0 * 3600.0;
  };
  std::vector<NodeCrash> node_crashes;
  /// Stochastic crash process: per-node Poisson rate (crashes/day);
  /// 0 disables.  The next crash is drawn after each reboot, so a node
  /// never crashes while already down.
  double node_crash_rate_per_day = 0.0;
  /// Mean of the exponential downtime of stochastic crashes (seconds).
  double node_mean_downtime = 6.0 * 3600.0;
  /// Fraction of the crashed node's buffered packets that are lost
  /// (each packet draws independently; 1 = lose everything, 0 = the
  /// buffer survives the reboot).
  double crash_buffer_loss = 1.0;

  // -- (b) landmark-station outages -------------------------------------
  /// A scheduled outage: the station is down during [start, end).
  /// Station storage is durable (the station is down, not wiped).
  struct StationOutage {
    std::uint32_t station = 0;
    double start = 0.0;
    double end = 0.0;
  };
  std::vector<StationOutage> station_outages;
  /// Stochastic outage process: per-station Poisson rate (outages/day);
  /// the next outage is drawn at each recovery.  0 disables.
  double station_outage_rate_per_day = 0.0;
  /// Mean of the exponential outage duration (seconds).
  double station_mean_outage = 12.0 * 3600.0;

  // -- (c) mid-contact transfer failures --------------------------------
  /// Probability that any single transfer attempt breaks mid-contact
  /// (the packet stays with the sender and enters retry/backoff).
  double transfer_failure_prob = 0.0;
  /// First retry happens this many seconds after the failed attempt;
  /// subsequent failures back off exponentially (x2) up to the cap.
  double retry_backoff = 600.0;
  double retry_backoff_max = 6.0 * 3600.0;

  // -- (d) control-plane faults -----------------------------------------
  /// Probability that a carried distance vector is lost in transit
  /// (drawn once per snapshot picked up at departure).
  double dv_loss_prob = 0.0;
  /// Probability that a carried distance vector is *not* delivered at
  /// the next landmark but carried onward (delayed DV propagation;
  /// drawn per arrival while the vector is still carried).
  double dv_delay_prob = 0.0;

  /// True when any fault can ever fire (any schedule non-empty or any
  /// rate/probability positive).
  [[nodiscard]] bool any() const;

  /// Reject malformed plans with std::invalid_argument: negative or
  /// out-of-range rates/probabilities, non-positive durations, unknown
  /// node/station ids, overlapping scheduled windows for the same
  /// node or station, and scheduled crashes (outages) mixed with a
  /// positive crash (outage) rate, whose windows could overlap.
  void validate(std::size_t num_nodes, std::size_t num_landmarks) const;
};

/// Build a FaultPlan from `--fault-*` options (see docs/fault-injection.md
/// for the flag list); returns nullopt when no --fault-* option is
/// present.  Unknown --fault-* keys throw std::invalid_argument so typos
/// in sweep scripts fail loudly.
[[nodiscard]] std::optional<FaultPlan> fault_plan_from_cli(
    const CliOptions& opts);

/// Runtime state machine of one replay's faults: owns the RNG streams,
/// the node/station down bitsets, their transition log and the draw
/// helpers.  The engine (net::Network) drives it from fault events and
/// consults it before every radio operation.
class FaultInjector {
 public:
  /// One entry of the transition log: at `time`, node or station `id`
  /// went down or came back up.
  struct Transition {
    enum class Kind : std::uint8_t {
      kNodeDown,
      kNodeUp,
      kStationDown,
      kStationUp,
    };
    double time = 0.0;
    std::uint32_t id = 0;
    Kind kind = Kind::kNodeDown;

    [[nodiscard]] bool node() const {
      return kind == Kind::kNodeDown || kind == Kind::kNodeUp;
    }
    [[nodiscard]] bool down() const {
      return kind == Kind::kNodeDown || kind == Kind::kStationDown;
    }
  };

  FaultInjector(const FaultPlan& plan, std::size_t num_nodes,
                std::size_t num_landmarks);

  [[nodiscard]] const FaultPlan& plan() const { return plan_; }

  // -- outage sets ------------------------------------------------------
  [[nodiscard]] bool node_down(std::uint32_t node) const {
    return node_down_[node] != 0;
  }
  [[nodiscard]] bool station_down(std::uint32_t station) const {
    return station_down_[station] != 0;
  }
  [[nodiscard]] std::size_t nodes_down() const { return nodes_down_count_; }
  [[nodiscard]] std::size_t stations_down() const {
    return stations_down_count_;
  }

  /// Crash and outage bookkeeping at simulation time `time`: flip one
  /// down bit and log the transition.  Downing a down id (a plan bug
  /// validate() refuses), raising an up one or going back in time
  /// aborts via DTN_ASSERT.
  void mark_node_down(std::uint32_t node, double time) {
    record({time, node, Transition::Kind::kNodeDown});
  }
  void mark_node_up(std::uint32_t node, double time) {
    record({time, node, Transition::Kind::kNodeUp});
  }
  void mark_station_down(std::uint32_t station, double time) {
    record({time, station, Transition::Kind::kStationDown});
  }
  void mark_station_up(std::uint32_t station, double time) {
    record({time, station, Transition::Kind::kStationUp});
  }

  /// Every transition so far, in time order.  Trace events run before
  /// fault events of the same time, so the down sets a trace event at
  /// time t saw are the result of the transitions with time < t.
  [[nodiscard]] std::span<const Transition> log() const { return log_; }

  // -- deterministic draws ----------------------------------------------
  // Each family draws from its own split stream, and only when its
  // probability/rate is positive — zero-probability faults consume no
  // randomness (the bit-identical-when-empty contract).
  [[nodiscard]] bool transfer_faults_enabled() const {
    return plan_.transfer_failure_prob > 0.0;
  }
  [[nodiscard]] bool draw_transfer_failure();
  /// Does this buffered packet die in the crash?  Degenerate fractions
  /// (<= 0, >= 1) are answered without drawing.
  [[nodiscard]] bool draw_crash_packet_loss();
  [[nodiscard]] bool draw_dv_loss();
  [[nodiscard]] bool draw_dv_delay();
  /// Gap to the next stochastic crash of one node (exponential;
  /// requires node_crash_rate_per_day > 0).
  [[nodiscard]] double draw_crash_gap();
  [[nodiscard]] double draw_downtime();
  /// Gap to the next stochastic outage of one station (requires
  /// station_outage_rate_per_day > 0).
  [[nodiscard]] double draw_outage_gap();
  [[nodiscard]] double draw_outage_duration();

  /// Backoff before retry number `attempts` (1-based): retry_backoff x
  /// 2^(attempts-1), capped at retry_backoff_max.
  [[nodiscard]] double retry_backoff(std::uint32_t attempts) const;

  /// Invariant audit: down counts must equal the bitsets' popcounts.
  void audit(AuditReport& report) const;

  // -- checkpointing (src/persist/, docs/checkpointing.md) --------------
  /// Runtime state only: the plan is configuration, fingerprinted by the
  /// engine, so a resume must be handed the plan it crashed under.  The
  /// image holds the RNG streams and the log; `load` rebuilds the down
  /// sets from the log and throws persist::FormatError on a log that
  /// goes back in time, names an id out of range, downs an id that is
  /// already down or raises one that is already up.
  void save(persist::Writer& w) const;
  void load(persist::Reader& r);

 private:
  template <class Ar>
  void fields(Ar& ar);

  /// Apply `t` to the down sets; returns what is wrong with it (an id
  /// out of range, a down id downed, an up id raised) and leaves the
  /// sets unchanged, or nullptr once applied.
  const char* flip(const Transition& t);
  /// Apply `t` (which must be sound) and append it to the log.
  void record(const Transition& t);

  DTN_CKPT_SKIP("construction-time plan; resume rebuilds the injector from it")
  FaultPlan plan_;
  Rng crash_rng_;
  Rng outage_rng_;
  Rng transfer_rng_;
  Rng control_rng_;
  std::vector<Transition> log_;
  DTN_CKPT_SKIP("rebuilt from the transition log on load")
  std::vector<std::uint8_t> node_down_;
  DTN_CKPT_SKIP("rebuilt from the transition log on load")
  std::vector<std::uint8_t> station_down_;
  DTN_CKPT_SKIP("rebuilt from the transition log on load")
  std::size_t nodes_down_count_ = 0;
  DTN_CKPT_SKIP("rebuilt from the transition log on load")
  std::size_t stations_down_count_ = 0;
};

}  // namespace dtn::sim
