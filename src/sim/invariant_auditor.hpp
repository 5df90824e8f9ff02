// Dynamic simulation-invariant auditor (docs/static-analysis.md).
//
// PRs 1-2 replaced safe structures with sharp ones on every hot path:
// packed bit-cast heap keys, interned Markov context keys with an
// incrementally maintained argmax, dirty-column incremental
// routing-table recompute.  Each of those
// carries an invariant that, if silently violated, corrupts simulation
// results without crashing.  This subsystem makes the invariants
// *checkable at runtime*: subsystems register named check callbacks
// (each re-derives its invariant from scratch and compares against the
// incrementally maintained state), and the auditor runs the full set
// periodically during a replay and/or on demand.
//
// Gating: auditing is off by default and costs one predicted branch per
// replayed event.  It is enabled per run
// (net::WorkloadConfig::audit_period_events) or globally via the
// environment:
//
//   DTN_AUDIT=1          enable periodic audits (default period below)
//   DTN_AUDIT_PERIOD=N   audit after every N-th dispatched event
//
// On failure the default is to print every violated invariant and
// abort (the DTN_ASSERT policy: a corrupt simulation must not keep
// producing numbers).  Tests construct the auditor with
// abort_on_failure = false and assert on the report instead — that is
// how the seeded-corruption negative tests prove the auditor actually
// detects each bug class.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "util/assert.hpp"

namespace dtn::sim {

/// One violated invariant: which registered check saw it, and where.
struct AuditFailure {
  std::string check;
  std::string detail;
};

/// Failure collector handed to every check.  Checks call `fail()` for
/// each violation they find and keep going — a report lists every
/// broken invariant, not just the first.
class AuditReport {
 public:
  /// Record a violation, attributed to the current check context.
  void fail(std::string detail);

  /// Name the check whose failures are being recorded (the auditor sets
  /// this before invoking each registered check; standalone callers of
  /// a subsystem's audit() may set it themselves).
  void set_context(std::string check_name) { context_ = std::move(check_name); }

  [[nodiscard]] bool ok() const { return failures_.empty(); }
  [[nodiscard]] const std::vector<AuditFailure>& failures() const {
    return failures_;
  }

  /// Multi-line human-readable failure list (empty string when ok).
  [[nodiscard]] std::string to_string() const;

 private:
  std::string context_ = "(unattributed)";
  std::vector<AuditFailure> failures_;
};

class InvariantAuditor {
 public:
  using Check = std::function<void(AuditReport&)>;

  struct Config {
    bool enabled = false;
    /// Dispatched events between periodic audits (> 0); audits fire at
    /// its multiples.
    std::uint64_t period_events = 65536;
    /// Print + abort on any failure (the production stance).  Negative
    /// tests set false and inspect the report.
    bool abort_on_failure = true;
  };

  /// Config from DTN_AUDIT / DTN_AUDIT_PERIOD (see header comment);
  /// defaults (disabled) when unset.
  static Config config_from_env();

  InvariantAuditor() : InvariantAuditor(config_from_env()) {}
  explicit InvariantAuditor(Config cfg) : cfg_(cfg) {
    DTN_ASSERT(cfg_.period_events > 0);
  }

  /// Register a named check.  Names appear in failure reports; keep
  /// them stable ("event_queue.heap", "network.present_sets", ...).
  void register_check(std::string name, Check fn);

  [[nodiscard]] bool enabled() const { return cfg_.enabled; }
  [[nodiscard]] const Config& config() const { return cfg_; }

  /// Replay-loop hook: call after every event with the run's
  /// dispatched-event count.  Cheap when disabled (one branch); runs a
  /// full audit when the count is a multiple of `period_events`, so a
  /// replay audits after events N, 2N, 3N, ... for a period of N, and a
  /// run resumed from a checkpoint audits at the very same counts.
  void on_boundary(std::uint64_t executed) {
    if (!cfg_.enabled || executed % cfg_.period_events != 0) return;
    audit_now();
  }

  /// Run every registered check now, regardless of gating.  Aborts on
  /// failure when configured to; otherwise the caller inspects the
  /// returned report.
  AuditReport audit_now();

  [[nodiscard]] std::size_t checks_registered() const {
    return checks_.size();
  }
  [[nodiscard]] std::uint64_t audits_run() const { return audits_run_; }

 private:
  Config cfg_;
  std::vector<std::pair<std::string, Check>> checks_;
  std::uint64_t audits_run_ = 0;
};

}  // namespace dtn::sim
