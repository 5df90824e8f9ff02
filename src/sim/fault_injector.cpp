#include "sim/fault_injector.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>

#include "persist/serializer.hpp"
#include "sim/invariant_auditor.hpp"
#include "util/assert.hpp"

namespace dtn::sim {

namespace {

void require(bool ok, const std::string& what) {
  if (!ok) throw std::invalid_argument("fault plan: " + what);
}

void require_probability(double p, const std::string& name) {
  require(p >= 0.0 && p <= 1.0,
          name + " must be in [0, 1], got " + std::to_string(p));
}

void require_rate(double r, const std::string& name) {
  require(r >= 0.0 && r == r,  // also rejects NaN
          name + " must be >= 0, got " + std::to_string(r));
}

/// Reject overlapping [start, end) windows that target the same id.
template <typename Window>
void require_disjoint(std::vector<Window> windows, const std::string& what) {
  std::sort(windows.begin(), windows.end(), [](const Window& a,
                                               const Window& b) {
    if (a.id != b.id) return a.id < b.id;
    return a.start < b.start;
  });
  for (std::size_t i = 1; i < windows.size(); ++i) {
    const Window& prev = windows[i - 1];
    const Window& cur = windows[i];
    if (prev.id == cur.id && cur.start < prev.end) {
      throw std::invalid_argument(
          "fault plan: overlapping " + what + " windows for id " +
          std::to_string(cur.id) + " (window starting at " +
          std::to_string(cur.start) + " begins before the window starting at " +
          std::to_string(prev.start) + " ends at " + std::to_string(prev.end) +
          ")");
    }
  }
}

struct IdWindow {
  std::uint32_t id;
  double start;
  double end;
};

}  // namespace

bool FaultPlan::any() const {
  return !node_crashes.empty() || !station_outages.empty() ||
         node_crash_rate_per_day > 0.0 || station_outage_rate_per_day > 0.0 ||
         transfer_failure_prob > 0.0 || dv_loss_prob > 0.0 ||
         dv_delay_prob > 0.0;
}

void FaultPlan::validate(std::size_t num_nodes,
                         std::size_t num_landmarks) const {
  require_rate(node_crash_rate_per_day, "node_crash_rate_per_day");
  require_rate(station_outage_rate_per_day, "station_outage_rate_per_day");
  require_probability(transfer_failure_prob, "transfer_failure_prob");
  require_probability(crash_buffer_loss, "crash_buffer_loss");
  require_probability(dv_loss_prob, "dv_loss_prob");
  require_probability(dv_delay_prob, "dv_delay_prob");
  require(node_mean_downtime > 0.0, "node_mean_downtime must be > 0, got " +
                                        std::to_string(node_mean_downtime));
  require(station_mean_outage > 0.0, "station_mean_outage must be > 0, got " +
                                         std::to_string(station_mean_outage));
  require(retry_backoff > 0.0,
          "retry_backoff must be > 0, got " + std::to_string(retry_backoff));
  require(retry_backoff_max >= retry_backoff,
          "retry_backoff_max must be >= retry_backoff");
  // A scheduled window and a stochastic one of the same family could
  // overlap on one id, and the second would find it already down.
  require(node_crashes.empty() || node_crash_rate_per_day == 0.0,
          "scheduled node crashes cannot be combined with "
          "node_crash_rate_per_day > 0");
  require(station_outages.empty() || station_outage_rate_per_day == 0.0,
          "scheduled station outages cannot be combined with "
          "station_outage_rate_per_day > 0");

  std::vector<IdWindow> crash_windows;
  crash_windows.reserve(node_crashes.size());
  for (const NodeCrash& c : node_crashes) {
    require(c.node < num_nodes, "scheduled crash names unknown node id " +
                                    std::to_string(c.node) + " (trace has " +
                                    std::to_string(num_nodes) + " nodes)");
    require(c.time >= 0.0, "scheduled crash time must be >= 0");
    require(c.downtime > 0.0, "scheduled crash downtime must be > 0, got " +
                                  std::to_string(c.downtime));
    crash_windows.push_back({c.node, c.time, c.time + c.downtime});
  }
  require_disjoint(std::move(crash_windows), "node-crash");

  std::vector<IdWindow> outage_windows;
  outage_windows.reserve(station_outages.size());
  for (const StationOutage& o : station_outages) {
    require(o.station < num_landmarks,
            "scheduled outage names unknown station id " +
                std::to_string(o.station) + " (trace has " +
                std::to_string(num_landmarks) + " landmarks)");
    require(o.start >= 0.0, "scheduled outage start must be >= 0");
    require(o.end > o.start, "scheduled outage window must have end > start "
                             "(station " + std::to_string(o.station) + ")");
    outage_windows.push_back({o.station, o.start, o.end});
  }
  require_disjoint(std::move(outage_windows), "station-outage");
}

std::optional<FaultPlan> fault_plan_from_cli(const CliOptions& opts) {
  // Every --fault-* key the parser understands; anything else starting
  // with fault- is a typo and throws.
  struct Binding {
    const char* key;
    double FaultPlan::* field;
  };
  static constexpr Binding kBindings[] = {
      {"fault-node-crash-rate", &FaultPlan::node_crash_rate_per_day},
      {"fault-node-downtime", &FaultPlan::node_mean_downtime},
      {"fault-crash-loss", &FaultPlan::crash_buffer_loss},
      {"fault-station-outage-rate", &FaultPlan::station_outage_rate_per_day},
      {"fault-station-outage-duration", &FaultPlan::station_mean_outage},
      {"fault-transfer-fail", &FaultPlan::transfer_failure_prob},
      {"fault-retry-backoff", &FaultPlan::retry_backoff},
      {"fault-retry-backoff-max", &FaultPlan::retry_backoff_max},
      {"fault-dv-loss", &FaultPlan::dv_loss_prob},
      {"fault-dv-delay", &FaultPlan::dv_delay_prob},
  };
  FaultPlan plan;
  bool any_key = false;
  for (const Binding& b : kBindings) {
    if (!opts.has(b.key)) continue;
    any_key = true;
    plan.*(b.field) = opts.get_double(b.key, plan.*(b.field));
  }
  if (opts.has("fault-seed")) {
    any_key = true;
    plan.seed = static_cast<std::uint64_t>(opts.get_int(
        "fault-seed", static_cast<std::int64_t>(plan.seed)));
  }
  for (const std::string& key : opts.keys_with_prefix("fault-")) {
    const bool known =
        key == "fault-seed" ||
        std::any_of(std::begin(kBindings), std::end(kBindings),
                    [&](const Binding& b) { return key == b.key; });
    if (!known) {
      throw std::invalid_argument("unknown fault option --" + key +
                                  " (see docs/fault-injection.md)");
    }
  }
  if (!any_key) return std::nullopt;
  return plan;
}

FaultInjector::FaultInjector(const FaultPlan& plan, std::size_t num_nodes,
                             std::size_t num_landmarks)
    : plan_(plan),
      node_down_(num_nodes, 0),
      station_down_(num_landmarks, 0) {
  plan_.validate(num_nodes, num_landmarks);
  // Per-family streams: a family that draws more (e.g. many transfer
  // attempts) never shifts another family's sequence.
  Rng base(plan_.seed);
  crash_rng_ = base.split(1);
  outage_rng_ = base.split(2);
  transfer_rng_ = base.split(3);
  control_rng_ = base.split(4);
}

const char* FaultInjector::flip(const Transition& t) {
  std::vector<std::uint8_t>& set = t.node() ? node_down_ : station_down_;
  std::size_t& count = t.node() ? nodes_down_count_ : stations_down_count_;
  if (t.id >= set.size()) return "names an id out of range";
  if ((set[t.id] != 0) == t.down()) {
    return t.down() ? "downs an id that is already down"
                    : "raises an id that is already up";
  }
  set[t.id] = t.down() ? 1 : 0;
  count = t.down() ? count + 1 : count - 1;
  return nullptr;
}

void FaultInjector::record(const Transition& t) {
  DTN_ASSERT(log_.empty() || t.time >= log_.back().time);
  // Double crash or overlapping outages: the plan downed an id that is
  // already down (validate() refuses every plan that could, and the
  // stochastic processes draw the next window only at recovery).
  const char* defect = flip(t);
  DTN_ASSERT(defect == nullptr);
  log_.push_back(t);
}

bool FaultInjector::draw_transfer_failure() {
  if (plan_.transfer_failure_prob <= 0.0) return false;
  if (plan_.transfer_failure_prob >= 1.0) return true;
  return transfer_rng_.bernoulli(plan_.transfer_failure_prob);
}

bool FaultInjector::draw_crash_packet_loss() {
  if (plan_.crash_buffer_loss >= 1.0) return true;
  if (plan_.crash_buffer_loss <= 0.0) return false;
  return crash_rng_.bernoulli(plan_.crash_buffer_loss);
}

bool FaultInjector::draw_dv_loss() {
  if (plan_.dv_loss_prob <= 0.0) return false;
  if (plan_.dv_loss_prob >= 1.0) return true;
  return control_rng_.bernoulli(plan_.dv_loss_prob);
}

bool FaultInjector::draw_dv_delay() {
  if (plan_.dv_delay_prob <= 0.0) return false;
  if (plan_.dv_delay_prob >= 1.0) return true;
  return control_rng_.bernoulli(plan_.dv_delay_prob);
}

double FaultInjector::draw_crash_gap() {
  DTN_ASSERT(plan_.node_crash_rate_per_day > 0.0);
  return crash_rng_.exponential(kFaultDaySeconds /
                                plan_.node_crash_rate_per_day);
}

double FaultInjector::draw_downtime() {
  return crash_rng_.exponential(plan_.node_mean_downtime);
}

double FaultInjector::draw_outage_gap() {
  DTN_ASSERT(plan_.station_outage_rate_per_day > 0.0);
  return outage_rng_.exponential(kFaultDaySeconds /
                                 plan_.station_outage_rate_per_day);
}

double FaultInjector::draw_outage_duration() {
  return outage_rng_.exponential(plan_.station_mean_outage);
}

double FaultInjector::retry_backoff(std::uint32_t attempts) const {
  DTN_ASSERT(attempts >= 1);
  double backoff = plan_.retry_backoff;
  for (std::uint32_t i = 1; i < attempts && backoff < plan_.retry_backoff_max;
       ++i) {
    backoff *= 2.0;
  }
  return std::min(backoff, plan_.retry_backoff_max);
}

void FaultInjector::audit(AuditReport& report) const {
  std::size_t nodes = 0;
  for (const std::uint8_t d : node_down_) nodes += d != 0 ? 1 : 0;
  if (nodes != nodes_down_count_) {
    report.fail("node down-count " + std::to_string(nodes_down_count_) +
                " disagrees with bitset popcount " + std::to_string(nodes));
  }
  std::size_t stations = 0;
  for (const std::uint8_t d : station_down_) stations += d != 0 ? 1 : 0;
  if (stations != stations_down_count_) {
    report.fail("station down-count " + std::to_string(stations_down_count_) +
                " disagrees with bitset popcount " + std::to_string(stations));
  }
}

template <class Ar>
void FaultInjector::fields(Ar& ar) {
  ar.rng("crash rng", crash_rng_);
  ar.rng("outage rng", outage_rng_);
  ar.rng("transfer rng", transfer_rng_);
  ar.rng("control rng", control_rng_);
  // The down sets are the log's running result: a load replays it.
  if constexpr (Ar::loading) {
    std::fill(node_down_.begin(), node_down_.end(), 0);
    std::fill(station_down_.begin(), station_down_.end(), 0);
    nodes_down_count_ = 0;
    stations_down_count_ = 0;
  }
  [[maybe_unused]] double last = -std::numeric_limits<double>::infinity();
  ar.seq("fault transitions", log_, [&](Transition& t) {
    ar.value("transition time", t.time);
    ar.value("transition id", t.id);
    ar.index("transition kind", t.kind,
             static_cast<std::size_t>(Transition::Kind::kStationUp) + 1);
    if constexpr (Ar::loading) {
      // NaN fails the comparison too.
      ar.check(t.time >= last, "fault transition goes back in time");
      last = t.time;
      const char* defect = flip(t);
      ar.check(defect == nullptr, "fault transition ",
               defect == nullptr ? "" : defect);
    }
  });
}

void FaultInjector::save(persist::Writer& w) const {
  const_cast<FaultInjector*>(this)->fields(w);
}

void FaultInjector::load(persist::Reader& r) { fields(r); }

}  // namespace dtn::sim
