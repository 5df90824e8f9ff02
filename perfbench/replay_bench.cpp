// Replay benchmark driver.
//
// Builds a few input sets of one workload from a seed, replays the full
// DTN-FLOW simulation over them again and again for a wall-clock budget,
// checks every replay against a validated reference replay of its set,
// and prints one JSON result line as the last line of standard output.
//
//   replay_bench --workload campus|city --seed N --seconds S
//                --trace 0|1 --scratch DIR
//
// --trace 0 reports the end-to-end metrics, each timing taken next to a
// fixed calibration kernel and expressed at idle-host speed (see
// Calibrator).  --trace 1 reports per-layer figures instead, as raw wall
// times plus the kernel's own time: the router is wrapped in a decorator
// that times each hook, and the trace cursor, the engine without routing,
// the stepped (checkpoint-capable) loop, snapshot persistence and resume
// are timed in passes of their own.  Every span is taken here, around
// public library calls; the library itself carries no instrumentation.
// Checkpoint files go under --scratch, which is removed before exit.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/dtn_flow_router.hpp"
#include "net/network.hpp"
#include "persist/checkpoint.hpp"
#include "sim/invariant_auditor.hpp"
#include "trace/campus_generator.hpp"
#include "trace/city_generator.hpp"
#include "trace/cursor.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"

namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;
using dtn::core::DtnFlowDiagnostics;
using dtn::core::DtnFlowRouter;
using dtn::net::LandmarkId;
using dtn::net::Network;
using dtn::net::NodeId;
using dtn::net::PacketId;
using dtn::net::Router;
using dtn::net::RunCounters;
using dtn::trace::kDay;

/// Set-up is repeated this often per run; the median is reported.
constexpr int kSetupRepeats = 31;
/// Independent input sets per run, derived from the run's seed.  Replay
/// cost differs by several percent from one seed's trace to the next;
/// reporting the mean over a few sets damps that between seeds.
constexpr std::uint64_t kInputSets = 3;
/// Lower bound on measured iterations, whatever the time budget.
constexpr std::uint64_t kMinIterations = 2 * kInputSets;
/// Snapshot cadence of checkpointed replays: one per simulated day.
constexpr double kSnapshotEvery = 1.0 * kDay;
/// Calibration table: 4 MiB, beyond a core's L2 and well inside the L3.
constexpr std::size_t kCalibWords = std::size_t{1} << 20;
constexpr int kCalibUpdates = 2'000'000;
/// The calibration kernel's time on an idle host (4-vCPU Xeon VM, 2 MiB
/// L2 per core, 105 MiB shared L3, GCC -O3).
constexpr double kCalibIdleSeconds = 8.7e-3;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(const std::vector<double>& v) { return dtn::quantile(v, 0.5); }

/// Host-speed calibration.  The benchmark runs on a shared host whose
/// neighbours contend for cache and memory bandwidth: in busy spells,
/// lasting tens of seconds, every replay ran up to twice as slow, in CPU
/// time as much as in wall time.  This fixed kernel of random
/// read-modify-writes over a table larger than L2 slows by nearly the same
/// factor (campus replay/kernel ratios stayed within 6% while replay times
/// doubled), so each timing is taken next to a kernel timing and reported
/// as `seconds / kernel * kCalibIdleSeconds`: its duration at idle-host
/// speed.  The city replay slows somewhat less than the kernel, so in busy
/// spells its normalised times read up to about a tenth low.  The kernel
/// lives here, not in the simulator, so no change to the simulator moves
/// it.
class Calibrator {
 public:
  /// Wall time of one kernel pass.  The table is rewritten first so the
  /// pass starts from the same cache state whatever ran before it.
  double pass() {
    std::fill(table_.begin(), table_.end(), 1u);
    const auto t0 = Clock::now();
    std::uint64_t x = 0x9E3779B97F4A7C15ULL;
    std::uint64_t acc = 0;
    for (int i = 0; i < kCalibUpdates; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      std::uint32_t& slot = table_[x & (kCalibWords - 1)];
      acc += slot;
      slot += static_cast<std::uint32_t>(x);
    }
    const double s = seconds_since(t0);
    sink_ += acc;
    return s;
  }

  /// `seconds` measured next to a kernel pass of `kernel` seconds,
  /// expressed at idle-host speed.
  static double normalise(double seconds, double kernel) {
    return seconds / kernel * kCalibIdleSeconds;
  }

  /// Folded into the result so the kernel's work cannot be optimised out.
  [[nodiscard]] std::uint64_t sink() const { return sink_; }

 private:
  std::vector<std::uint32_t> table_ = std::vector<std::uint32_t>(kCalibWords);
  std::uint64_t sink_ = 0;
};

// -- workloads ------------------------------------------------------------

struct Inputs {
  dtn::trace::Trace trace;
  dtn::net::WorkloadConfig workload;
};

/// The trace and packet workload of one benchmark workload, derived from
/// `seed` alone.  Sizes follow the quick-scale campus scenario
/// (bench/bench_common.cpp) and the city tier of bench/bench_micro.cpp,
/// so one replay takes about a tenth of a second.
std::optional<Inputs> make_inputs(const std::string& name,
                                  std::uint64_t seed) {
  Inputs in;
  dtn::net::WorkloadConfig& wl = in.workload;
  wl.warmup_fraction = 0.25;
  wl.seed = seed * 31 + 7;
  if (name == "campus") {
    dtn::trace::CampusTraceConfig cfg;
    cfg.num_nodes = 64;
    cfg.num_landmarks = 30;
    cfg.num_communities = 14;
    cfg.community_landmarks = 4;
    cfg.community_bias = 0.85;
    cfg.days = 32.0;
    cfg.seed = seed;
    in.trace = dtn::trace::generate_campus_trace(cfg);
    wl.packets_per_landmark_per_day = 30.0;
    wl.ttl = 4.0 * kDay;
    wl.node_memory_kb = 40;
    wl.time_unit = 1.0 * kDay;
  } else if (name == "city") {
    dtn::trace::CityTraceConfig cfg;
    cfg.num_pedestrians = 1200;
    cfg.num_buses = 24;
    cfg.num_landmarks = 96;
    cfg.num_districts = 8;
    cfg.days = 1.0;
    cfg.seed = seed;
    in.trace = dtn::trace::generate_city_trace(cfg);
    wl.packets_per_landmark_per_day = 2.0;
    wl.ttl = 0.5 * kDay;
    wl.node_memory_kb = 20;
    wl.time_unit = 0.25 * kDay;
  } else {
    return std::nullopt;
  }
  return in;
}

// -- router hook spans ----------------------------------------------------

/// Wall time and call count per router hook, summed over one replay.
struct HookTimes {
  enum Hook { kArrival, kDeparture, kContact, kGenerated, kTimeUnit, kCount };
  double seconds[kCount] = {};
  std::uint64_t calls[kCount] = {};

  [[nodiscard]] double total() const {
    double sum = 0.0;
    for (const double s : seconds) sum += s;
    return sum;
  }
};

/// Router decorator: forwards every hook to the wrapped router and times
/// the packet-handling ones.  The network calls the router and never the
/// reverse, so hooks do not nest and each span is the hook's self time,
/// including the transfers and store admissions it asks the network for.
class TimedRouter final : public Router {
 public:
  TimedRouter(Router& inner, HookTimes& times)
      : inner_(inner), times_(times) {}

  [[nodiscard]] std::string name() const override { return inner_.name(); }
  [[nodiscard]] bool uses_stations() const override {
    return inner_.uses_stations();
  }
  [[nodiscard]] bool checkpointable() const override {
    return inner_.checkpointable();
  }
  void checkpoint_save(dtn::persist::Writer& w) const override {
    inner_.checkpoint_save(w);
  }
  void checkpoint_load(dtn::persist::Reader& r, Network& net) override {
    inner_.checkpoint_load(r, net);
  }
  void audit(const Network& net,
             dtn::sim::AuditReport& report) const override {
    inner_.audit(net, report);
  }

  void on_init(Network& net) override { inner_.on_init(net); }
  void on_arrival(Network& net, NodeId node, LandmarkId l) override {
    const Span span(times_, HookTimes::kArrival);
    inner_.on_arrival(net, node, l);
  }
  void on_departure(Network& net, NodeId node, LandmarkId l) override {
    const Span span(times_, HookTimes::kDeparture);
    inner_.on_departure(net, node, l);
  }
  void on_departure_batch_begin(Network& net, LandmarkId l,
                                std::size_t count) override {
    inner_.on_departure_batch_begin(net, l, count);
  }
  void on_contact(Network& net, NodeId arriving, NodeId present,
                  LandmarkId l) override {
    const Span span(times_, HookTimes::kContact);
    inner_.on_contact(net, arriving, present, l);
  }
  void on_packet_generated(Network& net, PacketId pid) override {
    const Span span(times_, HookTimes::kGenerated);
    inner_.on_packet_generated(net, pid);
  }
  void on_time_unit(Network& net, std::size_t unit_index) override {
    const Span span(times_, HookTimes::kTimeUnit);
    inner_.on_time_unit(net, unit_index);
  }

 private:
  class Span {
   public:
    Span(HookTimes& times, HookTimes::Hook hook)
        : times_(times), hook_(hook), start_(Clock::now()) {}
    ~Span() {
      times_.seconds[hook_] += seconds_since(start_);
      ++times_.calls[hook_];
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    HookTimes& times_;
    HookTimes::Hook hook_;
    Clock::time_point start_;
  };

  Router& inner_;
  HookTimes& times_;
};

/// Engine-only replay: routes nothing, so packets wait at their origin
/// until their TTL sweep.
class NullRouter final : public Router {
 public:
  [[nodiscard]] std::string name() const override { return "null"; }
};

// -- replays --------------------------------------------------------------

/// How a replay drives the network.
enum class Mode {
  kPlain,      ///< Network::run()
  kStepped,    ///< Network::run(CheckpointManager&), no snapshot cadence
  kSnapshots,  ///< the stepped loop writing a snapshot per simulated day
  kResume,     ///< resume from the snapshot already in the directory
};

struct Outcome {
  RunCounters counters;
  DtnFlowDiagnostics diagnostics;
  std::uint64_t events = 0;
  double seconds = 0.0;
  /// Empty unless validation was asked for and failed.
  std::string problem;
};

/// Checks a finished replay from outside: the network's own invariant
/// audit passes, every packet row is accounted for by the counters, some
/// packets were delivered and every delivery delay lies within the TTL.
std::string validate(const Network& net) {
  dtn::sim::AuditReport report;
  net.audit(report);
  if (!report.ok()) return "invariant audit failed:\n" + report.to_string();
  const RunCounters& c = net.counters();
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;
  for (const dtn::net::Packet& p : net.all_packets()) {
    if (p.state == dtn::net::PacketState::kDelivered) ++delivered;
    if (p.state == dtn::net::PacketState::kDroppedTtl) ++dropped;
  }
  if (net.all_packets().size() != c.generated) {
    return "packet table size differs from the generated count";
  }
  if (delivered != c.delivered || dropped != c.dropped_ttl) {
    return "packet states disagree with the delivered/dropped counters";
  }
  if (c.delivered == 0 || c.delivery_delays.size() != c.delivered) {
    return "no deliveries, or delay records differ from the count";
  }
  for (const double d : c.delivery_delays) {
    if (!(d >= 0.0 && d <= net.config().ttl)) {
      return "a delivery delay lies outside [0, ttl]";
    }
  }
  return {};
}

/// One full replay of `in` by a fresh DTN-FLOW router.  The time covers
/// router and network construction and the run itself.  Checkpointed
/// modes use `dir`, which kStepped/kSnapshots empty first.  `hooks`, when
/// given, times the router's hooks.
Outcome replay(const Inputs& in, Mode mode, const fs::path& dir,
               HookTimes* hooks = nullptr, bool check = false) {
  std::optional<dtn::persist::CheckpointManager> mgr;
  if (mode != Mode::kPlain) {
    if (mode != Mode::kResume) fs::remove_all(dir);
    dtn::persist::CheckpointConfig cc;
    cc.dir = dir.string();
    cc.keep = 2;
    if (mode == Mode::kSnapshots) cc.every_time = kSnapshotEvery;
    mgr.emplace(cc);
  }
  Outcome out;
  const auto t0 = Clock::now();
  DtnFlowRouter router;
  std::optional<TimedRouter> timed;
  if (hooks != nullptr) timed.emplace(router, *hooks);
  Router& active = timed ? static_cast<Router&>(*timed) : router;
  Network net(in.trace, active, in.workload);
  bool completed = true;
  if (mgr) {
    completed = net.run(*mgr);
  } else {
    net.run();
  }
  out.seconds = seconds_since(t0);
  out.counters = net.counters();
  out.diagnostics = router.diagnostics();
  out.events = net.events_executed();
  if (!completed) out.problem = "checkpointed replay did not complete";
  if (check && out.problem.empty()) out.problem = validate(net);
  return out;
}

/// Replays `in` until `stop_after` events into `dir`, leaving a single
/// snapshot of that point for kResume replays to start from.
void suspend(const Inputs& in, const fs::path& dir, std::uint64_t stop_after) {
  fs::remove_all(dir);
  dtn::persist::CheckpointConfig cc;
  cc.dir = dir.string();
  cc.stop_after_events = stop_after;
  dtn::persist::CheckpointManager mgr(cc);
  DtnFlowRouter router;
  Network net(in.trace, router, in.workload);
  if (net.run(mgr)) throw std::runtime_error("replay ended before suspension");
}

double replay_engine_only(const Inputs& in) {
  const auto t0 = Clock::now();
  NullRouter router;
  Network net(in.trace, router, in.workload);
  net.run();
  return seconds_since(t0);
}

double replay_cursor_only(const Inputs& in, std::uint64_t* events) {
  const auto t0 = Clock::now();
  dtn::trace::TraceCursor cursor(in.trace);
  std::uint64_t n = 0;
  while (!cursor.exhausted()) {
    cursor.advance();
    ++n;
  }
  const double s = seconds_since(t0);
  *events = n;
  return s;
}

std::uintmax_t newest_snapshot_bytes(const fs::path& dir) {
  dtn::persist::CheckpointConfig cc;
  cc.dir = dir.string();
  const auto files = dtn::persist::CheckpointManager(cc).list();
  return files.empty() ? 0 : fs::file_size(files.back());
}

// -- result ---------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Counts a replay; it fails when it does not reproduce `ref` exactly.
  void check(const Outcome& o, const Outcome& ref) {
    ++attempted;
    if (!o.problem.empty() || !(o.counters == ref.counters) ||
        !(o.diagnostics == ref.diagnostics) || o.events != ref.events) {
      ++failed;
    }
  }
};

void print_result(bool correct, const Tally& tally,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-24s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

int run(const dtn::CliOptions& opts) {
  const std::string workload = opts.get("workload", "");
  const std::uint64_t seed = opts.get_seed(1);
  const double budget = opts.get_double("seconds", 10.0);
  const bool traced = opts.get_int("trace", 0) != 0;
  const fs::path scratch = opts.get("scratch", "");
  if (scratch.empty()) {
    std::fprintf(stderr, "replay_bench: --scratch DIR is required\n");
    return 2;
  }

  // Set-up: build the input sets from the seed, several times, each
  // build bracketed by calibration passes like the replays below.
  Calibrator calib;
  std::vector<double> setup;
  std::vector<double> setup_idle;
  std::vector<Inputs> sets;
  double before = calib.pass();
  for (int i = 0; i < kSetupRepeats; ++i) {
    const auto t0 = Clock::now();
    std::vector<Inputs> fresh;
    for (std::uint64_t k = 0; k < kInputSets; ++k) {
      auto one = make_inputs(workload, seed * kInputSets + k);
      if (!one) {
        std::fprintf(stderr, "replay_bench: unknown workload '%s'\n",
                     workload.c_str());
        return 2;
      }
      fresh.push_back(std::move(*one));
    }
    setup.push_back(seconds_since(t0));
    const double after = calib.pass();
    setup_idle.push_back(
        Calibrator::normalise(setup.back(), 0.5 * (before + after)));
    before = after;
    sets = std::move(fresh);
  }
  const fs::path run_dir = scratch / "run";
  const fs::path resume_dir = scratch / "resume";

  // Reference replays, validated from outside; they also warm caches and
  // the allocator.  Every later replay must reproduce its set's reference
  // bit for bit.
  std::vector<Outcome> refs;
  std::uint64_t ref_events = 0;
  for (const Inputs& in : sets) {
    refs.push_back(replay(in, Mode::kPlain, run_dir, nullptr, true));
    const Outcome& ref = refs.back();
    if (!ref.problem.empty()) {
      std::fprintf(stderr, "replay_bench: reference replay invalid: %s\n",
                   ref.problem.c_str());
      return 1;
    }
    ref_events += ref.events;
    std::printf("%s seed %llu set %zu: %zu nodes, %zu landmarks, %llu events, "
                "%llu packets, %llu delivered\n",
                workload.c_str(), static_cast<unsigned long long>(seed),
                refs.size() - 1, in.trace.num_nodes(), in.trace.num_landmarks(),
                static_cast<unsigned long long>(ref.events),
                static_cast<unsigned long long>(ref.counters.generated),
                static_cast<unsigned long long>(ref.counters.delivered));
  }

  Tally tally;
  std::vector<Metric> metrics;
  const auto start = Clock::now();
  const auto more = [&](std::uint64_t done) {
    return done < kMinIterations || seconds_since(start) < budget;
  };
  if (!traced) {
    // Replays go round the input sets; each is bracketed by calibration
    // passes and normalised by their mean.
    std::vector<double> wall;
    std::vector<double> kernel;
    std::vector<std::vector<double>> idle(kInputSets);
    while (more(wall.size())) {
      const std::size_t k = wall.size() % kInputSets;
      const Outcome o = replay(sets[k], Mode::kPlain, run_dir);
      tally.check(o, refs[k]);
      const double after = calib.pass();
      wall.push_back(o.seconds);
      kernel.push_back(after);
      idle[k].push_back(
          Calibrator::normalise(o.seconds, 0.5 * (before + after)));
      before = after;
    }
    // Mean over the sets of each set's median replay time.
    double t = 0.0;
    for (const auto& times : idle) t += median(times) / kInputSets;
    std::printf("%zu replays: wall median %.3f ms, calibration median %.3f ms "
                "(idle %.3f ms), checksum %llu\n",
                wall.size(), median(wall) * 1e3, median(kernel) * 1e3,
                kCalibIdleSeconds * 1e3,
                static_cast<unsigned long long>(calib.sink()));
    metrics = {{"replay_ms", t * 1e3, "ms"},
               {"events_per_s",
                static_cast<double>(ref_events) / kInputSets / t, "1/s"},
               {"setup_s", median(setup_idle), "s"}};
  } else {
    // The layers are timed on the first input set.  Every iteration runs
    // each pass once, so slow drift affects all passes alike and the
    // differences below stay meaningful.
    const Inputs& in = sets.front();
    const Outcome& ref = refs.front();
    suspend(in, resume_dir, ref.events / 2);
    const double snapshot_kb =
        static_cast<double>(newest_snapshot_bytes(resume_dir)) / 1024.0;
    std::vector<double> cursor, engine, plain, traced_total, network_self,
        stepped, snapshots, resumed, kernel;
    std::vector<double> hook[HookTimes::kCount];
    HookTimes calls;
    std::uint64_t cursor_events = 0;
    while (more(plain.size())) {
      kernel.push_back(calib.pass());
      cursor.push_back(replay_cursor_only(in, &cursor_events));
      engine.push_back(replay_engine_only(in));

      Outcome o = replay(in, Mode::kPlain, run_dir);
      tally.check(o, ref);
      plain.push_back(o.seconds);

      HookTimes h;
      o = replay(in, Mode::kPlain, run_dir, &h);
      tally.check(o, ref);
      traced_total.push_back(o.seconds);
      network_self.push_back(o.seconds - h.total());
      for (int k = 0; k < HookTimes::kCount; ++k) {
        hook[k].push_back(h.seconds[k]);
      }
      calls = h;

      o = replay(in, Mode::kStepped, run_dir);
      tally.check(o, ref);
      stepped.push_back(o.seconds);

      o = replay(in, Mode::kSnapshots, run_dir);
      tally.check(o, ref);
      snapshots.push_back(o.seconds);

      o = replay(in, Mode::kResume, resume_dir);
      tally.check(o, ref);
      resumed.push_back(o.seconds);
    }
    const RunCounters& c = ref.counters;
    const double ms = 1e3;
    metrics = {
        {"trace_gen_ms", median(setup) / kInputSets * ms, "ms"},
        {"cursor_ms", median(cursor) * ms, "ms"},
        {"engine_ms", median(engine) * ms, "ms"},
        {"router_arrival_ms", median(hook[HookTimes::kArrival]) * ms, "ms"},
        {"router_departure_ms", median(hook[HookTimes::kDeparture]) * ms,
         "ms"},
        {"router_contact_ms", median(hook[HookTimes::kContact]) * ms, "ms"},
        {"router_generated_ms", median(hook[HookTimes::kGenerated]) * ms,
         "ms"},
        {"router_time_unit_ms", median(hook[HookTimes::kTimeUnit]) * ms, "ms"},
        {"network_self_ms", median(network_self) * ms, "ms"},
        {"tracing_overhead_ms", (median(traced_total) - median(plain)) * ms,
         "ms"},
        {"stepping_ms", (median(stepped) - median(plain)) * ms, "ms"},
        {"persist_ms", (median(snapshots) - median(stepped)) * ms, "ms"},
        {"resume_ms", median(resumed) * ms, "ms"},
        {"snapshot_kb", snapshot_kb, "kB"},
        {"calib_ms", median(kernel) * ms, "ms"},
        {"events", static_cast<double>(ref.events), "count"},
        {"trace_events", static_cast<double>(cursor_events), "count"},
        {"arrivals", static_cast<double>(calls.calls[HookTimes::kArrival]),
         "count"},
        {"contacts", static_cast<double>(calls.calls[HookTimes::kContact]),
         "count"},
        {"packets_generated", static_cast<double>(c.generated), "count"},
        {"packet_forwards", static_cast<double>(c.packet_forwards), "count"},
        {"delivery_ratio",
         static_cast<double>(c.delivered) / static_cast<double>(c.generated),
         "ratio"},
        {"forwards_per_delivery",
         static_cast<double>(c.packet_forwards) /
             static_cast<double>(c.delivered),
         "ratio"},
    };
  }
  print_result(tally.failed == 0, tally, metrics);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const dtn::CliOptions opts(argc, argv);
  const fs::path scratch = opts.get("scratch", "");
  int status = 1;
  try {
    status = run(opts);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "replay_bench: %s\n", e.what());
  }
  std::error_code ec;
  if (!scratch.empty()) fs::remove_all(scratch, ec);
  return status;
}
