#include "net/network.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <string>
#include <utility>

#include "persist/checkpoint.hpp"
#include "persist/serializer.hpp"
#include "trace/cursor.hpp"
#include "util/fnv.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"

namespace dtn::net {

namespace {

/// Station-path capacity reserved when a packet enters its first store.
constexpr std::size_t kStationPathReserve = 8;

}  // namespace

Network::Network(const trace::Trace& trace, Router& router,
                 WorkloadConfig config)
    : trace_(trace), router_(router), cfg_(config), cursor_(trace) {
  DTN_ASSERT(cfg_.warmup_fraction >= 0.0 && cfg_.warmup_fraction < 1.0);
  DTN_ASSERT(cfg_.time_unit > 0.0);
  trace_begin_ = trace.begin_time();
  trace_end_ = trace.end_time();
  workload_start_ =
      trace_begin_ + cfg_.warmup_fraction * (trace_end_ - trace_begin_);
  // The cursor owns the sequence range [0, total_events()), so same-time
  // ties order exactly as the retired eager enumeration did; the static
  // schedule takes the range above it.  Both are pure functions of the
  // run's inputs, so a resume rebuilds them too.  The cursor shares the
  // trace's replay order (only the first replay over a trace sorts it);
  // the schedule is built afresh for this run's workload.
  sim_.set_static_schedule(build_static_schedule(cursor_.total_events()));
  // Periodic invariant auditing: the per-run config can enable it; the
  // DTN_AUDIT environment flag (already folded into the default-constructed
  // auditor) enables it for whole test/CI runs without touching code.
  if (cfg_.audit_period_events > 0) {
    auto acfg = auditor_.config();
    acfg.enabled = true;
    acfg.period_events = cfg_.audit_period_events;
    auditor_ = sim::InvariantAuditor(acfg);
  }
  // audit() names each of its checks itself.  The CRC check stays out
  // of it: load_checkpoint runs audit() right after re-serializing the
  // restored state, and the CRC check would serialize it once more.
  auditor_.register_check("network",
                          [this](sim::AuditReport& r) { audit(r); });
  auditor_.register_check(
      "network.checkpoint_crc",
      [this](sim::AuditReport& r) { audit_checkpoint_crc(r); });
  // Fault plan: engage the injector (which validates the plan against
  // the trace's node/landmark universe, throwing std::invalid_argument
  // on malformed config).
  if (cfg_.faults.has_value()) {
    faults_.emplace(*cfg_.faults, trace.num_nodes(), trace.num_landmarks());
  }
  outage_recovery_pending_.assign(trace.num_landmarks(), -1.0);
  node_stores_.assign(trace.num_nodes(),
                     BundleStore(cfg_.node_memory_kb, cfg_.store.policy,
                                 cfg_.store.dedup, store_position_));
  location_.assign(trace.num_nodes(), kNoLandmark);
  stations_.assign(trace.num_landmarks(),
                   StationState{{},
                                BundleStore(cfg_.store.station_memory_kb,
                                            cfg_.store.policy,
                                            cfg_.store.dedup, store_position_),
                                {}});
}

std::vector<sim::Event> Network::build_static_schedule(
    std::uint64_t seq_base) const {
  // Every event known before the run, in runs that are each already in
  // (time, schedule order): the manual packets, the sweep/tick pairs,
  // then one run per landmark of its pre-drawn Poisson workload.
  // Schedule order assigns seqs class by class — manual packets, then
  // sweep/tick pairs, then generations ranked by (time, source) — so a
  // k-way merge keyed by (time, run) yields exactly the (time, seq)
  // order, and a generation's seq is its rank in the merged output.
  const auto& manual = cfg_.manual_packets;
  const auto num_landmarks = trace_.num_landmarks();
  const auto units = static_cast<std::size_t>(
      std::ceil((trace_end_ - trace_begin_) / cfg_.time_unit));
  // Both arrays are sized up front from the workload's expected count
  // (a Poisson total stays within a few percent of its mean): no
  // reallocation copies.
  const double expected =
      std::max(0.0, cfg_.packets_per_landmark_per_day) *
      static_cast<double>(num_landmarks) * (trace_end_ - workload_start_) /
      trace::kDay;
  const std::size_t estimate = manual.size() + 2 * units + 64 +
                               static_cast<std::size_t>(1.05 * expected);
  std::vector<sim::Event> merged;
  merged.reserve(estimate);
  std::vector<sim::Event> drawn;
  drawn.reserve(estimate);
  std::vector<std::size_t> run_end;  // end offset of each run in `drawn`

  for (std::uint32_t i = 0; i < manual.size(); ++i) {
    const auto& mp = manual[i];
    DTN_ASSERT(mp.time >= 0.0);
    DTN_ASSERT(mp.src < num_landmarks);
    DTN_ASSERT(mp.dst < num_landmarks);
    DTN_ASSERT(mp.src != mp.dst || mp.dst_node != trace::kNoNode);
    DTN_ASSERT(mp.dst_node == trace::kNoNode ||
               mp.dst_node < trace_.num_nodes());
    // -0.0 -> +0.0, as the event queue stored it.
    drawn.push_back({mp.time == 0.0 ? 0.0 : mp.time, seq_base + i,
                     sim::EventKind::kManualPacket, i, 0});
  }
  // By time; equal times stay in index (= seq) order.
  std::stable_sort(drawn.begin(), drawn.end(),
                   [](const sim::Event& x, const sim::Event& y) {
                     return x.time < y.time;
                   });
  run_end.push_back(drawn.size());

  // Measurement time-unit ticks for bandwidth / routing-table updates,
  // each preceded by a TTL expiry sweep at the same instant (the sweep
  // keeps the lower sequence number).
  std::uint64_t seq = seq_base + manual.size();
  for (std::size_t u = 1; u <= units; ++u) {
    const double t = trace_begin_ + static_cast<double>(u) * cfg_.time_unit;
    if (t > trace_end_) break;
    drawn.push_back({t, seq++, sim::EventKind::kTtlSweep, 0, 0});
    drawn.push_back({t, seq++, sim::EventKind::kTimeUnitTick,
                     static_cast<std::uint32_t>(u), 0});
  }
  run_end.push_back(drawn.size());

  // Independent Poisson process per landmark, starting after the
  // initialization phase (paper: first 1/4 of the trace).  Every draw
  // comes from a per-landmark split stream of the workload seed, so the
  // randomness a landmark's workload consumes is independent of event
  // interleaving and of every other landmark's draws.  A generation
  // carries its source in a and its destination in b.
  if (cfg_.packets_per_landmark_per_day > 0.0 && num_landmarks > 1) {
    const double mean_gap = trace::kDay / cfg_.packets_per_landmark_per_day;
    if (!cfg_.destination_weights.empty()) {
      DTN_ASSERT(cfg_.destination_weights.size() == num_landmarks);
    }
    Rng rng(cfg_.seed);
    std::vector<double> weights;
    for (LandmarkId l = 0; l < num_landmarks; ++l) {
      Rng stream = rng.split(l);
      const double* weight_data = nullptr;
      if (!cfg_.destination_weights.empty()) {
        weights = cfg_.destination_weights;
        weights[l] = 0.0;
        double total = 0.0;
        for (const double w : weights) total += w;
        // All demand from this landmark targets itself (e.g. the
        // collection sink): nothing to send.
        if (total <= 0.0) continue;
        weight_data = weights.data();
      }
      double t = workload_start_;
      while (true) {
        t += stream.exponential(mean_gap);
        if (t > trace_end_) break;
        LandmarkId dst;
        if (weight_data == nullptr) {
          // Uniformly random destination among the others (§V-A.1).
          dst = static_cast<LandmarkId>(
              stream.uniform_index(num_landmarks - 1));
          if (dst >= l) ++dst;
        } else {
          dst = static_cast<LandmarkId>(
              stream.discrete({weight_data, num_landmarks}));
        }
        drawn.push_back({t, 0, sim::EventKind::kPacketGen, l, dst});
      }
      run_end.push_back(drawn.size());
    }
  }

  // K-way merge over the runs' heads, keyed by (time, run): a run's
  // index breaks time ties (manual < sweep/tick < generations by
  // source); within a run the drawn order stands.  The heads form a
  // binary min-heap whose top is replaced in place, one sift-down per
  // event.
  using Head = std::pair<double, std::size_t>;  // (time, run)
  std::vector<Head> heads;
  std::vector<std::size_t> next(run_end.size());
  for (std::size_t r = 0; r < run_end.size(); ++r) {
    next[r] = r == 0 ? 0 : run_end[r - 1];
    if (next[r] < run_end[r]) heads.emplace_back(drawn[next[r]].time, r);
  }
  std::sort(heads.begin(), heads.end());  // a sorted array is a min-heap
  while (!heads.empty()) {
    const std::size_t r = heads.front().second;
    sim::Event& ev = merged.emplace_back(drawn[next[r]++]);
    if (r >= 2) ev.seq = seq++;  // a generation: its seq is its rank
    Head top;
    if (next[r] < run_end[r]) {
      top = {drawn[next[r]].time, r};
    } else {
      top = heads.back();
      heads.pop_back();
    }
    std::size_t i = 0;
    for (std::size_t c = 1; c < heads.size(); c = 2 * i + 1) {
      if (c + 1 < heads.size() && heads[c + 1] < heads[c]) ++c;
      if (!(heads[c] < top)) break;
      heads[i] = heads[c];
      i = c;
    }
    if (!heads.empty()) heads[i] = top;
  }
  return merged;
}

std::uint64_t Network::static_schedule_digest() const {
  Fnv1a h;  // over every field
  for (const sim::Event& ev : sim_.static_schedule()) {
    h.mix(ev.time);
    h.mix(ev.seq);
    h.mix(static_cast<std::uint64_t>(ev.kind));
    h.mix(ev.a);
    h.mix(ev.b);
  }
  return h.value();
}

void Network::run() { replay(nullptr); }

bool Network::run(persist::CheckpointManager& ckpt) { return replay(&ckpt); }

bool Network::replay(persist::CheckpointManager* ckpt) {
  DTN_ASSERT(!ran_);
  DTN_ASSERT(ckpt == nullptr || router_.checkpointable());
  ran_ = true;

  // Trace replay: arrivals and departures stream out of the cursor's
  // presorted array instead of being pre-scheduled one closure per
  // visit.
  sim_.set_dispatcher(&Network::dispatch_trampoline, this);
  ckpt_mgr_ = ckpt;
  observes_contacts_ = router_.observes_contacts();

  if (ckpt != nullptr && ckpt->has_checkpoint()) {
    // Resume: every piece of live state comes out of the snapshot — no
    // seq floor (the restored queue already carries its next_seq), no
    // fault scheduling (its draws already advanced the injector's
    // streams), no on_init (checkpoint_load performs it).
    load_checkpoint(ckpt->read_latest());
  } else {
    router_.on_init(*this);
    const std::size_t static_events = sim_.static_schedule().size();
    sim_.set_seq_floor(cursor_.total_events() + static_events);
    // The serial packet table grows by one row per generation event
    // (a static event); without the upfront reservation every
    // reallocation copies the whole table, station_path vectors
    // included.
    packets_.reserve(packets_.size() + static_events);
    logical_delivered_.reserve(logical_delivered_.size() + static_events);
    // Fault events go to the queue, above the static range: a plan with
    // nothing to inject schedules nothing, and every other event keeps
    // the sequence number it has in a fault-free run.
    schedule_faults();
  }
  ckpt_last_events_ = sim_.events_executed();
  ckpt_last_time_ = sim_.now();

  const bool completed =
      sim_.run_until(trace_end_, &cursor_, [this, ckpt] {
        if (ckpt != nullptr && !checkpoint_step()) return false;
        auditor_.on_boundary(sim_.events_executed());
        return true;
      });
  ckpt_mgr_ = nullptr;
  if (completed) {
    // The final sweep is no event: live state leaves the last snapshot
    // without the executed count moving, so the CRC check must not
    // compare the two any more.
    last_ckpt_sections_.clear();
    drop_expired();
    // One final audit so short runs (fewer events than the period)
    // still get checked at least once when auditing is on.
    if (auditor_.enabled()) auditor_.audit_now();
  }
  // A suspended run's snapshot of this exact point is already on disk
  // (checkpoint_step wrote it before stopping).
  return completed;
}

// -- checkpointing (src/persist/, docs/checkpointing.md) ----------------

template <class Ar>
void Network::fields(Ar& ar) {
  constexpr bool loading = Ar::loading;
  const std::size_t landmarks = stations_.size();
  const auto all_below = [](const auto& ids, std::size_t n) {
    return std::all_of(ids.begin(), ids.end(), [n](auto id) { return id < n; });
  };

  // Everything the snapshot depends on but does not store: a resume must
  // be handed all of it unchanged, and the first field that disagrees
  // is named.  The audit period is deliberately excluded: auditing is
  // read-only, so a resume may turn it on or off.
  ar.begin_section("meta");
  ar.expect("trace node count", trace_.num_nodes());
  ar.expect("trace landmark count", trace_.num_landmarks());
  ar.expect("trace visit count", trace_.total_visits());
  ar.expect("trace begin time", trace_begin_);
  ar.expect("trace end time", trace_end_);
  ar.expect("workload packet rate", cfg_.packets_per_landmark_per_day);
  ar.expect("packet TTL", cfg_.ttl);
  ar.expect("node memory", cfg_.node_memory_kb);
  // Bounded-store configuration (docs/bounded-store.md).
  ar.expect("station memory", cfg_.store.station_memory_kb);
  ar.expect("eviction policy", cfg_.store.policy);
  ar.expect("store dedup", cfg_.store.dedup);
  ar.expect("warmup fraction", cfg_.warmup_fraction);
  ar.expect("time unit", cfg_.time_unit);
  ar.expect("workload seed", cfg_.seed);
  ar.expect("destination weight count", cfg_.destination_weights.size());
  for (const double v : cfg_.destination_weights) {
    ar.expect("destination weights", v);
  }
  ar.expect("manual packet count", cfg_.manual_packets.size());
  for (const auto& mp : cfg_.manual_packets) {
    ar.expect("manual packet source", mp.src);
    ar.expect("manual packet destination", mp.dst);
    ar.expect("manual packet time", mp.time);
    ar.expect("manual packet TTL", mp.ttl);
    ar.expect("manual packet destination node", mp.dst_node);
  }
  ar.expect("fault plan presence", cfg_.faults.has_value());
  if (cfg_.faults.has_value()) {
    const sim::FaultPlan& fp = *cfg_.faults;
    ar.expect("fault seed", fp.seed);
    ar.expect("scheduled crash count", fp.node_crashes.size());
    for (const auto& c : fp.node_crashes) {
      ar.expect("scheduled crash node", c.node);
      ar.expect("scheduled crash time", c.time);
      ar.expect("scheduled crash downtime", c.downtime);
    }
    ar.expect("crash rate", fp.node_crash_rate_per_day);
    ar.expect("mean downtime", fp.node_mean_downtime);
    ar.expect("crash buffer loss", fp.crash_buffer_loss);
    ar.expect("scheduled outage count", fp.station_outages.size());
    for (const auto& o : fp.station_outages) {
      ar.expect("scheduled outage station", o.station);
      ar.expect("scheduled outage start", o.start);
      ar.expect("scheduled outage end", o.end);
    }
    ar.expect("outage rate", fp.station_outage_rate_per_day);
    ar.expect("mean outage", fp.station_mean_outage);
    ar.expect("transfer failure probability", fp.transfer_failure_prob);
    ar.expect("retry backoff", fp.retry_backoff);
    ar.expect("retry backoff cap", fp.retry_backoff_max);
    ar.expect("DV loss probability", fp.dv_loss_prob);
    ar.expect("DV delay probability", fp.dv_delay_prob);
  }
  ar.expect("router", router_.name());
  ar.end_section();

  ar.begin_section("sim");
  ar.object(sim_);
  ar.end_section();

  ar.begin_section("cursor");
  ar.object(cursor_);
  ar.end_section();
  if constexpr (loading) {
    Presence presence = rebuild_presence();
    location_ = std::move(presence.location);
    for (std::size_t l = 0; l < landmarks; ++l) {
      stations_[l].present = std::move(presence.present[l]);
    }
  }

  // The static schedule is rebuilt from the inputs `meta` pins, not
  // stored; its digest refuses an image whose schedule a different
  // build would draw differently.
  ar.begin_section("workload");
  ar.expect("static event count", sim_.static_schedule().size());
  ar.expect("static schedule digest", static_schedule_digest());
  ar.end_section();

  ar.begin_section("counters");
  counters_.fields(ar);
  ar.end_section();

  ar.begin_section("packets");
  PacketId next_id = 0;
  ar.seq("packets", packets_, [&](Packet& p) {
    ar.value("packet id", p.id);
    ar.check(p.id == next_id++, "packet table row is out of order");
    ar.index("packet source", p.src, landmarks);
    ar.index("packet destination", p.dst, landmarks);
    ar.index_or_none("packet destination node", p.dst_node,
                     node_stores_.size());
    ar.value("packet created", p.created);
    ar.value("packet ttl", p.ttl);
    ar.index("packet logical id", p.logical, std::size_t{p.id} + 1);
    ar.index("packet state", p.state,
             static_cast<std::size_t>(PacketState::kEvicted) + 1);
    ar.value("packet holder", p.holder);
    ar.check(is_terminal(p.state) ||
                 p.holder < (p.state == PacketState::kOnNode
                                 ? node_stores_.size()
                                 : landmarks),
             "packet holder out of range");
    ar.index_or_none("packet next hop", p.next_hop, landmarks);
    ar.value("packet expected delay", p.expected_delay);
    ar.vec("packet station path", p.station_path);
    ar.check(all_below(p.station_path, landmarks),
             "packet station path out of range");
    ar.value("packet hops", p.hops);
    ar.value("packet delivered at", p.delivered_at);
  });
  if constexpr (loading) logical_delivered_.resize(packets_.size());
  ar.fixed("logical delivered flags", logical_delivered_);
  ar.value("any node addressed", any_node_addressed_);
  ar.end_section();

  // The store position column is derived from the id lists: each store
  // load writes its ids' positions, refusing an id outside the packet
  // table or one an earlier store (or this one) already lists.
  if constexpr (loading) {
    store_position_.assign(packets_.size(), BundleStore::kAbsent);
  }
  ar.begin_section("nodes");
  ar.expect("node count", node_stores_.size());
  for (BundleStore& store : node_stores_) ar.object(store);
  ar.end_section();

  ar.begin_section("stations");
  ar.expect("station count", stations_.size());
  for (StationState& st : stations_) {
    ar.object(st.storage);
    ar.vec("station origin queue", st.origin);
    ar.check(all_below(st.origin, packets_.size()),
             "station origin queue packet out of range");
  }
  ar.end_section();

  ar.begin_section("ledger");
  // The packet -> slot index is derived from the entries: a load
  // rebuilds it, refusing a packet the table lacks or one named twice.
  if constexpr (loading) ledger_index_.clear();
  ar.seq("ledger entries", ledger_, [&](LedgerEntry& e) {
    ar.value("ledger packet", e.pid);
    ar.value("ledger attempts", e.attempts);
    ar.value("ledger next retry", e.next_retry);
    if constexpr (loading) {
      ar.check(e.pid < packets_.size(), "ledger packet out of range");
      ledger_index_.resize(packets_.size(), kNoLedgerSlot);
      ar.check(ledger_index_[e.pid] == kNoLedgerSlot,
               "ledger names a packet twice");
      ledger_index_[e.pid] = static_cast<std::uint32_t>(ledger_.size() - 1);
    }
  });
  ar.fixed("outage recovery pending", outage_recovery_pending_);
  ar.end_section();

  // The fault plan is configuration (fingerprinted above); only the
  // injector's runtime state — RNG streams mid-sequence, outage sets —
  // lives here.
  ar.begin_section("faults");
  ar.expect("fault injector presence", faults_.has_value());
  if (faults_.has_value()) ar.object(*faults_);
  ar.end_section();
  // The queue came with "sim"; its fault events are judged against the
  // down sets the log just rebuilt.
  if constexpr (loading) check_pending_events();

  ar.begin_section("router");
  ar.expect("router", router_.name());
  if constexpr (loading) {
    router_.checkpoint_load(ar, *this);
  } else {
    router_.checkpoint_save(ar);
  }
  ar.end_section();
}

persist::Writer Network::serialize_state() const {
  persist::Writer w;
  const_cast<Network*>(this)->fields(w);
  return w;
}

void Network::write_snapshot() {
  persist::Writer w = serialize_state();
  w.finish();
  last_ckpt_sections_ = w.sections();
  last_ckpt_executed_ = sim_.events_executed();
  ckpt_last_events_ = last_ckpt_executed_;
  ckpt_last_time_ = sim_.now();
  ckpt_mgr_->write(last_ckpt_executed_, w.buffer());
}

bool Network::checkpoint_step() {
  const persist::CheckpointConfig& cc = ckpt_mgr_->config();
  const std::uint64_t executed = sim_.events_executed();
  const bool due_events =
      cc.every_events > 0 && executed - ckpt_last_events_ >= cc.every_events;
  const bool due_time =
      cc.every_time > 0.0 && sim_.now() - ckpt_last_time_ >= cc.every_time;
  const bool suspend =
      cc.stop_after_events > 0 && executed >= cc.stop_after_events;
  if (due_events || due_time || suspend) write_snapshot();
  return !suspend;
}

void Network::load_checkpoint(const std::vector<std::uint8_t>& bytes) {
  persist::Reader r(bytes);
  fields(r);
  r.finish();

  // Restored-state verification: before a single event is dispatched, a
  // fresh serialization must reproduce the image byte for byte, and the
  // full invariant audit must pass.
  persist::Writer w = serialize_state();
  w.finish();
  if (w.buffer() != bytes) {
    throw persist::FormatError(
        "restored state does not re-serialize to the checkpoint image");
  }
  last_ckpt_sections_ = w.sections();
  last_ckpt_executed_ = sim_.events_executed();
  sim::AuditReport report;
  audit(report);
  if (!report.ok()) {
    throw persist::FormatError("restored state failed the invariant audit:\n" +
                               report.to_string());
  }
}

void Network::check_pending_events() const {
  const sim::FaultPlan* plan =
      faults_.has_value() ? &faults_->plan() : nullptr;
  // Only fault events are scheduled into the queue: trace events come
  // from the cursor, and every packet, sweep and tick event from the
  // static schedule.  A fault event's b is 0 for the stochastic process
  // (which must be on) or 1 + the index of a scheduled window on the
  // same id.
  for (const sim::Event& ev : sim_.queue().pending()) {
    bool ok = false;
    switch (ev.kind) {
      case sim::EventKind::kNodeCrash:
      case sim::EventKind::kNodeReboot:
        ok = plan != nullptr && ev.a < node_stores_.size() &&
             (ev.b == 0 ? plan->node_crash_rate_per_day > 0.0
                        : ev.b <= plan->node_crashes.size() &&
                              plan->node_crashes[ev.b - 1].node == ev.a);
        break;
      case sim::EventKind::kStationDown:
      case sim::EventKind::kStationUp:
        ok = plan != nullptr && ev.a < stations_.size() &&
             (ev.b == 0 ? plan->station_outage_rate_per_day > 0.0
                        : ev.b <= plan->station_outages.size() &&
                              plan->station_outages[ev.b - 1].station == ev.a);
        break;
      default:
        break;
    }
    if (!ok) {
      persist::Reader::fail(
          "queue event of kind " + std::to_string(static_cast<int>(ev.kind)) +
          " (a " + std::to_string(ev.a) + ", b " + std::to_string(ev.b) +
          ") names nothing of this run");
    }
  }
  if (!faults_.has_value()) return;  // then the queue is empty
  // Each id's pending transitions, in (time, seq) order from the state
  // the fault log left it in, must be ones FaultInjector::record accepts
  // (no downing a down id, no raising an up one), up to its first down:
  // the rise that one schedules is not queued yet.
  enum : std::uint8_t { kUp, kDown, kJudgedLater };
  std::vector<std::uint8_t> node_state(node_stores_.size());
  std::vector<std::uint8_t> station_state(stations_.size());
  for (NodeId n = 0; n < node_state.size(); ++n) {
    node_state[n] = faults_->node_down(n) ? kDown : kUp;
  }
  for (LandmarkId l = 0; l < station_state.size(); ++l) {
    station_state[l] = faults_->station_down(l) ? kDown : kUp;
  }
  std::vector<sim::Event> pending(sim_.queue().pending().begin(),
                                  sim_.queue().pending().end());
  std::sort(pending.begin(), pending.end(), sim::happens_before);
  for (const sim::Event& ev : pending) {
    const bool node = ev.kind == sim::EventKind::kNodeCrash ||
                      ev.kind == sim::EventKind::kNodeReboot;
    const bool down = ev.kind == sim::EventKind::kNodeCrash ||
                      ev.kind == sim::EventKind::kStationDown;
    std::uint8_t& state = (node ? node_state : station_state)[ev.a];
    if (state == kJudgedLater) continue;
    if ((state == kDown) == down) {
      persist::Reader::fail(
          std::string("queue event ") + (down ? "downs " : "raises ") +
          (node ? "node " : "station ") + std::to_string(ev.a) +
          ", which the fault log leaves " + (down ? "down" : "up"));
    }
    state = down ? kJudgedLater : kUp;
  }
}

void Network::audit_checkpoint_crc(sim::AuditReport& report) const {
  // Only decidable when the most recent snapshot captured exactly this
  // simulation point; in between, live state legitimately diverges from
  // the file.
  if (last_ckpt_sections_.empty() ||
      last_ckpt_executed_ != sim_.events_executed()) {
    return;
  }
  persist::Writer w = serialize_state();
  const auto& live = w.sections();
  if (live.size() != last_ckpt_sections_.size()) {
    report.fail("live state serializes to " + std::to_string(live.size()) +
                " sections but the snapshot held " +
                std::to_string(last_ckpt_sections_.size()));
    return;
  }
  for (std::size_t i = 0; i < live.size(); ++i) {
    if (live[i] != last_ckpt_sections_[i]) {
      report.fail("section '" + last_ckpt_sections_[i].first +
                  "' CRC diverged between the snapshot and live state");
    }
  }
}

void Network::dispatch(const sim::Event& ev) {
  switch (ev.kind) {
    case sim::EventKind::kArrival:
      handle_arrival(trace_.visits(ev.a)[ev.b]);
      break;
    case sim::EventKind::kDeparture:
      handle_departure(trace_.visits(ev.a)[ev.b]);
      break;
    case sim::EventKind::kPacketGen:
      generate_packet(ev.a, ev.b, cfg_.ttl);
      break;
    case sim::EventKind::kManualPacket: {
      const auto& mp = cfg_.manual_packets[ev.a];
      const double ttl = mp.ttl > 0.0 ? mp.ttl : cfg_.ttl;
      generate_packet(mp.src, mp.dst, ttl, mp.dst_node);
      break;
    }
    case sim::EventKind::kTtlSweep:
      drop_expired();
      break;
    case sim::EventKind::kTimeUnitTick:
      router_.on_time_unit(*this, ev.a);
      break;
    case sim::EventKind::kNodeCrash:
      apply_node_crash(ev);
      break;
    case sim::EventKind::kNodeReboot:
      apply_node_reboot(ev);
      break;
    case sim::EventKind::kStationDown:
      apply_station_down(ev);
      break;
    case sim::EventKind::kStationUp:
      apply_station_up(ev);
      break;
    default:
      DTN_ASSERT(false);
  }
}

void Network::schedule_faults() {
  if (!faults_.has_value()) return;
  const sim::FaultPlan& plan = faults_->plan();
  for (std::size_t i = 0; i < plan.node_crashes.size(); ++i) {
    const auto& c = plan.node_crashes[i];
    if (c.time > trace_end_) continue;
    sim::Event ev;
    ev.kind = sim::EventKind::kNodeCrash;
    ev.a = c.node;
    ev.b = static_cast<std::uint32_t>(i) + 1;
    sim_.schedule(c.time, ev);
  }
  for (std::size_t i = 0; i < plan.station_outages.size(); ++i) {
    const auto& o = plan.station_outages[i];
    if (o.start > trace_end_) continue;
    sim::Event ev;
    ev.kind = sim::EventKind::kStationDown;
    ev.a = o.station;
    ev.b = static_cast<std::uint32_t>(i) + 1;
    sim_.schedule(o.start, ev);
  }
  // Stochastic processes: first occurrence per node/station drawn here
  // (in id order, part of the deterministic-replay contract); each
  // reboot/recovery draws the next one.
  if (plan.node_crash_rate_per_day > 0.0) {
    for (std::uint32_t n = 0; n < node_stores_.size(); ++n) {
      const double t = trace_begin_ + faults_->draw_crash_gap();
      if (t > trace_end_) continue;
      sim::Event ev;
      ev.kind = sim::EventKind::kNodeCrash;
      ev.a = n;
      sim_.schedule(t, ev);
    }
  }
  if (plan.station_outage_rate_per_day > 0.0) {
    for (std::uint32_t l = 0; l < stations_.size(); ++l) {
      const double t = trace_begin_ + faults_->draw_outage_gap();
      if (t > trace_end_) continue;
      sim::Event ev;
      ev.kind = sim::EventKind::kStationDown;
      ev.a = l;
      sim_.schedule(t, ev);
    }
  }
}

void Network::apply_node_crash(const sim::Event& ev) {
  const NodeId node = ev.a;
  DTN_ASSERT(node < node_stores_.size());
  // Scheduled crashes carry their downtime in the plan; stochastic ones
  // draw it now (dispatch order is deterministic, so so is the draw).
  const double downtime = ev.b != 0
                              ? faults_->plan().node_crashes[ev.b - 1].downtime
                              : faults_->draw_downtime();
  ++counters_.node_crashes;
  // Buffer loss: every buffered packet independently survives or dies.
  BundleStore& store = node_stores_[node];
  std::vector<PacketId>& doomed = scratch_;
  doomed.clear();
  for (const PacketId pid : store.packets()) {
    if (faults_->draw_crash_packet_loss()) doomed.push_back(pid);
  }
  for (const PacketId pid : doomed) {
    Packet& p = packets_[pid];
    store.remove(pid);
    ledger_erase(pid);
    if (logical_delivered_[p.logical] != 0) {
      p.state = PacketState::kObsoleteCopy;
    } else {
      p.state = PacketState::kLostFault;
      ++counters_.packets_lost_fault;
    }
  }
  faults_->mark_node_down(node, sim_.now());
  router_.on_node_crash(*this, node);
  sim::Event up;
  up.kind = sim::EventKind::kNodeReboot;
  up.a = node;
  up.b = ev.b;  // reboot remembers the crash source (scheduled/stochastic)
  sim_.schedule(sim_.now() + downtime, up);
}

void Network::apply_node_reboot(const sim::Event& ev) {
  const NodeId node = ev.a;
  faults_->mark_node_up(node, sim_.now());
  ++counters_.node_reboots;
  // A stochastic crash chain continues after the reboot (never while
  // down, so a double crash is impossible by construction).
  if (ev.b == 0 && faults_->plan().node_crash_rate_per_day > 0.0) {
    const double t = sim_.now() + faults_->draw_crash_gap();
    if (t > trace_end_) return;
    sim::Event ev2;
    ev2.kind = sim::EventKind::kNodeCrash;
    ev2.a = node;
    sim_.schedule(t, ev2);
  }
}

void Network::apply_station_down(const sim::Event& ev) {
  const LandmarkId l = ev.a;
  DTN_ASSERT(l < stations_.size());
  ++counters_.station_outages;
  // A pending recovery-time measurement dies with the new outage.
  outage_recovery_pending_[l] = -1.0;
  faults_->mark_station_down(l, sim_.now());
  router_.on_station_outage(*this, l);
  const double end = ev.b != 0
                         ? faults_->plan().station_outages[ev.b - 1].end
                         : sim_.now() + faults_->draw_outage_duration();
  sim::Event up;
  up.kind = sim::EventKind::kStationUp;
  up.a = l;
  up.b = ev.b;
  sim_.schedule(end, up);
}

void Network::apply_station_up(const sim::Event& ev) {
  const LandmarkId l = ev.a;
  faults_->mark_station_up(l, sim_.now());
  ++counters_.station_recoveries;
  outage_recovery_pending_[l] = sim_.now();
  router_.on_station_recovery(*this, l);
  if (ev.b == 0 && faults_->plan().station_outage_rate_per_day > 0.0) {
    const double t = sim_.now() + faults_->draw_outage_gap();
    if (t > trace_end_) return;
    sim::Event ev2;
    ev2.kind = sim::EventKind::kStationDown;
    ev2.a = l;
    sim_.schedule(t, ev2);
  }
}

std::uint32_t Network::ledger_slot(PacketId pid) const {
  if (pid >= ledger_index_.size()) return kNoLedgerSlot;
  return ledger_index_[pid];
}

void Network::ledger_erase(PacketId pid) {
  const std::uint32_t slot = ledger_slot(pid);
  if (slot == kNoLedgerSlot) return;
  // Retiring the retry also retires its forward-pending retention (a
  // no-op when the packet already left its store, or for unbounded
  // stores where retention never mattered).
  set_holder_retention(packets_[pid], Retention::kNone);
  ledger_index_[pid] = kNoLedgerSlot;
  const auto last = static_cast<std::uint32_t>(ledger_.size() - 1);
  if (slot != last) {
    ledger_[slot] = ledger_[last];
    ledger_index_[ledger_[slot].pid] = slot;
  }
  ledger_.pop_back();
}

bool Network::transfer_interrupted(PacketId pid) {
  if (!faults_.has_value() || !faults_->transfer_faults_enabled()) {
    return false;
  }
  const double now = sim_.now();
  const std::uint32_t slot = ledger_slot(pid);
  if (slot != kNoLedgerSlot && now < ledger_[slot].next_retry) {
    // Still backing off from the last mid-contact break.
    ++counters_.transfers_blocked_fault;
    return true;
  }
  if (faults_->draw_transfer_failure()) {
    ++counters_.transfers_interrupted;
    // A pending retry pins the bundle in its current store: eviction
    // policies never pick forward-pending victims (docs/bounded-store.md).
    set_holder_retention(packets_[pid], Retention::kForwardPending);
    if (slot == kNoLedgerSlot) {
      if (ledger_index_.size() < packets_.size()) {
        ledger_index_.resize(packets_.size(), kNoLedgerSlot);
      }
      ledger_index_[pid] = static_cast<std::uint32_t>(ledger_.size());
      ledger_.push_back({pid, 1, now + faults_->retry_backoff(1)});
    } else {
      LedgerEntry& e = ledger_[slot];
      ++e.attempts;
      e.next_retry = now + faults_->retry_backoff(e.attempts);
    }
    return true;
  }
  if (slot != kNoLedgerSlot) {
    // The retry made it across: the interrupted transfer resumed.
    ++counters_.transfers_resumed;
    ledger_erase(pid);
  }
  return false;
}

void Network::note_station_activity(LandmarkId l) {
  if (!faults_.has_value()) return;
  double& pending = outage_recovery_pending_[l];
  if (pending < 0.0) return;
  counters_.outage_recovery_delays.push_back(sim_.now() - pending);
  pending = -1.0;
}

std::vector<double> Network::dispatched_tick_times() const {
  std::vector<double> times;
  for (const sim::Event& ev : sim_.static_dispatched()) {
    if (ev.kind == sim::EventKind::kTimeUnitTick) times.push_back(ev.time);
  }
  return times;
}

LandmarkId Network::previous_landmark(NodeId node) const {
  const auto visits = history(node);
  return visits.empty() ? kNoLandmark : visits.back().landmark;
}

std::span<const trace::Visit> Network::history(NodeId node) const {
  // The cursor counts two events per completed visit, plus the arrival
  // of the current one; it counts a departure before its hook runs,
  // while the node still has a location, so that visit is not yet
  // complete.
  const std::uint32_t located = location(node) != kNoLandmark ? 1 : 0;
  return trace_.visits(node).first((cursor_.replayed(node) - located) / 2);
}

const trace::Visit* Network::current_visit(NodeId node) const {
  if (location(node) == kNoLandmark) return nullptr;
  return &trace_.visits(node)[history(node).size()];
}

std::span<const PacketId> Network::origin_packets(LandmarkId l) const {
  DTN_ASSERT(l < stations_.size());
  return stations_[l].origin;
}

const BundleStore& Network::station_store(LandmarkId l) const {
  DTN_ASSERT(l < stations_.size());
  return stations_[l].storage;
}

// -- bounded-store admission (docs/bounded-store.md) --------------------

Admit Network::store_admit(BundleStore& store, Packet& p, Retention retention,
                           bool check_dedup) {
  BundleStore::AdmitRequest req;
  req.pid = p.id;
  req.logical = p.logical;
  req.retention = retention;
  req.expected_delay = p.expected_delay;
  req.deadline = p.deadline();
  req.check_dedup = check_dedup;
  // Function-local victim list: it only ever allocates when a policy
  // actually evicts.
  std::vector<PacketId> evicted;
  const Admit verdict = store.admit(req, &evicted);
  finalize_evictions(evicted);
  if (verdict == Admit::kRefusedDuplicate) ++counters_.dedup_refused;
  return verdict;
}

void Network::finalize_evictions(std::vector<PacketId>& victims) {
  for (const PacketId vid : victims) {
    Packet& v = packets_[vid];
    DTN_ASSERT(!is_terminal(v.state));
    // The store already dropped the entry; only the packet table and
    // the retry ledger still reference the victim.
    ledger_erase(vid);
    v.state = logical_delivered_[v.logical] != 0 ? PacketState::kObsoleteCopy
                                                 : PacketState::kEvicted;
    ++counters_.evicted_policy;
  }
  victims.clear();
}

bool Network::suppress_delivered_copy(Packet& p) {
  if (logical_delivered_[p.logical] == 0) return false;
  // Duplicate-delivery suppression: another copy of this logical packet
  // already reached the destination, so retire this one (as an obsolete
  // copy) at the admission point instead of letting it keep consuming
  // buffers.
  retire(p);
  ++counters_.duplicates_suppressed;
  return true;
}

BundleStore* Network::store_holding(const Packet& p) {
  switch (p.state) {
    case PacketState::kAtStation:
      return &stations_[p.holder].storage;
    case PacketState::kOnNode:
      return &node_stores_[p.holder];
    default:
      return nullptr;  // origin-queue and terminal packets
  }
}

void Network::set_holder_retention(Packet& p, Retention r) {
  if (BundleStore* store = store_holding(p)) {
    store->set_retention_if_held(p.id, r);
  }
}

void Network::detach_from_holder(Packet& p) {
  if (BundleStore* store = store_holding(p)) {
    store->remove(p.id);
    return;
  }
  DTN_ASSERT(p.state == PacketState::kAtOrigin);
  auto& origin = stations_[p.holder].origin;
  const auto it = std::find(origin.begin(), origin.end(), p.id);
  DTN_ASSERT(it != origin.end());
  origin.erase(it);
}

void Network::retire(Packet& p) {
  detach_from_holder(p);
  ledger_erase(p.id);
  if (logical_delivered_[p.logical] != 0) {
    p.state = PacketState::kObsoleteCopy;
  } else {
    p.state = PacketState::kDroppedTtl;
    ++counters_.dropped_ttl;
  }
}

void Network::deliver_from_holder(Packet& p) {
  detach_from_holder(p);
  ++p.hops;
  ++counters_.packet_forwards;
  deliver(p.id);
}

bool Network::may_transfer(Packet& p, bool endpoint_down) {
  DTN_ASSERT(!is_terminal(p.state));
  // Expiry first, so an expired packet never keeps moving between sweep
  // ticks.
  if (p.expired(sim_.now())) {
    retire(p);
    return false;
  }
  if (suppress_delivered_copy(p)) return false;
  if (endpoint_down) {
    ++counters_.transfers_blocked_fault;
    return false;
  }
  return !transfer_interrupted(p.id);
}

bool Network::move(Packet& p, BundleStore& target, PacketState state,
                   std::uint32_t holder, bool check_dedup) {
  // The source position is read before the target's append re-points
  // the shared column.
  BundleStore* source = store_holding(p);
  const std::size_t at = source != nullptr ? source->index_of(p.id) : 0;
  const Admit verdict = store_admit(target, p, Retention::kNone, check_dedup);
  if (verdict != Admit::kStored) {
    if (verdict == Admit::kRefusedCapacity) ++counters_.refused_buffer;
    return false;
  }
  if (source != nullptr) {
    source->remove_at(at);
  } else {
    detach_from_holder(p);  // still in its origin queue
  }
  p.state = state;
  p.holder = holder;
  ++p.hops;
  ++counters_.packet_forwards;
  return true;
}

bool Network::pickup_from_origin(NodeId node, PacketId pid) {
  Packet& p = packet(pid);
  DTN_ASSERT(p.state == PacketState::kAtOrigin);
  DTN_ASSERT(location_[node] == p.holder);
  if (!may_transfer(p, node_down(node))) return false;
  if (p.dst_node == node) {
    // Picked up by its destination: delivered on the spot.
    deliver_from_holder(p);
    return true;
  }
  // First pickup of source data: no dedup check (a carrier must be
  // able to take a fresh original even if it relayed a copy before).
  return move(p, node_stores_[node], PacketState::kOnNode, node,
              /*check_dedup=*/false);
}

bool Network::station_to_node(LandmarkId l, NodeId node, PacketId pid) {
  Packet& p = packet(pid);
  DTN_ASSERT(p.state == PacketState::kAtStation);
  DTN_ASSERT(p.holder == l);
  DTN_ASSERT(location_[node] == l);
  if (!may_transfer(p, station_down(l) || node_down(node))) return false;
  // Station dispatch onto a carrier skips the dedup check: refusing the
  // single-copy backbone's forward path would strand packets.
  if (p.dst_node == node) {
    deliver_from_holder(p);
  } else if (!move(p, node_stores_[node], PacketState::kOnNode, node,
                   /*check_dedup=*/false)) {
    return false;
  }
  note_station_activity(l);
  return true;
}

bool Network::node_to_station(NodeId node, PacketId pid) {
  Packet& p = packet(pid);
  DTN_ASSERT(p.state == PacketState::kOnNode);
  DTN_ASSERT(p.holder == node);
  const LandmarkId l = location_[node];
  DTN_ASSERT(l != kNoLandmark);
  if (!may_transfer(p, node_down(node) || station_down(l))) return false;
  const bool delivers =
      (p.dst == l && p.dst_node == trace::kNoNode) ||
      (p.dst_node != trace::kNoNode && location_[p.dst_node] == l);
  // A bounded station may evict per policy or refuse the incoming
  // bundle — refusal leaves the packet on the carrier (unbounded
  // stations always admit, the §V-A.1 default).
  if (delivers) {
    deliver_from_holder(p);
  } else if (move(p, stations_[l].storage, PacketState::kAtStation, l,
                  /*check_dedup=*/false)) {
    p.station_path.push_back(l);
  } else {
    return false;
  }
  note_station_activity(l);
  return true;
}

bool Network::node_to_node(NodeId from, NodeId to, PacketId pid) {
  Packet& p = packet(pid);
  DTN_ASSERT(p.state == PacketState::kOnNode);
  DTN_ASSERT(p.holder == from);
  DTN_ASSERT(from != to);
  DTN_ASSERT(location_[from] != kNoLandmark);
  DTN_ASSERT(location_[from] == location_[to]);
  if (!may_transfer(p, node_down(from) || node_down(to))) return false;
  if (p.dst_node == to) {
    deliver_from_holder(p);
    return true;
  }
  // Node-to-node relaying is where copies multiply, so the dedup set
  // applies here: a receiver that already saw this logical refuses it.
  return move(p, node_stores_[to], PacketState::kOnNode, to,
              /*check_dedup=*/true);
}

PacketId Network::replicate_node_to_node(NodeId from, NodeId to,
                                         PacketId pid) {
  Packet& src = packet(pid);
  DTN_ASSERT(src.state == PacketState::kOnNode);
  DTN_ASSERT(src.holder == from);
  DTN_ASSERT(from != to);
  DTN_ASSERT(location_[from] != kNoLandmark);
  DTN_ASSERT(location_[from] == location_[to]);
  // An already-delivered logical is not just skipped: the offered copy
  // itself retires (duplicate-delivery suppression).  Checked ahead of
  // the gate's expiry step, so an expired copy of a delivered logical
  // counts as suppressed here, where the other transfers retire it
  // uncounted.
  if (suppress_delivered_copy(src) ||
      !may_transfer(src, node_down(from) || node_down(to))) {
    return kNoPacket;
  }
  Packet copy = src;  // inherits deadline, routing state, path record
  copy.id = static_cast<PacketId>(packets_.size());
  copy.state = PacketState::kOnNode;
  copy.holder = to;
  ++copy.hops;
  const Admit verdict =
      store_admit(node_stores_[to], copy, Retention::kNone,
                  /*check_dedup=*/true);
  if (verdict != Admit::kStored) {
    if (verdict == Admit::kRefusedCapacity) ++counters_.refused_buffer;
    return kNoPacket;
  }
  packets_.push_back(std::move(copy));
  logical_delivered_.push_back(0);  // indexed per packet row; unused for copies
  ++counters_.packet_forwards;
  ++counters_.replications;
  return packets_.back().id;
}

bool Network::node_holds_logical(NodeId node, PacketId logical) const {
  for (const PacketId pid : node_buffer(node).packets()) {
    if (packets_[pid].logical == logical) return true;
  }
  return false;
}

bool Network::logical_delivered(PacketId logical) const {
  DTN_ASSERT(logical < logical_delivered_.size());
  return logical_delivered_[logical] != 0;
}

void Network::account_control(double entries) {
  DTN_ASSERT(entries >= 0.0);
  counters_.control_entries += entries;
}

void Network::validate_invariants() const {
  sim::AuditReport report;
  audit(report);
  if (!report.ok()) {
    std::fprintf(stderr,
                 "Network::validate_invariants: %zu violation(s):\n%s",
                 report.failures().size(), report.to_string().c_str());
    DTN_ASSERT(report.ok());
  }
}

void Network::audit(sim::AuditReport& report) const {
  report.set_context("event_queue.heap");
  sim_.queue().audit(report);
  report.set_context("network.present_sets");
  audit_present_sets(report);
  report.set_context("network.packet_table");
  audit_packet_table(report);
  report.set_context("network.buffer_accounting");
  audit_buffer_accounting(report);
  report.set_context("network.bundle_store");
  audit_bundle_stores(report);
  report.set_context("router.state");
  router_.audit(*this, report);
  report.set_context("network.fault_state");
  audit_fault_state(report);
}

void Network::audit_fault_state(sim::AuditReport& report) const {
  // Ledger <-> index bijection: every indexed packet names a live slot
  // that points back at it, and every slot is indexed exactly once.
  std::size_t indexed = 0;
  for (std::size_t pid = 0; pid < ledger_index_.size(); ++pid) {
    const std::uint32_t slot = ledger_index_[pid];
    if (slot == kNoLedgerSlot) continue;
    ++indexed;
    if (slot >= ledger_.size()) {
      report.fail("ledger_index_[" + std::to_string(pid) +
                  "] points past the ledger (" + std::to_string(slot) + ")");
      continue;
    }
    if (ledger_[slot].pid != pid) {
      report.fail("ledger slot " + std::to_string(slot) + " holds packet " +
                  std::to_string(ledger_[slot].pid) + " but is indexed by " +
                  std::to_string(pid));
    }
  }
  if (indexed != ledger_.size()) {
    report.fail("ledger has " + std::to_string(ledger_.size()) +
                " entries but " + std::to_string(indexed) +
                " index slots point into it");
  }
  for (const LedgerEntry& e : ledger_) {
    if (e.pid >= packets_.size()) {
      report.fail("ledger entry names out-of-range packet " +
                  std::to_string(e.pid));
      continue;
    }
    if (is_terminal(packets_[e.pid].state)) {
      report.fail("ledger entry for packet " + std::to_string(e.pid) +
                  " outlived the packet (terminal state)");
    }
    if (e.attempts == 0) {
      report.fail("ledger entry for packet " + std::to_string(e.pid) +
                  " has zero attempts");
    }
  }
  // The fault-loss counter must match a recount over the packet table.
  std::uint64_t lost = 0;
  for (const Packet& p : packets_) {
    if (p.state == PacketState::kLostFault) ++lost;
  }
  if (lost != counters_.packets_lost_fault) {
    report.fail("packets_lost_fault counter " +
                std::to_string(counters_.packets_lost_fault) +
                " but packet table holds " + std::to_string(lost) +
                " fault-lost packets");
  }
  if (faults_.has_value()) {
    faults_->audit(report);
    // A pending recovery-delay measurement implies the station is up
    // (it is cleared the instant a new outage starts).
    for (std::size_t l = 0; l < outage_recovery_pending_.size(); ++l) {
      if (outage_recovery_pending_[l] >= 0.0 &&
          faults_->station_down(static_cast<LandmarkId>(l))) {
        report.fail("station " + std::to_string(l) +
                    " is down but has a pending recovery measurement");
      }
    }
  } else {
    if (!ledger_.empty()) {
      report.fail("in-flight transfer ledger nonempty without a fault plan");
    }
    if (counters_.packets_lost_fault != 0) {
      report.fail("fault-loss counter nonzero without a fault plan");
    }
  }
}

Network::Presence Network::rebuild_presence() const {
  Presence out;
  out.location.assign(node_stores_.size(), kNoLandmark);
  out.present.resize(stations_.size());
  for (NodeId n = 0; n < node_stores_.size(); ++n) {
    const std::uint32_t pos = cursor_.replayed(n);
    if (pos % 2 == 0) continue;  // in transit
    const trace::Visit& v = trace_.visits(n)[pos / 2];
    out.location[n] = v.landmark;
    out.present[v.landmark].push_back(n);
  }
  // Nodes were listed by id, so a stable sort by start yields (start,
  // node id): the arrival order, since same-time arrivals replay in
  // node order.
  const auto start = [this](NodeId n) {
    return trace_.visits(n)[cursor_.replayed(n) / 2].start;
  };
  for (std::vector<NodeId>& present : out.present) {
    std::stable_sort(
        present.begin(), present.end(),
        [&start](NodeId x, NodeId y) { return start(x) < start(y); });
  }
  return out;
}

void Network::audit_present_sets(sim::AuditReport& report) const {
  const Presence expected = rebuild_presence();
  for (std::size_t l = 0; l < stations_.size(); ++l) {
    if (stations_[l].present != expected.present[l]) {
      report.fail("station " + std::to_string(l) +
                  " present list differs from the arrivals the trace "
                  "cursor has replayed");
    }
  }
  for (std::size_t n = 0; n < location_.size(); ++n) {
    if (location_[n] != expected.location[n]) {
      report.fail("node " + std::to_string(n) + " located at " +
                  std::to_string(location_[n]) + " but the trace cursor " +
                  "places it at " + std::to_string(expected.location[n]));
    }
  }
}

void Network::audit_packet_table(sim::AuditReport& report) const {
  // Direction 1: every held id names a packet whose state and holder
  // point back at the store holding it.
  std::vector<std::uint8_t> held(packets_.size(), 0);
  std::uint64_t held_count = 0;
  const auto note = [&](std::span<const PacketId> ids, PacketState state,
                        std::size_t holder, const char* what) {
    for (const PacketId pid : ids) {
      if (pid >= packets_.size()) continue;  // buffer_accounting reports it
      const Packet& p = packets_[pid];
      if (p.state != state || p.holder != holder) {
        report.fail(std::string(what) + " " + std::to_string(holder) +
                    " holds packet " + std::to_string(pid) +
                    " whose state and holder name another store");
        continue;
      }
      held[pid] = 1;
      ++held_count;
    }
  };
  for (std::size_t n = 0; n < node_stores_.size(); ++n) {
    note(node_stores_[n].packets(), PacketState::kOnNode, n, "node");
  }
  for (std::size_t l = 0; l < stations_.size(); ++l) {
    const StationState& st = stations_[l];
    note(st.storage.packets(), PacketState::kAtStation, l, "station");
    note(st.origin, PacketState::kAtOrigin, l, "origin queue");
  }
  // Direction 2: every live packet is held by the store it names.
  std::uint64_t live = 0;
  for (std::size_t pid = 0; pid < packets_.size(); ++pid) {
    const Packet& p = packets_[pid];
    if (is_terminal(p.state)) continue;
    ++live;
    if (held[pid] == 0) {
      report.fail("live packet " + std::to_string(pid) +
                  " is missing from the store its holder " +
                  std::to_string(p.holder) + " names");
    }
  }
  if (held_count != live) {
    report.fail("stores hold " + std::to_string(held_count) +
                " packets but " + std::to_string(live) + " are live");
  }
  // Terminal accounting: every delivered logical was counted once.
  if (counters_.delivered != counters_.delivery_delays.size()) {
    report.fail("delivered counter " + std::to_string(counters_.delivered) +
                " but " + std::to_string(counters_.delivery_delays.size()) +
                " delivery delays recorded");
  }
  if (counters_.delivered > counters_.generated) {
    report.fail("delivered counter " + std::to_string(counters_.delivered) +
                " exceeds generated " + std::to_string(counters_.generated));
  }
}

void Network::audit_buffer_accounting(sim::AuditReport& report) const {
  // Every id a store holds names a packet, and no packet is held by two
  // stores.  Each store audits its own capacity bound
  // (BundleStore::audit).
  std::vector<std::uint8_t> held(packets_.size(), 0);
  const auto note = [&](PacketId pid, const std::string& what) {
    if (pid >= packets_.size()) {
      report.fail(what + " holds an out-of-range packet id");
      return;
    }
    if (held[pid] != 0) {
      report.fail("packet " + std::to_string(pid) +
                  " held by more than one buffer (" + what + ")");
    }
    held[pid] = 1;
  };
  const auto audit_one = [&](const BundleStore& buf, const std::string& what) {
    for (const PacketId pid : buf.packets()) note(pid, what);
  };
  for (std::size_t n = 0; n < node_stores_.size(); ++n) {
    audit_one(node_stores_[n], "node " + std::to_string(n) + " buffer");
  }
  for (std::size_t l = 0; l < stations_.size(); ++l) {
    audit_one(stations_[l].storage,
              "station " + std::to_string(l) + " storage");
  }
}

void Network::audit_bundle_stores(sim::AuditReport& report) const {
  // Each store re-derives its own pool, column-entry and dedup-set
  // invariants (BundleStore::audit); the network-level part
  // cross-checks retention constraints against the packet table and the
  // fault ledger.
  const auto check_retention = [&](const BundleStore& store, bool is_station,
                                   std::uint32_t where,
                                   const std::string& what) {
    for (const PacketId pid : store.packets()) {
      switch (store.retention(pid)) {
        case Retention::kNone:
          break;
        case Retention::kDispatchPending:
          // Only source data at its origin station is dispatch-pending.
          if (!is_station) {
            report.fail(what + ": node-held packet " + std::to_string(pid) +
                        " marked dispatch-pending");
          } else if (packets_[pid].src != static_cast<LandmarkId>(where)) {
            report.fail(what + ": packet " + std::to_string(pid) +
                        " dispatch-pending away from its origin " +
                        std::to_string(packets_[pid].src));
          }
          break;
        case Retention::kForwardPending:
          // Forward-pending means a retry is live in the fault ledger.
          if (ledger_slot(pid) == kNoLedgerSlot) {
            report.fail(what + ": packet " + std::to_string(pid) +
                        " forward-pending without a ledger entry");
          }
          break;
      }
    }
  };
  for (std::size_t n = 0; n < node_stores_.size(); ++n) {
    const std::string what = "node " + std::to_string(n);
    node_stores_[n].audit(report, what);
    check_retention(node_stores_[n], false, static_cast<std::uint32_t>(n),
                    what);
  }
  for (std::size_t l = 0; l < stations_.size(); ++l) {
    const std::string what = "station " + std::to_string(l);
    stations_[l].storage.audit(report, what);
    check_retention(stations_[l].storage, true, static_cast<std::uint32_t>(l),
                    what);
  }
}

void Network::debug_restore_for_test(const std::vector<std::uint8_t>& image,
                                     persist::Writer* out) {
  DTN_ASSERT(!ran_);
  ran_ = true;
  load_checkpoint(image);
  if (out != nullptr) fields(*out);
}

bool Network::debug_corrupt_for_test(Corruption kind, int delta) {
  switch (kind) {
    case Corruption::kPresentOrder:
      for (auto& station : stations_) {
        if (station.present.size() < 2) continue;
        // The bug class this simulates: a departure erased out of order
        // (a swap-remove), reordering the contacts routers observe.
        std::swap(station.present[0], station.present[1]);
        return true;
      }
      return false;
    case Corruption::kLedgerIndex:
      if (ledger_.empty()) return false;
      // The bug class this simulates: a swap-erase renumbered the moved
      // entry's back-pointer wrong.
      ledger_index_[ledger_.front().pid] = static_cast<std::uint32_t>(
          static_cast<std::int64_t>(ledger_index_[ledger_.front().pid]) +
          delta);
      return true;
    case Corruption::kFaultLossCounter:
      // The bug class this simulates: a crash flush double-counted (or
      // missed) a lost packet.
      counters_.packets_lost_fault = static_cast<std::uint64_t>(
          static_cast<std::int64_t>(counters_.packets_lost_fault) + delta);
      return true;
    case Corruption::kStoreDedupOrder:
      // The bug class this simulates: an unsorted insert broke the
      // binary-search precondition of the dedup set.
      for (auto& store : node_stores_) {
        if (store.dedup_seen_count() == 0) continue;
        store.debug_corrupt_dedup_order_for_test(delta);
        return true;
      }
      for (auto& station : stations_) {
        if (station.storage.dedup_seen_count() == 0) continue;
        station.storage.debug_corrupt_dedup_order_for_test(delta);
        return true;
      }
      return false;
    case Corruption::kStorePoolSize:
      // The bug class this simulates: a swap-erase dropped an id but left
      // its metadata entry in the slab.
      for (auto& store : node_stores_) {
        if (store.count() == 0) continue;
        store.debug_corrupt_pool_size_for_test(delta);
        return true;
      }
      for (auto& station : stations_) {
        if (station.storage.count() == 0) continue;
        station.storage.debug_corrupt_pool_size_for_test(delta);
        return true;
      }
      return false;
    case Corruption::kStoreIndex:
      // The bug class this simulates: a swap-erase moved the last id
      // but left its column entry at the old position.
      for (auto& store : node_stores_) {
        if (store.count() == 0) continue;
        store.debug_corrupt_index_for_test(delta);
        return true;
      }
      for (auto& station : stations_) {
        if (station.storage.count() == 0) continue;
        station.storage.debug_corrupt_index_for_test(delta);
        return true;
      }
      return false;
    case Corruption::kPacketHolder:
      // The bug class this simulates: a transfer moved the packet into
      // its new store but left the holder naming the old one.
      for (Packet& p : packets_) {
        if (is_terminal(p.state)) continue;
        p.holder = static_cast<std::uint32_t>(
            static_cast<std::int64_t>(p.holder) + delta);
        return true;
      }
      return false;
  }
  return false;
}

PacketId Network::generate_packet(LandmarkId src, LandmarkId dst, double ttl,
                                  NodeId dst_node) {
  Packet p;
  p.id = static_cast<PacketId>(packets_.size());
  p.logical = p.id;
  p.src = src;
  p.dst = dst;
  p.dst_node = dst_node;
  p.created = sim_.now();
  p.ttl = ttl;
  p.holder = src;
  if (router_.uses_stations()) {
    // Source data enters dispatch-pending: a bounded origin station may
    // evict relayed traffic to make room, but never sheds another
    // packet's source data for it.  When nothing can make room the new
    // packet itself is shed — graceful load shedding, the overload
    // regime's intended failure mode (docs/bounded-store.md).
    if (store_admit(stations_[src].storage, p, Retention::kDispatchPending,
                    /*check_dedup=*/false) == Admit::kStored) {
      p.state = PacketState::kAtStation;
      // One allocation for the whole path record instead of one per
      // doubling: on the quick-scale campus replay 99% of paths end
      // within 8 stations.
      p.station_path.reserve(kStationPathReserve);
      p.station_path.push_back(src);
    } else {
      p.state = PacketState::kEvicted;
      ++counters_.admission_shed;
    }
  } else {
    p.state = PacketState::kAtOrigin;
    stations_[src].origin.push_back(p.id);
  }
  const PacketId pid = p.id;
  packets_.push_back(std::move(p));
  logical_delivered_.push_back(0);
  ++counters_.generated;
  if (dst_node != trace::kNoNode) any_node_addressed_ = true;
  // A shed packet never entered any store: it counts as generated
  // (offered load) but is invisible to the router and the handover scan.
  Packet& placed = packets_[pid];
  if (is_terminal(placed.state)) return pid;
  // A node-addressed packet whose destination node is connected at the
  // source right now is handed over on the spot.
  if (placed.dst_node != trace::kNoNode &&
      location_[placed.dst_node] == src &&
      !node_down(placed.dst_node) &&
      (placed.state != PacketState::kAtStation || !station_down(src))) {
    deliver_from_holder(placed);
    return pid;
  }
  router_.on_packet_generated(*this, pid);
  return pid;
}

void Network::deliver(PacketId pid) {
  Packet& p = packet(pid);
  DTN_ASSERT(!is_terminal(p.state));
  ledger_erase(pid);
  p.delivered_at = sim_.now();
  if (logical_delivered_[p.logical] != 0) {
    // Another copy got there first: retire silently.
    p.state = PacketState::kObsoleteCopy;
    return;
  }
  logical_delivered_[p.logical] = 1;
  p.state = PacketState::kDelivered;
  const double delay = p.delivered_at - p.created;
  ++counters_.delivered;
  counters_.total_delay += delay;
  counters_.delivery_delays.push_back(delay);
  counters_.delivery_hops.push_back(p.hops);
}

void Network::deliver_node_addressed(NodeId arriving, LandmarkId l) {
  const double now = sim_.now();
  // Station packets addressed to the arriving node (frozen while the
  // station is in an injected outage).
  if (!station_down(l)) {
    std::vector<PacketId> ready;
    for (const PacketId pid : stations_[l].storage.packets()) {
      if (packets_[pid].dst_node == arriving) ready.push_back(pid);
    }
    for (const PacketId pid : ready) {
      Packet& p = packets_[pid];
      if (p.expired(now)) continue;
      deliver_from_holder(p);
    }
  }
  // Packets carried by co-located nodes and addressed to the arriving
  // node, plus packets carried by the arriving node addressed to a
  // co-located node.  One upfront pass over the arriving node's buffer
  // decides whether the second direction can exist at all; the common
  // case (the carrier holds no node-addressed packets) then scans every
  // peer's buffer exactly once instead of re-walking the arriving
  // node's buffer per peer.
  std::size_t arriving_node_addressed = 0;
  for (const PacketId pid : node_stores_[arriving].packets()) {
    if (packets_[pid].dst_node != trace::kNoNode) ++arriving_node_addressed;
  }
  std::vector<PacketId> handover;
  for (const NodeId other : stations_[l].present) {
    if (node_down(other)) continue;
    for (const NodeId holder : {other, arriving}) {
      const NodeId target = holder == arriving ? other : arriving;
      if (holder == target) continue;
      // Skip re-walking the arriving node's buffer when it carries
      // nothing node-addressed.  (When it does, the exact re-walk is
      // kept: buffer removal swap-reorders the remaining packets, and
      // the per-peer walk order is part of the deterministic-replay
      // contract.)
      if (holder == arriving && arriving_node_addressed == 0) continue;
      handover.clear();
      for (const PacketId pid : node_stores_[holder].packets()) {
        if (packets_[pid].dst_node == target) handover.push_back(pid);
      }
      for (const PacketId pid : handover) {
        Packet& p = packets_[pid];
        if (p.expired(now)) continue;
        deliver_from_holder(p);
      }
    }
  }
}

void Network::drop_expired() {
  const double now = sim_.now();
  // Every live packet sits in one store or origin queue, so the sweep
  // reads those, not the whole packet table.  The due ids retire in
  // ascending order, the order a table scan meets them, so the stores'
  // swap-erases leave them as a scan would.
  std::vector<PacketId>& due = scratch_;
  due.clear();
  const auto collect = [&](std::span<const PacketId> held) {
    for (const PacketId pid : held) {
      const Packet& p = packets_[pid];
      if (logical_delivered_[p.logical] != 0 || p.expired(now)) {
        due.push_back(pid);
      }
    }
  };
  for (const BundleStore& store : node_stores_) collect(store.packets());
  for (const StationState& station : stations_) {
    collect(station.storage.packets());
    collect(station.origin);
  }
  std::sort(due.begin(), due.end());
  for (const PacketId pid : due) retire(packets_[pid]);
}

void Network::handle_arrival(const trace::Visit& visit) {
  BundleStore& store = node_stores_[visit.node];
  StationState& station = stations_[visit.landmark];
  DTN_ASSERT(location_[visit.node] == kNoLandmark);
  location_[visit.node] = visit.landmark;
  station.present.push_back(visit.node);

  // Automatic delivery: every router hands over packets destined to the
  // landmark the carrier just reached (DTN-FLOW step 5; for baselines
  // this *is* delivery — the carrier reached the destination area).
  // A crashed carrier delivers nothing; for station architectures the
  // landmark's station is the sink, so an outage defers delivery too.
  // `scratch_` is a reused member: this runs once per trace event, and
  // a fresh vector here would mean one allocation per arrival.
  const bool arriving_up = !node_down(visit.node);
  const bool sink_up =
      !router_.uses_stations() || !station_down(visit.landmark);
  if (arriving_up && sink_up) {
    std::vector<PacketId>& arrived = scratch_;
    arrived.clear();
    for (PacketId pid : store.packets()) {
      if (packets_[pid].dst == visit.landmark &&
          packets_[pid].dst_node == trace::kNoNode) {
        arrived.push_back(pid);
      }
    }
    for (PacketId pid : arrived) {
      Packet& p = packets_[pid];
      if (p.expired(sim_.now())) continue;  // swept later
      deliver_from_holder(p);
    }
  }

  // Node-addressed packets (§IV-E.4) waiting anywhere at this landmark
  // for the arriving node, or carried by it toward a co-located node.
  // No such packet has ever been generated in the standard workload, so
  // the whole handover pass is skipped there.
  if (any_node_addressed_ && arriving_up) {
    deliver_node_addressed(visit.node, visit.landmark);
  }

  router_.on_arrival(*this, visit.node, visit.landmark);

  // Node-node contacts with everyone already present (crashed radios,
  // either side, make no contact), unless the router ignores them.
  if (arriving_up && observes_contacts_) {
    for (NodeId other : station.present) {
      if (other == visit.node || node_down(other)) continue;
      router_.on_contact(*this, visit.node, other, visit.landmark);
    }
  }
}

void Network::handle_departure(const trace::Visit& visit) {
  DTN_ASSERT(location_[visit.node] == visit.landmark);

  router_.on_departure(*this, visit.node, visit.landmark);

  // The erase stays order-preserving: a swap-remove would reorder the
  // contacts routers observe.  Present lists are short, and the scan
  // touches about as many entries as the erase shifts.
  std::vector<NodeId>& present = stations_[visit.landmark].present;
  const auto it = std::find(present.begin(), present.end(), visit.node);
  DTN_ASSERT(it != present.end());
  present.erase(it);
  location_[visit.node] = kNoLandmark;
}

}  // namespace dtn::net
