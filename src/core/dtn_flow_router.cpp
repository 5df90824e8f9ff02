#include "core/dtn_flow_router.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <string>

#include "persist/serializer.hpp"
#include "sim/invariant_auditor.hpp"

#include "util/logging.hpp"

namespace dtn::core {

using net::LandmarkId;
using net::Network;
using net::NodeId;
using net::Packet;
using net::PacketId;

namespace {
// Minimum raw transit probability for a node that is *not* predicted to
// head to the next hop to still be usable as its carrier.
constexpr double kCarrierProbabilityFloor = 0.30;

// Per-(node, landmark) prediction accuracy (§IV-D.4): its starting
// value, and the multipliers on a correct and an incorrect prediction.
constexpr double kAccuracyInit = 0.5;
constexpr double kAccuracyGain = 1.1;
constexpr double kAccuracyLoss = 0.9;

// Completed stays a node needs before dead-end detection engages
// (§IV-E.1; keeps cold nodes from false positives).
constexpr std::uint32_t kDeadEndMinRecords = 5;

// Bounded rounds of the post-detection re-convergence exchange (§IV-E.2).
constexpr std::size_t kLoopCorrectionRounds = 8;

// Link overload factor lambda (§IV-E.3): incoming rate above lambda x
// outgoing rate diverts to the backup next hop.
constexpr double kOverloadLambda = 2.0;

// §IV-D.5 channel modes: switch to uploading when station/(packets on
// nodes) drops below T_u, back to forwarding when it exceeds T_d; in
// uploading mode a node uploads at most B_up packets per association.
constexpr double kUploadThreshold = 0.5;
constexpr double kDownloadThreshold = 2.0;
constexpr std::size_t kMaxUploadsPerArrival = 50;

// The route leads somewhere at a finite delay.
bool routable(const Route& r) {
  return r.reachable() && r.delay != kInfiniteDelay;
}

// The route's backup may take load-balanced traffic (§IV-E.3): it
// exists, is finite and is not drastically worse than the primary.
bool backup_balances(const Route& r) {
  return r.backup_next != kNoLandmark && r.backup_delay != kInfiniteDelay &&
         r.backup_delay <= 3.0 * r.delay;
}

// An arrival from `prev` at `l` is a transit the bandwidth estimators
// count (§IV-C.1): it changes landmark, and neither the node nor the
// station is down.  on_arrival and the load's fold both ask here.
bool counts_as_transit(LandmarkId prev, LandmarkId l, bool node_down,
                       bool station_down) {
  return prev != kNoLandmark && prev != l && !node_down && !station_down;
}

// An arriving node carries packets toward `next` when it is predicted to
// go there or its raw transit probability `raw` reaches the floor, and
// the probability and its product with the node's accuracy are positive.
bool carrier_accepts(LandmarkId predicted, LandmarkId next, double raw,
                     double acc) {
  if (predicted != next && raw < kCarrierProbabilityFloor) return false;
  return !(raw <= 0.0 || raw * acc <= 0.0);
}
}  // namespace

DtnFlowRouter::DtnFlowRouter(DtnFlowConfig config) : cfg_(config) {
  DTN_ASSERT(cfg_.predictor_order >= 1 && cfg_.predictor_order <= 3);
  DTN_ASSERT(cfg_.bandwidth_rho > 0.0 && cfg_.bandwidth_rho <= 1.0);
  DTN_ASSERT(cfg_.dead_end_theta >= 1.0);
  DTN_ASSERT(cfg_.dv_exchange_every >= 1);
}

void DtnFlowRouter::on_init(Network& net) {
  const std::size_t n = net.num_nodes();
  const std::size_t m = net.num_landmarks();
  time_unit_ = net.config().time_unit;
  bw_ = BandwidthEstimator(m, cfg_.bandwidth_rho);
  if (cfg_.distributed_bandwidth) {
    dbw_.emplace(m, cfg_.bandwidth_rho);
  } else {
    dbw_.reset();
  }
  nodes_.assign(n, NodeState{});
  landmarks_.assign(m, LandmarkState{});
  for (NodeId i = 0; i < n; ++i) {
    nodes_[i].predictor.emplace(m, cfg_.predictor_order);
    // Per-(node, landmark) state exists only when its feature reads it.
    NodeTransits& t = nodes_[i].transits;
    if (cfg_.dead_end_prevention) {
      t.stay_sum.assign(m, 0.0);
      t.stay_count.assign(m, 0);
    }
    if (cfg_.dv_exchange_every > 1) t.departures_since_dv.assign(m, 0);
  }
  for (LandmarkId l = 0; l < m; ++l) {
    LandmarkState& ls = landmarks_[l];
    ls.table.emplace(l, m);
    if (cfg_.load_balancing) {
      ls.incoming.assign(m, 0.0);
      ls.outgoing.assign(m, 0.0);
      ls.prev_outgoing.assign(m, 0.0);
      ls.divert_toggle.assign(m, 0);
    }
  }
  distribution_scratch_.clear();
  station_down_.assign(m, 0);
  needs_reconvergence_.assign(m, 0);
  accuracy_ = FlatMatrix<double>(n, m, kAccuracyInit);
  diag_ = DtnFlowDiagnostics{};
}

const RoutingTable& DtnFlowRouter::routing_table(LandmarkId l) const {
  DTN_ASSERT(l < landmarks_.size());
  return *landmarks_[l].table;
}

const MarkovPredictor& DtnFlowRouter::predictor(NodeId n) const {
  DTN_ASSERT(n < nodes_.size());
  return *nodes_[n].predictor;
}

double DtnFlowRouter::accuracy(NodeId n, LandmarkId l) const {
  return accuracy_.at(n, l);
}

const NodeTransits& DtnFlowRouter::transits(NodeId n) const {
  DTN_ASSERT(n < nodes_.size());
  return nodes_[n].transits;
}

void DtnFlowRouter::audit(const net::Network& net,
                          sim::AuditReport& report) const {
  for (std::size_t n = 0; n < nodes_.size(); ++n) {
    const NodeState& ns = nodes_[n];
    if (!ns.predictor.has_value()) continue;
    report.set_context("router.predictor[" + std::to_string(n) + "]");
    ns.predictor->audit(report);
  }
  for (std::size_t l = 0; l < landmarks_.size(); ++l) {
    const LandmarkState& ls = landmarks_[l];
    if (ls.table.has_value()) {
      report.set_context("router.routing_table[" + std::to_string(l) + "]");
      ls.table->audit(report);
    }
  }
  // Every station up at the last dispatched tick set its table's direct
  // links from the estimator then, and the estimator changes only at a
  // tick, so those links still read link_expected_delay.  Fault
  // transitions at a tick's instant run after it.
  report.set_context("router.link_delays");
  const std::vector<double> ticks = net.dispatched_tick_times();
  if (!ticks.empty()) {
    std::vector<std::uint8_t> down_at_tick(landmarks_.size(), 0);
    if (const sim::FaultInjector* faults = net.faults()) {
      for (const auto& t : faults->log()) {
        if (t.time >= ticks.back()) break;
        if (!t.node()) down_at_tick[t.id] ^= 1;
      }
    }
    for (LandmarkId l = 0; l < landmarks_.size(); ++l) {
      if (down_at_tick[l] != 0) continue;
      for (LandmarkId j = 0; j < landmarks_.size(); ++j) {
        if (j == l) continue;
        const double held = landmarks_[l].table->link_delay(j);
        const double estimated = link_expected_delay(l, j);
        if (std::bit_cast<std::uint64_t>(held) !=
            std::bit_cast<std::uint64_t>(estimated)) {
          report.fail("table " + std::to_string(l) + ": link to " +
                      std::to_string(j) + " holds delay " +
                      std::to_string(held) + " but the estimator gives " +
                      std::to_string(estimated));
        }
      }
    }
  }
  // The outage mirror (read by choose_next_hop, which has no Network
  // access) must agree with the injector's ground truth.
  report.set_context("router.fault_mirror");
  for (std::size_t l = 0; l < station_down_.size(); ++l) {
    const bool mine = station_down_[l] != 0;
    const bool truth = net.station_down(static_cast<net::LandmarkId>(l));
    if (mine != truth) {
      report.fail("station " + std::to_string(l) + ": router mirror says " +
                  (mine ? "down" : "up") + " but the injector says " +
                  (truth ? "down" : "up"));
    }
  }
}

double DtnFlowRouter::overall_transit_probability(const Network& net, NodeId n,
                                                  LandmarkId to) const {
  const NodeState& ns = nodes_[n];
  const double p = ns.predictor->probability_of(to);
  if (p <= 0.0) return 0.0;
  if (!cfg_.refine_carrier_selection) return p;
  const LandmarkId here = net.location(n);
  if (here == kNoLandmark) return p;
  return p * accuracy_.at(n, here);
}

double DtnFlowRouter::link_expected_delay(LandmarkId from,
                                          LandmarkId to) const {
  if (dbw_.has_value()) return dbw_->expected_delay(from, to, time_unit_);
  return bw_.expected_delay(from, to, time_unit_);
}

bool DtnFlowRouter::link_overloaded(const LandmarkState& ls,
                                    LandmarkId neighbor) const {
  // The previous unit's outgoing rate is the link's demonstrated
  // capacity; the *running* incoming count of the current unit is the
  // demand so far.  Only once demand has already exceeded lambda x
  // capacity within this unit is the link overloaded — the first
  // capacity-worth of packets each unit always uses the primary route.
  const double out = std::max(ls.prev_outgoing[neighbor], 1.0);
  return ls.incoming[neighbor] > kOverloadLambda * out;
}

bool DtnFlowRouter::choose_next_hop(LandmarkId l, LandmarkId dst,
                                    LandmarkId& next, double& delay) {
  LandmarkState& ls = landmarks_[l];
  const Route r = ls.table->route(dst);
  if (!routable(r)) return false;
  next = r.next;
  delay = r.delay;
  // Graceful degradation: the primary next hop's station is in an
  // injected outage.  Fall back to the backup route when it is alive
  // and finite rather than parking traffic on a dead relay; the
  // fallback skips load balancing (there is no second alternative left
  // to divert to).
  if (station_down_[next] != 0) {
    if (r.backup_next == kNoLandmark || r.backup_delay == kInfiniteDelay ||
        station_down_[r.backup_next] != 0) {
      return false;
    }
    next = r.backup_next;
    delay = r.backup_delay;
    ++diag_.fallback_next_hops;
    return true;
  }
  // Load balancing (§IV-E.3): when the link's incoming rate exceeds
  // lambda x its outgoing rate, offload the *excess* to the backup next
  // hop.  Diverting everything would just overload the (usually slower)
  // backup, so packets alternate between the two routes while the
  // overload lasts, and only when the backup is not drastically worse.
  if (cfg_.load_balancing && backup_balances(r) &&
      link_overloaded(ls, r.next) && !link_overloaded(ls, r.backup_next)) {
    if (++ls.divert_toggle[r.next] % 2 == 1) {
      next = r.backup_next;
      delay = r.backup_delay;
      ++diag_.balancing_diversions;
      // The diverted demand now loads the backup link; recording it
      // keeps the backup's own overload check honest, which caps the
      // diverted volume at the backup's demonstrated capacity.
      ls.incoming[r.backup_next] += 1.0;
    }
  }
  return true;
}

void DtnFlowRouter::note_station_ingress(Network& net, LandmarkId l,
                                         PacketId pid) {
  if (!cfg_.load_balancing) return;
  // Load-balancing incoming-rate monitor: which link would this packet
  // take out of l (pre-diversion best route)?
  const Packet& p = net.packet(pid);
  const Route r = landmarks_[l].table->route(p.dst);
  if (r.reachable() && r.delay != kInfiniteDelay) {
    landmarks_[l].incoming[r.next] += 1.0;
  }
}

void DtnFlowRouter::note_station_egress(LandmarkId l, LandmarkId next) {
  if (cfg_.load_balancing) landmarks_[l].outgoing[next] += 1.0;
}

void DtnFlowRouter::on_packet_generated(Network& net, PacketId pid) {
  const Packet& p = net.packet(pid);
  DTN_ASSERT(p.state == net::PacketState::kAtStation);
  note_station_ingress(net, p.src, pid);
  dispatch_packet(net, p.src, pid);
}

bool DtnFlowRouter::dispatch_packet(Network& net, LandmarkId l, PacketId pid) {
  // A station in an outage forwards nothing; its storage is a frozen
  // durable queue until recovery.
  if (station_down_[l] != 0) return false;
  Packet& p = net.packet(pid);
  DTN_ASSERT(p.state == net::PacketState::kAtStation && p.holder == l);
  // A node-addressed packet that has reached its target landmark waits
  // at the station for the destination node to show up (§IV-E.4).
  if (p.dst == l && p.dst_node != trace::kNoNode) return false;
  const auto present = net.nodes_at(l);
  if (present.empty()) return false;

  // The up node with buffer space and the highest overall transit
  // probability toward `to` that carrier_accepts admits (the first in
  // present order on ties); `predicted_only` also requires the node to
  // be predicted to go to `to`.
  const bool refine = cfg_.refine_carrier_selection;
  const auto best_carrier = [&](LandmarkId to, bool predicted_only) {
    NodeId best = trace::kNoNode;
    double best_p = 0.0;
    for (const NodeId n : present) {
      if (net.node_down(n)) continue;  // a crashed radio carries nothing
      const NodeState& ns = nodes_[n];
      const LandmarkId predicted = ns.transits.predicted_next;
      if (predicted_only && predicted != to) continue;
      if (!net.node_buffer(n).has_space()) continue;
      // Only plausible carriers qualify: handing packets to visitors
      // with a token transit probability toward the next hop just
      // bounces them between stations and wandering nodes.
      if (!carrier_accepts(predicted, to,
                           ns.predictor->probability_of(to),
                           refine ? accuracy_.at(n, l) : 1.0)) {
        continue;
      }
      const double overall = overall_transit_probability(net, n, to);
      if (overall > best_p) {
        best_p = overall;
        best = n;
      }
    }
    return best;
  };

  // Step 2: direct-delivery opportunity — a connected node predicted to
  // transit straight to the destination landmark.
  if (cfg_.direct_delivery) {
    const NodeId best = best_carrier(p.dst, /*predicted_only=*/true);
    if (best != trace::kNoNode &&
        hand_over(net, l, best, p, p.dst, direct_delay(l, p.dst))) {
      return true;
    }
  }

  // Step 3/4: routing table lookup, then the carrier with the highest
  // overall probability of transiting to the chosen next hop.
  LandmarkId next = kNoLandmark;
  double delay = kInfiniteDelay;
  if (!choose_next_hop(l, p.dst, next, delay)) return false;
  const NodeId best = best_carrier(next, /*predicted_only=*/false);
  return best != trace::kNoNode && hand_over(net, l, best, p, next, delay);
}

double DtnFlowRouter::direct_delay(LandmarkId l, LandmarkId dst) const {
  return std::min(landmarks_[l].table->delay_to(dst),
                  link_expected_delay(l, dst));
}

bool DtnFlowRouter::hand_over(Network& net, LandmarkId l, NodeId n,
                              Packet& p, LandmarkId next, double delay) {
  if (!net.station_to_node(l, n, p.id)) return false;
  p.next_hop = next;
  p.expected_delay = delay;
  note_station_egress(l, next);
  return true;
}

void DtnFlowRouter::offer_packets_to_node(Network& net, LandmarkId l,
                                          NodeId n) {
  const auto span = net.station_packets(l);
  if (span.empty()) return;
  const double now = net.now();
  // One conditional-distribution fill covers every packet of the offer:
  // the loop below reads P(next-hop | n's context) per packet, and n's
  // prediction state cannot change mid-offer.  The scratch buffer keeps
  // the fill allocation-free.
  nodes_[n].predictor->next_distribution(distribution_scratch_);
  const double acc_here = cfg_.refine_carrier_selection
                              ? accuracy_.at(n, l)
                              : 1.0;
  const LandmarkId predicted = nodes_[n].transits.predicted_next;
  const RoutingTable& table = *landmarks_[l].table;

  // Classify (docs/routing-hot-path.md, "Arrival offers and uploads"):
  // a candidate is a packet the walk below could hand over or on whose
  // behalf choose_next_hop could touch router state.  Every other packet
  // is one the walk would pass over with `continue` and no side effect,
  // so leaving it out of the sort and the walk changes nothing.
  const auto could_move = [&](const Packet& p, const Route& r) {
    if (cfg_.direct_delivery && predicted == p.dst) return true;
    if (!routable(r)) return false;
    // Outage fallback or a load-balancing diversion may fire.
    if (station_down_[r.next] != 0) return true;
    if (cfg_.load_balancing && backup_balances(r)) return true;
    return carrier_accepts(predicted, r.next, distribution_scratch_[r.next],
                           acc_here);
  };
  // Only candidates get a key (offer_every_packet_ keys every packet).
  offer_keys_.clear();
  for (const PacketId pid : span) {
    const Packet& p = net.packet(pid);
    const Route r = table.route(p.dst);
    const bool skipped = p.state != net::PacketState::kAtStation ||
                         (p.dst == l && p.dst_node != trace::kNoNode);
    if (!offer_every_packet_ && (skipped || !could_move(p, r))) continue;
    const double ttl_left = p.remaining_ttl(now);
    offer_keys_.push_back({ttl_left, pid, r.delay <= ttl_left});
  }
  // The walk breaks at the first packet the node has no space for, yet
  // no non-candidate can end it early: space is a free packet slot, so a
  // non-candidate finds no space exactly where the next candidate would
  // not either.

  // Sort the candidates by the §IV-D.5 forwarding priority: packets
  // whose expected delay fits the remaining TTL first, by smallest
  // remaining TTL, ties by packet id.  The order is total, so the
  // candidates keep the relative order they would have in a full sort.
  // The key list also snapshots the queue, which the handovers below
  // shrink.
  std::sort(offer_keys_.begin(), offer_keys_.end(),
            [](const OfferKey& a, const OfferKey& b) {
              if (a.eligible != b.eligible) return a.eligible;
              if (a.ttl_left != b.ttl_left) return a.ttl_left < b.ttl_left;
              return a.pid < b.pid;
            });

  for (const OfferKey& key : offer_keys_) {
    const PacketId pid = key.pid;
    Packet& p = net.packet(pid);
    if (p.state != net::PacketState::kAtStation) continue;  // moved already
    if (p.dst == l && p.dst_node != trace::kNoNode) continue;  // waiting here
    if (!net.node_buffer(n).has_space()) break;

    if (cfg_.direct_delivery && predicted == p.dst) {
      (void)hand_over(net, l, n, p, p.dst, direct_delay(l, p.dst));
      continue;
    }

    LandmarkId next = kNoLandmark;
    double delay = kInfiniteDelay;
    if (!choose_next_hop(l, p.dst, next, delay)) continue;
    if (carrier_accepts(predicted, next, distribution_scratch_[next],
                        acc_here)) {
      (void)hand_over(net, l, n, p, next, delay);
    }
  }
}

void DtnFlowRouter::upload_and_dispatch(Network& net, NodeId n, LandmarkId l,
                                        bool force_all, std::size_t max_count,
                                        bool only_reached_hop) {
  std::vector<PacketId>& uploaded = uploaded_;
  uploaded.clear();
  // Most-urgent-first upload order (§IV-D.5): smallest remaining TTL,
  // ties by packet id (the pair order).  `deadline - now` is exactly
  // remaining_ttl(now).  The key list outlives the uploads, which shrink
  // the node's packet list.
  const double now = net.now();
  upload_keys_.clear();
  for (const PacketId pid : net.node_packets(n)) {
    upload_keys_.emplace_back(net.packet(pid).deadline() - now, pid);
  }
  std::sort(upload_keys_.begin(), upload_keys_.end());
  for (const auto& [ttl_left, pid] : upload_keys_) {
    if (max_count != 0 && uploaded.size() >= max_count) break;
    Packet& p = net.packet(pid);
    bool upload = force_all;
    if (!upload && p.next_hop == l) upload = true;  // reached intended hop
    if (!upload && !only_reached_hop) {
      // Prediction-inaccuracy rule (§IV-D.1): hand over only when this
      // (unexpected) landmark still reduces the expected delay.
      const double here_delay = landmarks_[l].table->delay_to(p.dst);
      if (here_delay < p.expected_delay) upload = true;
    }
    if (!upload) continue;
    net.node_to_station(n, pid);
    if (net.packet(pid).state == net::PacketState::kAtStation) {
      uploaded.push_back(pid);
      note_station_ingress(net, l, pid);
      check_loop(net, l, pid);
    }
  }
  // Every upload lands before the first re-dispatch.
  for (const PacketId pid : uploaded) {
    if (net.packet(pid).state == net::PacketState::kAtStation) {
      dispatch_packet(net, l, pid);
    }
  }
}

void DtnFlowRouter::update_channel_mode(const Network& net, LandmarkId l) {
  LandmarkState& ls = landmarks_[l];
  const double station =
      static_cast<double>(net.station_packets(l).size());
  double on_nodes = 0.0;
  for (const NodeId n : net.nodes_at(l)) {
    on_nodes += static_cast<double>(net.node_packets(n).size());
  }
  // gamma = station backlog / packets on connected nodes; empty-handed
  // visitors push gamma to infinity (nothing to upload -> forward).
  const double ratio = on_nodes > 0.0
                           ? station / on_nodes
                           : (station > 0.0 ? kInfiniteDelay : 0.0);
  if (ratio < kUploadThreshold) {
    ls.uploading_mode = true;
  } else if (ratio > kDownloadThreshold) {
    ls.uploading_mode = false;
  }
  // Between the thresholds the previous mode persists (hysteresis).
}

bool DtnFlowRouter::landmark_uploading_mode(LandmarkId l) const {
  DTN_ASSERT(l < landmarks_.size());
  return landmarks_[l].uploading_mode;
}

DtnFlowRouter::Scored DtnFlowRouter::note_arrival(NodeId node, LandmarkId prev,
                                                  LandmarkId l, double now,
                                                  bool node_down,
                                                  bool station_down) {
  NodeState& ns = nodes_[node];
  NodeTransits& t = ns.transits;
  t.arrived_at = now;
  if (node_down || station_down) return Scored::kNone;
  // Score the prediction made when the node sat at `prev`.
  Scored scored = Scored::kNone;
  if (prev != kNoLandmark && prev != l && t.predicted_from == prev &&
      t.predicted_next != kNoLandmark) {
    double& acc = accuracy_.at(node, prev);
    if (t.predicted_next == l) {
      scored = Scored::kHit;
      acc = std::min(1.0, acc * kAccuracyGain);
    } else {
      scored = Scored::kMiss;
      acc = std::max(0.05, acc * kAccuracyLoss);
    }
  }
  ns.predictor->record_visit(l);
  t.predicted_next = ns.predictor->predict();
  t.predicted_from = l;
  return scored;
}

bool DtnFlowRouter::note_departure(NodeId node, LandmarkId l, double now,
                                   bool node_down, bool station_down) {
  if (node_down) return false;
  NodeTransits& t = nodes_[node].transits;
  // Stay-time statistics for the dead-end check (completed stay; a stay
  // through a station outage completes normally too).
  if (cfg_.dead_end_prevention) {
    const double stay = now - t.arrived_at;
    if (stay > 0.0) {
      t.stay_sum[l] += stay;
      t.stay_count[l] += 1;
      t.total_stay += stay;
      t.total_stays += 1;
    }
  }
  if (station_down) return false;
  // Carry the table to every k-th departure *from this landmark* when
  // the §IV-C.3 maintenance saving is on; with k = 1, every departure.
  if (cfg_.dv_exchange_every == 1) return true;
  if (++t.departures_since_dv[l] < cfg_.dv_exchange_every) return false;
  t.departures_since_dv[l] = 0;
  return true;
}

void DtnFlowRouter::on_arrival(Network& net, NodeId node, LandmarkId l) {
  NodeState& ns = nodes_[node];
  const LandmarkId prev = net.previous_landmark(node);
  const bool node_down = net.node_down(node);
  const bool station_down = station_down_[l] != 0;
  const Scored scored =
      note_arrival(node, prev, l, net.now(), node_down, station_down);
  const bool transit = counts_as_transit(prev, l, node_down, station_down);

  // A crashed node associates with nothing: its radio is dead (the stay
  // clock still started: the body is physically here).  Station outage:
  // the whole association protocol (measurement, vector exchange,
  // uploads, offers) runs through the station, so the visit is a no-op.
  // The node keeps any carried distance vector — it will deliver it
  // wherever it next finds a live station, which is exactly the delayed
  // propagation an outage causes.
  if (node_down || station_down) return;

  if (transit) {
    // Transit observed: bandwidth measurement (arrival side).
    bw_.record_transit(prev, l);
    if (dbw_.has_value()) dbw_->record_arrival(prev, l);
    ++diag_.transits_observed;
  }
  if (scored != Scored::kNone) {
    ++diag_.predictions_scored;
    if (scored == Scored::kHit) ++diag_.predictions_correct;
  }

  // Deliver the distance vector carried from the previous landmark.
  if (ns.carried_dv.has_value() && ns.carried_dv->origin != l) {
    sim::FaultInjector* faults = net.faults();
    if (faults != nullptr && faults->draw_dv_delay()) {
      // Injected control-plane delay: the exchange at this association
      // fails, the node keeps carrying the vector to a later landmark.
      ++diag_.dv_deliveries_deferred;
    } else {
      net.account_control(static_cast<double>(ns.carried_dv->entries()));
      const bool merged = landmarks_[l].table->merge(*ns.carried_dv);
      if (merged && needs_reconvergence_[l] != 0) {
        needs_reconvergence_[l] = 0;
        ++diag_.post_outage_reconvergences;
      }
      ns.carried_dv.reset();
    }
  } else {
    ns.carried_dv.reset();
  }

  // Deliver the §IV-C.1 reverse-notification token, if we are the
  // landmark it was addressed to (mispredicted carriers discard it).
  if (ns.carried_token.has_value()) {
    if (dbw_.has_value()) {
      net.account_control(1.0);
      (void)dbw_->deliver_token(l, *ns.carried_token);
    }
    ns.carried_token.reset();
  }

  // Step 5 uploads, then re-dispatch what landed at the station; with
  // §IV-D.5 scheduling the serialized channel serves either the uplink
  // (uploading mode: node uploads up to B_up most-urgent packets, no
  // downloads this association) or the downlink (forwarding mode: only
  // reached-next-hop uploads, then the station forwards).  Without
  // scheduling the node uploads everything due, then the landmark offers
  // its stored packets to the newcomer.
  const bool scheduled = cfg_.scheduled_communication;
  if (scheduled) update_channel_mode(net, l);
  const bool uploading = scheduled && landmarks_[l].uploading_mode;
  upload_and_dispatch(net, node, l, /*force_all=*/false,
                      uploading ? kMaxUploadsPerArrival : 0,
                      /*only_reached_hop=*/scheduled && !uploading);
  if (!uploading) offer_packets_to_node(net, l, node);

  // Dead-end extension: arrivals give parked co-located nodes a chance
  // to be checked (a stuck node's stay keeps growing between events).
  if (cfg_.dead_end_prevention) {
    for (const NodeId other : net.nodes_at(l)) {
      if (other != node) check_parked_dead_end(net, other);
    }
  }
}

void DtnFlowRouter::on_departure(Network& net, NodeId node, LandmarkId l) {
  const bool node_down = net.node_down(node);
  const bool station_down = station_down_[l] != 0;
  const bool carry_dv =
      note_departure(node, l, net.now(), node_down, station_down);
  // A crashed node departs carrying nothing new (its crash already
  // dropped the control state it held).  A down station has no table to
  // snapshot; any vector still carried (deferred delivery) rides along.
  if (node_down || station_down) return;
  NodeState& ns = nodes_[node];
  // Snapshot the table for carriage (accounted once per leg).
  if (carry_dv) {
    ns.carried_dv = landmarks_[l].table->snapshot();
    net.account_control(static_cast<double>(ns.carried_dv->entries()));
    // Injected control-plane loss: the carrier picked the vector up but
    // it never survives the leg (models a corrupted/dropped exchange).
    sim::FaultInjector* faults = net.faults();
    if (faults != nullptr && faults->draw_dv_loss()) {
      ns.carried_dv.reset();
      ++diag_.dv_carriers_lost;
    }
  } else {
    ns.carried_dv.reset();
  }

  // Hand the departing node the bandwidth report for the link it is
  // predicted to close (§IV-C.1).
  const NodeTransits& t = ns.transits;
  if (dbw_.has_value() && t.predicted_from == l &&
      t.predicted_next != kNoLandmark) {
    ns.carried_token = dbw_->issue_token(l, t.predicted_next);
  }
}

void DtnFlowRouter::on_node_crash(Network& net, NodeId node) {
  (void)net;
  NodeState& ns = nodes_[node];
  // Control state in transit dies with the carrier.
  if (ns.carried_dv.has_value()) {
    ns.carried_dv.reset();
    ++diag_.dv_carriers_lost;
  }
  ns.carried_token.reset();
}

void DtnFlowRouter::on_station_outage(Network& net, LandmarkId l) {
  (void)net;
  station_down_[l] = 1;
  ++diag_.station_outages_seen;
}

void DtnFlowRouter::on_station_recovery(Network& net, LandmarkId l) {
  (void)net;
  station_down_[l] = 0;
  needs_reconvergence_[l] = 1;
  ++diag_.station_recoveries_seen;
}

bool DtnFlowRouter::stay_is_dead_end(const NodeTransits& t, LandmarkId l,
                                     double stay) const {
  DTN_ASSERT(l < t.stay_count.size() && l < t.stay_sum.size());
  if (t.total_stays < kDeadEndMinRecords) return false;
  const double avg_all = t.total_stay / static_cast<double>(t.total_stays);
  if (stay > cfg_.dead_end_theta * avg_all) return true;
  if (t.stay_count[l] > 0) {
    const double avg_here =
        t.stay_sum[l] / static_cast<double>(t.stay_count[l]);
    if (stay > cfg_.dead_end_theta * avg_here) return true;
  }
  return false;
}

void DtnFlowRouter::check_parked_dead_end(Network& net, NodeId n) {
  if (net.node_packets(n).empty()) return;
  const LandmarkId here = net.location(n);
  if (here == kNoLandmark) return;
  // A crashed node can't hand anything over, and a down station can't
  // receive the §IV-E.1 force-upload; re-checked after recovery.
  if (net.node_down(n) || station_down_[here] != 0) return;
  const NodeTransits& t = nodes_[n].transits;
  if (!stay_is_dead_end(t, here, net.now() - t.arrived_at)) return;
  ++diag_.dead_ends_detected;
  // Hand everything to the station; the landmark re-routes (§IV-E.1).
  upload_and_dispatch(net, n, here, /*force_all=*/true);
}

void DtnFlowRouter::check_loop(Network& net, LandmarkId l, PacketId pid) {
  Packet& p = net.packet(pid);
  const auto& path = p.station_path;
  DTN_ASSERT(!path.empty() && path.back() == l);
  // Find a previous occurrence of l (excluding the entry just pushed).
  std::ptrdiff_t prev_idx = -1;
  for (std::ptrdiff_t i = static_cast<std::ptrdiff_t>(path.size()) - 2; i >= 0;
       --i) {
    if (path[static_cast<std::size_t>(i)] == l) {
      prev_idx = i;
      break;
    }
  }
  if (prev_idx < 0) return;
  ++diag_.loops_detected;
  if (!cfg_.loop_correction) return;
  const std::vector<LandmarkId> cycle(
      path.begin() + prev_idx, path.end() - 1);  // the looped landmarks
  correct_loop(net, p.dst, cycle);
}

void DtnFlowRouter::correct_loop(Network& net, LandmarkId dst,
                                 std::span<const LandmarkId> cycle) {
  ++diag_.loops_corrected;
  // The loop-correction packet clears the poisoned state and makes the
  // involved landmarks exchange their updated distance vectors
  // repeatedly until the next hop for `dst` settles (§IV-E.2's T_stable
  // is modelled as bounded synchronous rounds; each round is a real
  // table transfer and is accounted as control traffic).
  // Landmarks in an injected outage sit the exchange out (their frozen
  // tables keep any poisoned entry until a later detection after
  // recovery) — the correction degrades gracefully instead of writing
  // into dead stations.
  for (const LandmarkId lm : cycle) {
    if (station_down_[lm] != 0) continue;
    landmarks_[lm].table->unpin(dst);
  }
  for (std::size_t round = 0; round < kLoopCorrectionRounds; ++round) {
    bool changed = false;
    for (const LandmarkId from : cycle) {
      if (station_down_[from] != 0) continue;
      const DistanceVector dv = landmarks_[from].table->snapshot();
      for (const LandmarkId to : cycle) {
        if (to == from || station_down_[to] != 0) continue;
        net.account_control(static_cast<double>(dv.entries()));
        const auto before = landmarks_[to].table->route(dst).next;
        landmarks_[to].table->merge(dv);
        if (landmarks_[to].table->route(dst).next != before) changed = true;
      }
    }
    if (!changed) break;
  }
}

void DtnFlowRouter::inject_loop(LandmarkId dst,
                                std::span<const LandmarkId> cycle) {
  DTN_ASSERT(cycle.size() >= 2);
  // Attractive fake delays make the pinned cycle the preferred route for
  // `dst` at each involved landmark.
  const double fake_delay = trace::kHour;
  for (std::size_t i = 0; i < cycle.size(); ++i) {
    const LandmarkId from = cycle[i];
    const LandmarkId to = cycle[(i + 1) % cycle.size()];
    landmarks_[from].table->pin(dst, to, fake_delay);
  }
}

void DtnFlowRouter::on_contact(Network& net, NodeId arriving, NodeId present,
                               LandmarkId l) {
  (void)l;
  if (!cfg_.node_to_node_relay) return;
  // Suitability vectors travel both ways (accounted like the baselines').
  net.account_control(2.0 * static_cast<double>(net.num_landmarks()));
  relay_between_nodes(net, arriving, present);
  relay_between_nodes(net, present, arriving);
}

void DtnFlowRouter::relay_between_nodes(Network& net, NodeId from,
                                        NodeId to) {
  const auto carried = net.node_packets(from);
  const std::vector<PacketId> pids(carried.begin(), carried.end());
  for (const PacketId pid : pids) {
    const Packet& p = net.packet(pid);
    if (!net.node_buffer(to).has_space()) continue;
    // A peer predicted to transit straight to the destination is always
    // an upgrade (§IV-D.2 applied between carriers)...
    const bool direct_upgrade =
        cfg_.direct_delivery &&
        nodes_[to].transits.predicted_next == p.dst &&
        nodes_[from].transits.predicted_next != p.dst;
    // ...otherwise require a strictly better overall transit
    // probability toward the packet's chosen next hop.
    bool better = direct_upgrade;
    if (!better && p.next_hop != kNoLandmark) {
      better = overall_transit_probability(net, to, p.next_hop) >
               overall_transit_probability(net, from, p.next_hop);
    }
    if (better) {
      (void)net.node_to_node(from, to, pid);
    }
  }
}

void DtnFlowRouter::on_time_unit(Network& net, std::size_t unit_index) {
  for (const auto& inj : cfg_.loop_injections) {
    if (inj.at_unit == unit_index) inject_loop(inj.dst, inj.cycle);
  }
  bw_.close_unit();
  if (dbw_.has_value()) dbw_->close_unit();
  const std::size_t m = landmarks_.size();
  for (LandmarkId l = 0; l < m; ++l) {
    LandmarkState& ls = landmarks_[l];
    // A station in an outage is frozen whole: no link refresh, no
    // monitor roll — it resumes with its durable pre-outage state.
    if (station_down_[l] != 0) continue;
    for (LandmarkId j = 0; j < m; ++j) {
      if (j == l) continue;
      ls.table->set_link_delay(j, link_expected_delay(l, j));
    }
    if (cfg_.load_balancing) {  // roll the monitors
      ls.prev_outgoing.swap(ls.outgoing);
      std::fill(ls.incoming.begin(), ls.incoming.end(), 0.0);
      std::fill(ls.outgoing.begin(), ls.outgoing.end(), 0.0);
    }
  }
  if (cfg_.dead_end_prevention) {
    for (NodeId n = 0; n < nodes_.size(); ++n) {
      if (net.location(n) != kNoLandmark) check_parked_dead_end(net, n);
    }
  }
}

std::vector<LandmarkId> DtnFlowRouter::frequent_landmarks(const Network& net,
                                                          NodeId node,
                                                          std::size_t count) {
  std::vector<std::uint32_t> visits(net.num_landmarks(), 0);
  for (const auto& v : net.history(node)) ++visits[v.landmark];
  std::vector<LandmarkId> order(net.num_landmarks());
  for (LandmarkId l = 0; l < order.size(); ++l) order[l] = l;
  std::stable_sort(order.begin(), order.end(), [&](LandmarkId a, LandmarkId b) {
    return visits[a] > visits[b];
  });
  std::vector<LandmarkId> top;
  for (const LandmarkId l : order) {
    if (visits[l] == 0 || top.size() == count) break;
    top.push_back(l);
  }
  return top;
}

// -- checkpointing ------------------------------------------------------

template <class Ar>
void DtnFlowRouter::fields(Ar& ar) {
  constexpr bool loading = Ar::loading;
  const std::size_t m = landmarks_.size();
  ar.expect("router node count", nodes_.size());
  ar.expect("router landmark count", m);
  // The configuration: the fold, the monitors' presence and every hook
  // follow it, so a resume must be handed the one the image was saved
  // under.
  ar.expect("router predictor order", cfg_.predictor_order);
  ar.expect("router bandwidth rho", cfg_.bandwidth_rho);
  ar.expect("router distributed bandwidth", cfg_.distributed_bandwidth);
  ar.expect("router vector exchange every", cfg_.dv_exchange_every);
  ar.expect("router node-to-node relay", cfg_.node_to_node_relay);
  ar.expect("router direct delivery", cfg_.direct_delivery);
  ar.expect("router refined carrier selection",
            cfg_.refine_carrier_selection);
  ar.expect("router dead-end prevention", cfg_.dead_end_prevention);
  ar.expect("router dead-end theta", cfg_.dead_end_theta);
  ar.expect("router loop correction", cfg_.loop_correction);
  ar.expect("router load balancing", cfg_.load_balancing);
  ar.expect("router scheduled communication", cfg_.scheduled_communication);
  ar.expect("router loop injection count", cfg_.loop_injections.size());
  for (const DtnFlowConfig::LoopInjection& inj : cfg_.loop_injections) {
    ar.expect("router loop injection destination", inj.dst);
    ar.expect("router loop injection unit", inj.at_unit);
    ar.expect("router loop injection cycle length", inj.cycle.size());
    for (const LandmarkId l : inj.cycle) {
      ar.expect("router loop injection cycle", l);
    }
  }
  if (dbw_.has_value()) ar.object(*dbw_);
  // Per node, only the control state in transit: the predictor, the
  // accuracy row and NodeTransits are folded from the trace on load.
  for (NodeState& ns : nodes_) {
    bool has_dv = ns.carried_dv.has_value();
    ar.value("node carries a vector", has_dv);
    if (has_dv) {
      LandmarkId origin = loading ? 0 : ns.carried_dv->origin;
      std::uint64_t seq = loading ? 0 : ns.carried_dv->seq;
      std::vector<double> delay =
          loading ? std::vector<double>(m) : ns.carried_dv->delay();
      ar.index("carried vector origin", origin, m);
      ar.value("carried vector seq", seq);
      ar.fixed("carried vector delays", delay);
      // Restored as a fresh payload: its first merge sweeps.
      if constexpr (loading) {
        ns.carried_dv.emplace(origin, seq, std::move(delay));
      }
    }
    bool has_token = ns.carried_token.has_value();
    ar.value("node carries a token", has_token);
    if (has_token) {
      if constexpr (loading) ns.carried_token.emplace();
      BandwidthToken& tok = *ns.carried_token;
      ar.index("carried token link from", tok.link_from, m);
      ar.index("carried token link to", tok.link_to, m);
      ar.value("carried token count", tok.count);
      ar.value("carried token unit", tok.unit);
    }
  }
  for (LandmarkState& ls : landmarks_) {
    ar.object(*ls.table);
    if (cfg_.load_balancing) {
      ar.fixed("landmark incoming rates", ls.incoming);
      ar.fixed("landmark outgoing rates", ls.outgoing);
      ar.fixed("landmark previous outgoing rates", ls.prev_outgoing);
      ar.fixed("landmark divert toggles", ls.divert_toggle);
    }
    ar.value("landmark uploading mode", ls.uploading_mode);
  }
  ar.fixed("router needs reconvergence", needs_reconvergence_);
  diag_.fields(ar);
}

void DtnFlowRouter::checkpoint_save(persist::Writer& w) const {
  const_cast<DtnFlowRouter*>(this)->fields(w);
}

void DtnFlowRouter::checkpoint_load(persist::Reader& r, Network& net) {
  // Size every container from the configuration first, then overwrite.
  // The scratch buffers stay fresh: every use refills them.
  on_init(net);
  fields(r);
  for (LandmarkId l = 0; l < station_down_.size(); ++l) {
    station_down_[l] = net.station_down(l) ? 1 : 0;
  }
  rebuild_node_state(net);
}

void DtnFlowRouter::rebuild_node_state(const Network& net) {
  // Each id's transition times, in log (time) order.  Every id starts
  // up and alternates, and trace events run before fault events of the
  // same time, so an id was down at a trace event at time t iff an odd
  // number of its transitions came before t.
  std::vector<std::vector<double>> node_flips(nodes_.size());
  std::vector<std::vector<double>> station_flips(landmarks_.size());
  if (const sim::FaultInjector* faults = net.faults()) {
    for (const auto& t : faults->log()) {
      (t.node() ? node_flips : station_flips)[t.id].push_back(t.time);
    }
  }
  const auto down_at = [](const std::vector<double>& flips, double time) {
    return (std::lower_bound(flips.begin(), flips.end(), time) -
            flips.begin()) % 2 != 0;
  };
  // Each transit goes to the unit whose tick closes it.  Trace events
  // run before the tick of the same instant, so an arrival at a tick's
  // time counts in the unit that tick closes; the ticks are the
  // dispatched ones, so a snapshot between such an arrival and its tick
  // leaves that unit open.
  const std::vector<double> ticks = net.dispatched_tick_times();
  std::vector<std::vector<std::pair<LandmarkId, LandmarkId>>> transits(
      ticks.size() + 1);
  for (NodeId node = 0; node < nodes_.size(); ++node) {
    const std::vector<double>& flips = node_flips[node];
    LandmarkId prev = kNoLandmark;
    const auto arrive = [&](const trace::Visit& v) {
      const bool node_down = down_at(flips, v.start);
      const bool station_down = down_at(station_flips[v.landmark], v.start);
      note_arrival(node, prev, v.landmark, v.start, node_down, station_down);
      if (counts_as_transit(prev, v.landmark, node_down, station_down)) {
        const auto unit =
            std::lower_bound(ticks.begin(), ticks.end(), v.start) -
            ticks.begin();
        transits[static_cast<std::size_t>(unit)].emplace_back(prev,
                                                              v.landmark);
      }
      prev = v.landmark;
    };
    for (const trace::Visit& v : net.history(node)) {
      arrive(v);
      note_departure(node, v.landmark, v.end, down_at(flips, v.end),
                     down_at(station_flips[v.landmark], v.end));
    }
    if (const trace::Visit* v = net.current_visit(node)) arrive(*v);
  }
  // Eq. 4 unit by unit, as the ticks applied it (so bit for bit), then
  // the open unit's counts.
  for (std::size_t u = 0; u < transits.size(); ++u) {
    for (const auto& [from, to] : transits[u]) bw_.record_transit(from, to);
    if (u < ticks.size()) bw_.close_unit();
  }
}

}  // namespace dtn::core
