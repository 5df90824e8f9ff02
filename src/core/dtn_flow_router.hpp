// DTN-FLOW: the paper's inter-landmark data-flow router (§IV).
//
// Responsibilities per event:
//
//  node arrives at landmark L (on_arrival):
//   * record the transit prev->L in the bandwidth estimator and score
//     the node's previous prediction (updating its per-landmark
//     prediction accuracy, §IV-D.4);
//   * merge the distance vector the node carried from its previous
//     landmark into L's routing table (tables travel on mobile nodes,
//     §IV-C.2);
//   * update the node's order-k Markov predictor and predict its next
//     transit (§IV-B);
//   * the node uploads every packet that targets L, or whose chosen
//     next hop is L, or for which L's table promises a smaller expected
//     delay than the packet is carrying (prediction-inaccuracy rule,
//     §IV-D.1) — each uploaded packet is immediately re-dispatched;
//   * L offers its stored packets to the newcomer (most-urgent first,
//     the §IV-D.5 forwarding priority).
//
//  node departs (on_departure): snapshot L's distance vector onto the
//  node; run the dead-end check on the completed stay (§IV-E.1).
//
//  time-unit tick (on_time_unit): close the bandwidth unit, refresh
//  every landmark's direct-link delays, roll the load-balancing rate
//  monitors (§IV-E.3, kept only with load balancing on) and re-check
//  parked nodes for dead ends.
//
// Routing loops are detected from the packet's station path and
// corrected by re-converging the distance vectors of the looped
// landmarks (§IV-E.2); `inject_loop` provides the experiment's fault
// injection.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "core/bandwidth.hpp"
#include "core/distributed_bandwidth.hpp"
#include "core/markov_predictor.hpp"
#include "core/routing_table.hpp"
#include "net/network.hpp"
#include "net/router.hpp"
#include "util/annotations.hpp"
#include "util/flat_matrix.hpp"

namespace dtn::core {

struct DtnFlowConfig {
  /// Markov predictor order k (paper: k = 1 is best on both traces).
  std::size_t predictor_order = 1;
  /// EWMA weight on the newest unit in the bandwidth update (eq. 4).
  double bandwidth_rho = 0.2;
  /// Learn outgoing link bandwidths through the faithful §IV-C.1
  /// protocol (reverse-notification tokens carried by predicted movers
  /// + O3 symmetry fallback) instead of the centralized shortcut.
  bool distributed_bandwidth = false;
  /// Routing-table exchange thinning (§IV-C.3's maintenance-cost
  /// observation: stable tables allow a lower update frequency): a node
  /// carries a distance vector only on every k-th departure.  1 = every
  /// transit (the base protocol).
  std::size_t dv_exchange_every = 1;
  /// The paper's stated future work (§VI): combine node-to-node
  /// communication with the inter-landmark flow.  When two carriers
  /// meet, a packet moves to the peer if its overall transit
  /// probability toward the packet's chosen next hop (or the peer's
  /// predicted transit straight to the destination) strictly beats the
  /// current carrier's.
  bool node_to_node_relay = false;
  /// Exploit nodes predicted to transit directly to a packet's
  /// destination (§IV-D.2).
  bool direct_delivery = true;
  /// Multiply transit probability by the node's measured prediction
  /// accuracy when ranking carriers (§IV-D.4).
  bool refine_carrier_selection = true;

  // -- extensions (§IV-E) ----------------------------------------------
  bool dead_end_prevention = false;
  /// Stay-time factor theta; a stay theta x longer than the node's
  /// average (overall or at this landmark) flags a dead end.
  double dead_end_theta = 2.0;
  bool loop_correction = false;
  /// Divert traffic to the backup next hop while a link is overloaded.
  bool load_balancing = false;

  // -- communication scheduling (§IV-D.5) -------------------------------
  /// Model the serialized landmark channel: each landmark is either in
  /// packet-uploading or packet-forwarding mode depending on the ratio
  /// of station-held packets to packets on connected nodes.
  bool scheduled_communication = false;

  /// Scheduled fault injection (Table VII): at time unit `at_unit`, pin
  /// the routing cycle `cycle` for destination `dst`.
  struct LoopInjection {
    net::LandmarkId dst = 0;
    std::vector<net::LandmarkId> cycle;
    std::size_t at_unit = 1;
  };
  std::vector<LoopInjection> loop_injections;
};

/// Extension/diagnostic counters exposed for the Table VI/VII benches.
struct DtnFlowDiagnostics {
  std::uint64_t transits_observed = 0;
  std::uint64_t predictions_scored = 0;
  std::uint64_t predictions_correct = 0;
  std::uint64_t dead_ends_detected = 0;
  std::uint64_t loops_detected = 0;
  std::uint64_t loops_corrected = 0;
  std::uint64_t balancing_diversions = 0;
  // -- resilience (nonzero only when a fault plan is attached) ----------
  std::uint64_t station_outages_seen = 0;
  std::uint64_t station_recoveries_seen = 0;
  /// Distance vectors destroyed in transit (carrier crash or injected
  /// control-plane loss).
  std::uint64_t dv_carriers_lost = 0;
  /// Distance vectors whose delivery was deferred to a later landmark
  /// by an injected propagation delay.
  std::uint64_t dv_deliveries_deferred = 0;
  /// Dispatches that fell back to the backup next hop because the
  /// primary next hop's station was down.
  std::uint64_t fallback_next_hops = 0;
  /// First accepted distance vector at a landmark after its recovery.
  std::uint64_t post_outage_reconvergences = 0;

  /// The one field list: the router's checkpoint image and
  /// metrics::run_digest both walk it.
  template <class Ar>
  void fields(Ar& ar) {
    ar.value("transits observed", transits_observed);
    ar.value("predictions scored", predictions_scored);
    ar.value("predictions correct", predictions_correct);
    ar.value("dead ends detected", dead_ends_detected);
    ar.value("loops detected", loops_detected);
    ar.value("loops corrected", loops_corrected);
    ar.value("balancing diversions", balancing_diversions);
    ar.value("station outages seen", station_outages_seen);
    ar.value("station recoveries seen", station_recoveries_seen);
    ar.value("vector carriers lost", dv_carriers_lost);
    ar.value("vector deliveries deferred", dv_deliveries_deferred);
    ar.value("fallback next hops", fallback_next_hops);
    ar.value("post-outage reconvergences", post_outage_reconvergences);
  }

  friend bool operator==(const DtnFlowDiagnostics&,
                         const DtnFlowDiagnostics&) = default;
};

/// A node's transit statistics: its last prediction (§IV-B), arrival
/// time, vector-exchange thinning counters (§IV-C.3) and stay times
/// (§IV-E.1).  Like its predictor and accuracy row, they are a fold of
/// the node's visits and the fault log: a load rebuilds them.  The
/// per-landmark arrays exist only when their feature reads them: the
/// thinning counters with `dv_exchange_every > 1`, the stay times with
/// `dead_end_prevention`; otherwise they stay empty (and the totals 0).
struct NodeTransits {
  LandmarkId predicted_next = kNoLandmark;
  LandmarkId predicted_from = kNoLandmark;
  double arrived_at = 0.0;
  /// Departures from each landmark since the node last carried its
  /// vector (per landmark, so shuttles serve both directions).
  std::vector<std::uint32_t> departures_since_dv;
  std::vector<double> stay_sum;
  std::vector<std::uint32_t> stay_count;
  double total_stay = 0.0;
  std::uint32_t total_stays = 0;

  friend bool operator==(const NodeTransits&, const NodeTransits&) = default;
};

class DtnFlowRouter final : public net::Router {
 public:
  explicit DtnFlowRouter(DtnFlowConfig config = {});

  [[nodiscard]] std::string name() const override { return "DTN-FLOW"; }
  [[nodiscard]] bool uses_stations() const override { return true; }

  void on_init(net::Network& net) override;
  void on_arrival(net::Network& net, net::NodeId node,
                  net::LandmarkId l) override;
  void on_departure(net::Network& net, net::NodeId node,
                    net::LandmarkId l) override;
  /// Contacts matter only with node-to-node relay on.
  [[nodiscard]] bool observes_contacts() const override {
    return cfg_.node_to_node_relay;
  }
  void on_contact(net::Network& net, net::NodeId arriving,
                  net::NodeId present, net::LandmarkId l) override;
  void on_packet_generated(net::Network& net, net::PacketId pid) override;
  void on_time_unit(net::Network& net, std::size_t unit_index) override;
  void on_node_crash(net::Network& net, net::NodeId node) override;
  void on_station_outage(net::Network& net, net::LandmarkId l) override;
  void on_station_recovery(net::Network& net, net::LandmarkId l) override;

  // -- checkpointing (src/persist/, docs/checkpointing.md) --------------
  /// The scratch buffers are not stored: every use refills them.  Nor
  /// is any node's predictor, accuracy row or NodeTransits, nor the
  /// centralized bandwidth estimator: a load folds them from the nodes'
  /// visits and the fault log (rebuild_node_state).
  [[nodiscard]] bool checkpointable() const override { return true; }
  void checkpoint_save(persist::Writer& w) const override;
  void checkpoint_load(persist::Reader& r, net::Network& net) override;

  /// Invariant audit hook (debug tooling, see invariant_auditor.hpp):
  /// audits every node predictor (flat store + incremental argmax),
  /// every landmark routing table (dirty bookkeeping + clean columns vs
  /// from-scratch recompute), the station-outage mirror, and the link
  /// delays of every table whose station was up at the last tick
  /// against the estimator's (which changes only at a tick).
  void audit(const net::Network& net, sim::AuditReport& report) const override;

  // -- introspection (tests / benches / figures) ------------------------
  [[nodiscard]] const DtnFlowConfig& config() const { return cfg_; }
  [[nodiscard]] const BandwidthEstimator& bandwidth() const { return bw_; }
  /// Distributed estimator (only when cfg.distributed_bandwidth).
  [[nodiscard]] const DistributedBandwidth& distributed_bandwidth() const {
    DTN_ASSERT(dbw_.has_value());
    return *dbw_;
  }
  [[nodiscard]] const RoutingTable& routing_table(net::LandmarkId l) const;
  [[nodiscard]] const MarkovPredictor& predictor(net::NodeId n) const;
  [[nodiscard]] double accuracy(net::NodeId n, net::LandmarkId l) const;
  [[nodiscard]] const NodeTransits& transits(net::NodeId n) const;
  [[nodiscard]] const DtnFlowDiagnostics& diagnostics() const {
    return diag_;
  }

  /// Fault injection for the Table VII experiment: pin a routing cycle
  /// for `dst` through `cycle` (cycle[i] -> cycle[i+1], wrapping).
  void inject_loop(net::LandmarkId dst,
                   std::span<const net::LandmarkId> cycle);

  /// Test-only: classify every station packet of an offer as a
  /// candidate, so the walk visits the full sorted queue.  Conformance
  /// tests compare this against the filtered walk
  /// (docs/routing-hot-path.md).
  void debug_offer_every_packet_for_test() { offer_every_packet_ = true; }

  /// §IV-E.4 helper: the destination node's most frequently visited
  /// landmarks (up to `count`), the places to address node-bound packets
  /// to.
  [[nodiscard]] static std::vector<net::LandmarkId> frequent_landmarks(
      const net::Network& net, net::NodeId node, std::size_t count);

 private:
  /// The carried vector and token come right after the predictor: an
  /// arrival reads all three, and this order replayed perfbench city
  /// faster than one with the transits between them.  With the
  /// predictor's probe slots inline (~700 B) the order still pays:
  /// predictor last, right behind the transits, replayed city ~2%
  /// slower (seed 1, 11 alternating 5 s runs, shared 4-vCPU host).
  struct NodeState {
    std::optional<MarkovPredictor> predictor;
    std::optional<DistanceVector> carried_dv;
    /// §IV-C.1 reverse-notification token picked up at departure.
    std::optional<BandwidthToken> carried_token;
    NodeTransits transits;
  };

  struct LandmarkState {
    std::optional<RoutingTable> table;
    // Per-neighbor packet counts for load balancing (§IV-E.3): incoming
    // and outgoing in the open unit, outgoing in the last closed one.
    // link_overloaded is their only reader, so they are sized (and
    // checkpointed) only with load balancing on.
    std::vector<double> incoming;
    std::vector<double> outgoing;
    std::vector<double> prev_outgoing;
    /// Alternation counter per overloaded link (diverts every other
    /// packet to the backup next hop).
    std::vector<std::uint32_t> divert_toggle;
    /// §IV-D.5 channel mode (meaningful when scheduled_communication):
    /// true = uplink serves node uploads, false = downlink forwards.
    bool uploading_mode = true;
  };

  template <class Ar>
  void fields(Ar& ar);

  /// How an arrival scored the node's previous prediction (§IV-D.4).
  enum class Scored : std::uint8_t { kNone, kHit, kMiss };

  /// The per-node writes of an arrival (on_arrival's and the load's):
  /// the stay clock starts; unless the node or the station is down, the
  /// last prediction is scored into the accuracy row, the predictor
  /// records `l` and predicts again.
  Scored note_arrival(net::NodeId node, net::LandmarkId prev,
                      net::LandmarkId l, double now, bool node_down,
                      bool station_down);
  /// The per-node writes of a departure: none for a crashed node, else
  /// the stay is recorded (with dead-end prevention) and, with the
  /// station up, the thinning counter advances (with k > 1).  True when
  /// the node is due to carry l's vector.
  bool note_departure(net::NodeId node, net::LandmarkId l, double now,
                      bool node_down, bool station_down);
  /// Fold every node's completed visits and current arrival through
  /// note_arrival / note_departure under the fault log's down flags,
  /// and replay the transits among them into the bandwidth estimator,
  /// unit by unit, through the last dispatched tick.
  void rebuild_node_state(const net::Network& net);

  /// The node's overall probability of transiting to `to` from its
  /// current landmark (transit probability, optionally x accuracy): the
  /// carrier ranking key of §IV-D.3/4 for station dispatch and
  /// node-to-node relay alike.
  [[nodiscard]] double overall_transit_probability(const net::Network& net,
                                                   net::NodeId n,
                                                   net::LandmarkId to) const;

  /// Choose the next hop (and expected delay) for `dst` at landmark `l`,
  /// applying load balancing.  Returns false when unreachable.
  bool choose_next_hop(net::LandmarkId l, net::LandmarkId dst,
                       net::LandmarkId& next, double& delay);

  [[nodiscard]] bool link_overloaded(const LandmarkState& ls,
                                     net::LandmarkId neighbor) const;

  /// Try to hand one station packet to the best connected carrier,
  /// scoring the present nodes afresh (docs/routing-hot-path.md,
  /// "Carrier selection").
  bool dispatch_packet(net::Network& net, net::LandmarkId l,
                       net::PacketId pid);

  /// Sort keys of one candidate station packet in an arrival offer
  /// (§IV-D.5 forwarding priority).
  struct OfferKey {
    double ttl_left;
    net::PacketId pid;
    /// The landmark's expected delay to the destination fits ttl_left.
    bool eligible;
  };

  /// Offer station packets to one (newly arrived) node: classify every
  /// packet, key and sort only the candidates, then walk them most
  /// urgent first.
  void offer_packets_to_node(net::Network& net, net::LandmarkId l,
                             net::NodeId n);

  /// Upload from node to station per the step-5 rules; returns the
  /// uploaded packet ids, a view of a scratch list that the next call
  /// overwrites.  `max_count` 0 = unlimited; `only_reached_hop`
  /// restricts to packets whose chosen next hop is this landmark
  /// (forwarding-mode uplink restriction, §IV-D.5).
  std::span<const net::PacketId> upload_packets(
      net::Network& net, net::NodeId n, net::LandmarkId l, bool force_all,
      std::size_t max_count = 0, bool only_reached_hop = false);

  /// Recompute the §IV-D.5 channel mode of landmark `l` with hysteresis.
  void update_channel_mode(const net::Network& net, net::LandmarkId l);

  /// Hybrid node-to-node relay (§VI future work): move `from`'s packets
  /// to `to` where `to` is the strictly better carrier.
  void relay_between_nodes(net::Network& net, net::NodeId from,
                           net::NodeId to);

 public:
  /// Current channel mode (uploading = true); only meaningful with
  /// scheduled_communication enabled.  Exposed for tests/benches.
  [[nodiscard]] bool landmark_uploading_mode(net::LandmarkId l) const;

 private:

  /// Load-balancing monitors: a packet entered l's station / left it
  /// toward `next` (no-ops with load balancing off).
  void note_station_ingress(net::Network& net, net::LandmarkId l,
                            net::PacketId pid);
  void note_station_egress(net::LandmarkId l, net::LandmarkId next);
  void check_loop(net::Network& net, net::LandmarkId l, net::PacketId pid);
  void correct_loop(net::Network& net, net::LandmarkId dst,
                    std::span<const net::LandmarkId> cycle);
  bool stay_is_dead_end(const NodeTransits& t, net::LandmarkId l,
                        double stay) const;
  void check_parked_dead_end(net::Network& net, net::NodeId n);

  /// Expected link delay from whichever estimator is active.
  [[nodiscard]] double link_expected_delay(net::LandmarkId from,
                                           net::LandmarkId to) const;

  DTN_CKPT_SKIP("pinned by the router section's config fingerprint")
  DtnFlowConfig cfg_;
  DTN_CKPT_SKIP("folded from the nodes' transits on load")
  BandwidthEstimator bw_{1, 0.5};  // re-initialized in on_init
  std::optional<DistributedBandwidth> dbw_;
  std::vector<NodeState> nodes_;
  std::vector<LandmarkState> landmarks_;
  /// Mirror of the injector's station-outage set (maintained through the
  /// fault hooks; all zeros without a fault plan).  choose_next_hop has
  /// no Network access, so the fallback check reads this mirror — the
  /// audit hook cross-checks it against the injector's ground truth.
  DTN_CKPT_SKIP("copied from the injector's down sets on load")
  std::vector<std::uint8_t> station_down_;
  /// Landmarks recovered from an outage and waiting for their first
  /// accepted distance vector (re-convergence accounting).
  std::vector<std::uint8_t> needs_reconvergence_;
  /// Per-(node, landmark) prediction accuracy (§IV-D.4).
  DTN_CKPT_SKIP("folded from the node's visits on load")
  FlatMatrix<double> accuracy_;
  DtnFlowDiagnostics diag_;
  DTN_CKPT_SKIP("set by on_init from the fingerprinted workload")
  double time_unit_ = trace::kDay;
  /// Scratch buffer for per-node conditional distributions (reused by
  /// offer_packets_to_node; avoids a vector allocation per offer).
  DTN_CKPT_SKIP("scratch, rebuilt empty on resume")
  std::vector<double> distribution_scratch_;
  /// Scratch lists of offer_packets_to_node and upload_packets (reused
  /// so an arrival allocates no key or result vector).
  DTN_CKPT_SKIP("scratch, rebuilt empty on resume")
  std::vector<OfferKey> offer_keys_;
  DTN_CKPT_SKIP("scratch, rebuilt empty on resume")
  std::vector<std::pair<double, net::PacketId>> upload_keys_;
  DTN_CKPT_SKIP("scratch, rebuilt empty on resume")
  std::vector<net::PacketId> uploaded_;
  /// Set only by debug_offer_every_packet_for_test.
  DTN_CKPT_SKIP("test-only switch, never set in a replay")
  bool offer_every_packet_ = false;
};

}  // namespace dtn::core
