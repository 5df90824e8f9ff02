#include "routing/utility_router.hpp"

#include <vector>

namespace dtn::routing {

void UtilityRouter::on_init(Network& net) { (void)net; }

void UtilityRouter::on_arrival(Network& net, NodeId node, LandmarkId l) {
  update_on_arrival(net, node, l);
  // Pick up waiting packets generated at this landmark: without
  // infrastructure relays, any carrier beats none (later contacts move
  // the packet toward better carriers).
  const auto origin = net.origin_packets(l);
  std::vector<PacketId> waiting(origin.begin(), origin.end());
  for (const PacketId pid : waiting) {
    if (!net.node_buffer(node).has_space()) break;
    (void)net.pickup_from_origin(node, pid);
  }
}

void UtilityRouter::on_packet_generated(Network& net, PacketId pid) {
  // A carrier may already be connected at the source landmark when the
  // packet appears: give it to the most suitable present node.
  const Packet& p = net.packet(pid);
  const auto present = net.nodes_at(p.src);
  NodeId best = kNoNode;
  double best_u = -1.0;
  for (const NodeId n : present) {
    if (!net.node_buffer(n).has_space()) continue;
    const double u = utility(net, n, p);
    if (u > best_u) {
      best_u = u;
      best = n;
    }
  }
  if (best != kNoNode) {
    (void)net.pickup_from_origin(best, pid);
  }
}

void UtilityRouter::on_contact(Network& net, NodeId arriving, NodeId present,
                               LandmarkId l) {
  (void)l;
  // Both nodes send their utility vector (§V-A.1 total-cost accounting).
  net.account_control(2.0 * contact_control_entries(net));
  exchange_one_way(net, arriving, present);
  exchange_one_way(net, present, arriving);
}

void UtilityRouter::exchange_one_way(Network& net, NodeId from, NodeId to) {
  // Snapshot first: packets forwarded in this pass must not be examined
  // again (or bounced back by the reverse pass with equal utilities).
  const auto carried = net.node_packets(from);
  std::vector<PacketId> candidates(carried.begin(), carried.end());
  for (const PacketId pid : candidates) {
    const Packet& p = net.packet(pid);
    if (!net.node_buffer(to).has_space()) continue;
    if (!should_forward(net, from, to, p)) continue;
    (void)net.node_to_node(from, to, pid);
  }
}

}  // namespace dtn::routing
