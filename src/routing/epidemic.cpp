#include "routing/epidemic.hpp"

#include <vector>

namespace dtn::routing {

void EpidemicRouter::on_arrival(net::Network& net, net::NodeId node,
                                net::LandmarkId l) {
  // Any carrier is a good carrier: take everything waiting here.
  const auto origin = net.origin_packets(l);
  const std::vector<net::PacketId> waiting(origin.begin(), origin.end());
  for (const net::PacketId pid : waiting) {
    if (!net.node_buffer(node).has_space()) break;
    (void)net.pickup_from_origin(node, pid);
  }
}

void EpidemicRouter::on_packet_generated(net::Network& net,
                                         net::PacketId pid) {
  const net::Packet& p = net.packet(pid);
  for (const net::NodeId n : net.nodes_at(p.src)) {
    if (net.pickup_from_origin(n, pid)) break;
  }
}

void EpidemicRouter::on_contact(net::Network& net, net::NodeId arriving,
                                net::NodeId present, net::LandmarkId l) {
  (void)l;
  // Summary-vector exchange: one entry per carried packet.
  net.account_control(
      static_cast<double>(net.node_packets(arriving).size()) +
      static_cast<double>(net.node_packets(present).size()));
  infect_one_way(net, arriving, present);
  infect_one_way(net, present, arriving);
}

void EpidemicRouter::infect_one_way(net::Network& net, net::NodeId from,
                                    net::NodeId to) {
  const auto carried = net.node_packets(from);
  const std::vector<net::PacketId> pids(carried.begin(), carried.end());
  for (const net::PacketId pid : pids) {
    const net::Packet& p = net.packet(pid);
    if (net.logical_delivered(p.logical)) continue;
    if (net.node_holds_logical(to, p.logical)) continue;
    // Received-id dedup (always false when the store's dedup is off):
    // skip peers that already carried this logical, before spending a
    // replication on an admission the store would refuse.
    if (net.node_buffer(to).seen_logical(p.logical)) continue;
    if (!net.node_buffer(to).has_space()) continue;
    (void)net.replicate_node_to_node(from, to, pid);
  }
}

}  // namespace dtn::routing
