#include "routing/spray_wait.hpp"

#include <vector>

#include "util/assert.hpp"

namespace dtn::routing {

SprayAndWaitRouter::SprayAndWaitRouter(SprayWaitConfig config)
    : cfg_(config) {
  DTN_ASSERT(cfg_.initial_copies >= 1);
}

std::uint32_t SprayAndWaitRouter::tickets(net::PacketId pid) const {
  const auto it = tickets_.find(pid);
  return it == tickets_.end() ? 0 : it->second;
}

void SprayAndWaitRouter::on_arrival(net::Network& net, net::NodeId node,
                                    net::LandmarkId l) {
  const auto origin = net.origin_packets(l);
  const std::vector<net::PacketId> waiting(origin.begin(), origin.end());
  for (const net::PacketId pid : waiting) {
    if (!net.node_buffer(node).has_space()) break;
    if (net.pickup_from_origin(node, pid)) {
      tickets_[pid] = cfg_.initial_copies;
    }
  }
}

void SprayAndWaitRouter::on_packet_generated(net::Network& net,
                                             net::PacketId pid) {
  const net::Packet& p = net.packet(pid);
  for (const net::NodeId n : net.nodes_at(p.src)) {
    if (net.pickup_from_origin(n, pid)) {
      tickets_[pid] = cfg_.initial_copies;
      break;
    }
  }
}

void SprayAndWaitRouter::on_contact(net::Network& net, net::NodeId arriving,
                                    net::NodeId present, net::LandmarkId l) {
  (void)l;
  net.account_control(
      static_cast<double>(net.node_packets(arriving).size()) +
      static_cast<double>(net.node_packets(present).size()));
  spray_one_way(net, arriving, present);
  spray_one_way(net, present, arriving);
}

void SprayAndWaitRouter::spray_one_way(net::Network& net, net::NodeId from,
                                       net::NodeId to) {
  const auto carried = net.node_packets(from);
  const std::vector<net::PacketId> pids(carried.begin(), carried.end());
  for (const net::PacketId pid : pids) {
    const net::Packet& p = net.packet(pid);
    const std::uint32_t t = tickets(pid);
    if (t <= 1) continue;  // wait phase: direct delivery only
    if (net.logical_delivered(p.logical)) continue;
    if (net.node_holds_logical(to, p.logical)) continue;
    // Received-id dedup (always false when the store's dedup is off):
    // do not split tickets toward a peer that already carried this
    // logical — the store would refuse the copy anyway.
    if (net.node_buffer(to).seen_logical(p.logical)) continue;
    const net::PacketId copy = net.replicate_node_to_node(from, to, pid);
    if (copy == net::kNoPacket) continue;
    const std::uint32_t given = cfg_.binary ? t / 2 : 1;
    tickets_[copy] = given;
    tickets_[pid] = t - given;
  }
}

}  // namespace dtn::routing
