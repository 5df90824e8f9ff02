// Packets and their lifecycle.
//
// Following §III-A.2 the network routes fixed-size, single-copy packets
// between landmarks; every packet is 1 kB, so a store of N kB holds N
// packets.  A packet is delivered the moment it reaches its destination
// landmark (station or carrying node arriving there) and is dropped
// when its TTL expires.
#pragma once

#include <cstdint>
#include <vector>

#include "trace/trace.hpp"

namespace dtn::net {

using trace::LandmarkId;
using trace::NodeId;
using trace::kNoLandmark;

using PacketId = std::uint32_t;
inline constexpr PacketId kNoPacket = static_cast<PacketId>(-1);

enum class PacketState : std::uint8_t {
  kAtOrigin,       ///< generated, waiting at the source landmark for a first carrier
  kAtStation,      ///< held by a landmark's central station (DTN-FLOW relays)
  kOnNode,         ///< carried by a mobile node
  kDelivered,
  kDroppedTtl,
  /// A copy whose logical packet was already delivered by another copy
  /// (removed from circulation without counting a second delivery).
  kObsoleteCopy,
  /// Destroyed by an injected fault (buffer loss in a node crash; see
  /// sim/fault_injector.hpp).
  kLostFault,
  /// Dropped by a bounded store: chosen as an eviction-policy victim,
  /// or shed at generation because its origin station was full
  /// (src/net/bundle_store.hpp, docs/bounded-store.md).
  kEvicted,
};

[[nodiscard]] constexpr bool is_terminal(PacketState s) {
  return s == PacketState::kDelivered || s == PacketState::kDroppedTtl ||
         s == PacketState::kObsoleteCopy || s == PacketState::kLostFault ||
         s == PacketState::kEvicted;
}

struct Packet {
  PacketId id = kNoPacket;
  LandmarkId src = 0;
  LandmarkId dst = 0;
  /// Node-addressed packets (§IV-E.4): when set, `dst` is only the
  /// routing target (typically a frequently-visited landmark of the
  /// destination node) and delivery happens when the packet reaches
  /// `dst_node` itself.
  NodeId dst_node = trace::kNoNode;
  double created = 0.0;
  double ttl = 0.0;  ///< lifetime in seconds from `created`

  /// Logical packet this is a copy of (== `id` for originals).
  /// Multi-copy routers replicate packets; success/delay count once per
  /// logical packet, forwarding cost counts every copy movement.
  PacketId logical = kNoPacket;

  PacketState state = PacketState::kAtOrigin;
  /// Landmark id (kAtOrigin/kAtStation) or node id (kOnNode) holding it.
  std::uint32_t holder = 0;

  // -- routing state written by routers --------------------------------
  /// Next-hop landmark chosen by the dispatching landmark (DTN-FLOW
  /// step 3); kNoLandmark when unset.
  LandmarkId next_hop = kNoLandmark;
  /// Expected overall delay from the dispatching landmark to the
  /// destination, carried with the packet (DTN-FLOW steps 2-3) so the
  /// carrier can judge unexpected landmarks against it.
  double expected_delay = 0.0;
  /// Landmarks whose station handled this packet, in order — the path
  /// record used for routing-loop detection (§IV-E.2).
  std::vector<LandmarkId> station_path;

  std::uint32_t hops = 0;       ///< number of forwarding operations
  double delivered_at = -1.0;

  [[nodiscard]] double deadline() const { return created + ttl; }
  [[nodiscard]] double remaining_ttl(double now) const {
    return deadline() - now;
  }
  [[nodiscard]] bool expired(double now) const { return now > deadline(); }
};

}  // namespace dtn::net
