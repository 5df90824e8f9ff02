// Time-series instrumentation: wrap any router and sample system state
// at every measurement time unit — delivered/dropped counts, station
// backlogs, node-buffer occupancy.  Powers the congestion-dynamics
// bench and any "metric over time" figure.
#pragma once

#include <memory>
#include <vector>

#include "net/network.hpp"
#include "net/router.hpp"

namespace dtn::metrics {

struct TimeSample {
  double time = 0.0;
  std::size_t unit = 0;
  std::uint64_t generated = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped_ttl = 0;
  /// Packets sitting in landmark stations (summed / the largest one).
  std::size_t station_backlog_total = 0;
  std::size_t station_backlog_max = 0;
  /// Packets waiting at origin queues (node-only routers).
  std::size_t origin_backlog_total = 0;
  /// Packets on mobile nodes.
  std::size_t node_buffered_total = 0;
};

/// Decorator router: forwards every hook that can change behaviour to
/// the wrapped router and records a TimeSample per time unit.  It is not
/// checkpointable: its samples are not in the image.
class ObservedRouter final : public net::Router {
 public:
  explicit ObservedRouter(std::unique_ptr<net::Router> inner);

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] bool uses_stations() const override {
    return inner_->uses_stations();
  }

  void on_init(net::Network& net) override;
  void on_arrival(net::Network& net, net::NodeId node,
                  net::LandmarkId l) override;
  void on_departure(net::Network& net, net::NodeId node,
                    net::LandmarkId l) override;
  void on_contact(net::Network& net, net::NodeId arriving,
                  net::NodeId present, net::LandmarkId l) override;
  void on_packet_generated(net::Network& net, net::PacketId pid) override;
  void on_time_unit(net::Network& net, std::size_t unit_index) override;
  [[nodiscard]] bool observes_contacts() const override {
    return inner_->observes_contacts();
  }
  void on_node_crash(net::Network& net, net::NodeId node) override {
    inner_->on_node_crash(net, node);
  }
  void on_station_outage(net::Network& net, net::LandmarkId l) override {
    inner_->on_station_outage(net, l);
  }
  void on_station_recovery(net::Network& net, net::LandmarkId l) override {
    inner_->on_station_recovery(net, l);
  }
  void audit(const net::Network& net,
             sim::AuditReport& report) const override {
    inner_->audit(net, report);
  }

  [[nodiscard]] const std::vector<TimeSample>& samples() const {
    return samples_;
  }
  [[nodiscard]] net::Router& inner() { return *inner_; }

 private:
  std::unique_ptr<net::Router> inner_;
  std::vector<TimeSample> samples_;
};

}  // namespace dtn::metrics
