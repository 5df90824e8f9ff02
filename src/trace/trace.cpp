#include "trace/trace.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "trace/cursor.hpp"

namespace dtn::trace {

void require_valid_days(double days) {
  if (!std::isfinite(days) || days <= 0.0) {
    throw std::invalid_argument("days must be positive and finite, got " +
                                std::to_string(days));
  }
}

Trace::Trace(std::size_t num_nodes, std::size_t num_landmarks)
    : num_landmarks_(num_landmarks), per_node_(num_nodes) {}

void Trace::add_visit(const Visit& v) {
  DTN_ASSERT(!finalized_);
  DTN_ASSERT(v.node < per_node_.size());
  DTN_ASSERT(v.landmark < num_landmarks_);
  DTN_ASSERT(v.end > v.start);
  per_node_[v.node].push_back(v);
}

void Trace::finalize() {
  DTN_ASSERT(!finalized_);
  for (auto& visits : per_node_) {
    std::sort(visits.begin(), visits.end(),
              [](const Visit& a, const Visit& b) { return a.start < b.start; });
    for (std::size_t i = 1; i < visits.size(); ++i) {
      // Visits of one node must not overlap: it is at one place at a time.
      DTN_ASSERT(visits[i].start >= visits[i - 1].end);
    }
  }
  finalized_ = true;
  replay_memo_ = std::make_shared<ReplayMemo>();
}

std::span<const Visit> Trace::visits(NodeId node) const {
  DTN_ASSERT(finalized_);
  DTN_ASSERT(node < per_node_.size());
  return per_node_[node];
}

std::size_t Trace::total_visits() const {
  std::size_t n = 0;
  for (const auto& v : per_node_) n += v.size();
  return n;
}

double Trace::begin_time() const {
  DTN_ASSERT(finalized_);
  double t = std::numeric_limits<double>::infinity();
  for (const auto& visits : per_node_) {
    if (!visits.empty()) t = std::min(t, visits.front().start);
  }
  return std::isfinite(t) ? t : 0.0;
}

double Trace::end_time() const {
  DTN_ASSERT(finalized_);
  double t = -std::numeric_limits<double>::infinity();
  for (const auto& visits : per_node_) {
    for (const auto& v : visits) t = std::max(t, v.end);
  }
  return std::isfinite(t) ? t : 0.0;
}

std::vector<Visit> Trace::all_visits_sorted() const {
  DTN_ASSERT(finalized_);
  std::vector<Visit> all;
  all.reserve(total_visits());
  for (const auto& visits : per_node_) {
    all.insert(all.end(), visits.begin(), visits.end());
  }
  std::sort(all.begin(), all.end(),
            [](const Visit& a, const Visit& b) { return a.start < b.start; });
  return all;
}

std::vector<Transit> Trace::transits(NodeId node) const {
  DTN_ASSERT(finalized_);
  DTN_ASSERT(node < per_node_.size());
  const auto& visits = per_node_[node];
  std::vector<Transit> out;
  for (std::size_t i = 1; i < visits.size(); ++i) {
    if (visits[i].landmark == visits[i - 1].landmark) continue;
    out.push_back(Transit{node, visits[i - 1].landmark, visits[i].landmark,
                          visits[i - 1].end, visits[i].start});
  }
  return out;
}

std::vector<Transit> Trace::all_transits_sorted() const {
  std::vector<Transit> all;
  for (NodeId n = 0; n < per_node_.size(); ++n) {
    auto t = transits(n);
    all.insert(all.end(), t.begin(), t.end());
  }
  std::sort(all.begin(), all.end(),
            [](const Transit& a, const Transit& b) { return a.arrive < b.arrive; });
  return all;
}

std::shared_ptr<const ReplayOrder> Trace::replay_order() const {
  DTN_ASSERT(finalized_);
  DTN_ASSERT(replay_memo_ != nullptr);  // a moved-from trace has none
  std::call_once(replay_memo_->built, [this] {
    replay_memo_->order = build_replay_order(*this);
  });
  return {replay_memo_, &replay_memo_->order};
}

Trace Trace::window(double t0, double t1) const {
  DTN_ASSERT(finalized_);
  DTN_ASSERT(t1 > t0);
  Trace out(per_node_.size(), num_landmarks_);
  for (const auto& visits : per_node_) {
    for (const auto& v : visits) {
      const double s = std::max(v.start, t0);
      const double e = std::min(v.end, t1);
      if (e > s) {
        out.add_visit(Visit{v.node, v.landmark, s, e});
      }
    }
  }
  out.finalize();
  return out;
}

}  // namespace dtn::trace
