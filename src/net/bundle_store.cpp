#include "net/bundle_store.hpp"

#include <algorithm>
#include <string>

#include "persist/serializer.hpp"
#include "sim/invariant_auditor.hpp"
#include "util/assert.hpp"

namespace dtn::net {

const char* to_string(EvictionPolicy p) {
  switch (p) {
    case EvictionPolicy::kReject:
      return "reject";
    case EvictionPolicy::kDropOldest:
      return "drop-oldest";
    case EvictionPolicy::kDropLargestExpectedDelay:
      return "drop-largest-expected-delay";
    case EvictionPolicy::kTtlExpire:
      return "ttl-expire";
  }
  return "?";
}

bool parse_eviction_policy(std::string_view s, EvictionPolicy* out) {
  for (const EvictionPolicy p :
       {EvictionPolicy::kReject, EvictionPolicy::kDropOldest,
        EvictionPolicy::kDropLargestExpectedDelay,
        EvictionPolicy::kTtlExpire}) {
    if (s == to_string(p)) {
      *out = p;
      return true;
    }
  }
  return false;
}

void BundleStore::configure(std::uint64_t capacity_kb, EvictionPolicy policy,
                            bool dedup, Buffer::Column& column) {
  DTN_ASSERT(core_.empty());
  core_ = Buffer(capacity_kb, column);
  policy_ = policy;
  dedup_ = dedup;
}

bool BundleStore::add(PacketId pid) {
  AdmitRequest req;
  req.pid = pid;
  req.logical = pid;
  req.check_dedup = false;
  return admit(req, nullptr) == Admit::kStored;
}

void BundleStore::note_seen(PacketId logical) {
  if (!dedup_ || logical == kNoPacket) return;
  const auto it = std::lower_bound(seen_.begin(), seen_.end(), logical);
  if (it == seen_.end() || *it != logical) seen_.insert(it, logical);
}

bool BundleStore::seen_logical(PacketId logical) const {
  if (!dedup_) return false;
  return std::binary_search(seen_.begin(), seen_.end(), logical);
}

Admit BundleStore::admit(const AdmitRequest& req,
                         std::vector<PacketId>* evicted_out) {
  DTN_ASSERT(req.pid != kNoPacket);
  DTN_ASSERT(!contains(req.pid));
  if (req.check_dedup && seen_logical(req.logical)) {
    return Admit::kRefusedDuplicate;
  }
  if (!core_.has_space() &&
      (policy_ == EvictionPolicy::kReject || !evict_for(evicted_out))) {
    return Admit::kRefusedCapacity;
  }
  Entry e;
  e.admit_seq = next_admit_seq_++;
  e.expected_delay = req.expected_delay;
  e.deadline = req.deadline;
  e.logical = req.logical;
  e.retention = req.retention;
  core_.append(req.pid);
  meta_.push_back(e);
  note_seen(e.logical);
  return Admit::kStored;
}

std::size_t BundleStore::pick_victim() const {
  // Deterministic victim selection: a pure function of entry metadata
  // with admission-sequence tie-breaks, so reruns agree.
  std::size_t best = meta_.size();
  for (std::size_t i = 0; i < meta_.size(); ++i) {
    const Entry& e = meta_[i];
    if (e.retention != Retention::kNone) continue;
    if (best == meta_.size()) {
      best = i;
      continue;
    }
    const Entry& b = meta_[best];
    bool better = false;
    switch (policy_) {
      case EvictionPolicy::kReject:
        break;
      case EvictionPolicy::kDropOldest:
        better = e.admit_seq < b.admit_seq;
        break;
      case EvictionPolicy::kDropLargestExpectedDelay:
        better = e.expected_delay > b.expected_delay ||
                 (e.expected_delay == b.expected_delay &&
                  e.admit_seq < b.admit_seq);
        break;
      case EvictionPolicy::kTtlExpire:
        better = e.deadline < b.deadline ||
                 (e.deadline == b.deadline && e.admit_seq < b.admit_seq);
        break;
    }
    if (better) best = i;
  }
  return best;
}

bool BundleStore::evict_for(std::vector<PacketId>* evicted_out) {
  DTN_ASSERT(evicted_out != nullptr);
  const std::size_t victim = pick_victim();
  if (victim == meta_.size()) return false;  // every resident is retained
  evicted_out->push_back(core_.packets()[victim]);
  remove_at(victim);
  return true;
}

void BundleStore::remove_at(std::size_t i) {
  core_.remove_at(i);
  // Mirror the Buffer's swap-erase so the slab stays parallel.
  meta_[i] = meta_.back();
  meta_.pop_back();
}

void BundleStore::remove(PacketId pid) {
  const std::size_t i = core_.index_of(pid);
  DTN_ASSERT(i != core_.count() && "remove: packet not in store");
  remove_at(i);
}

void BundleStore::set_retention_if_held(PacketId pid, Retention r) {
  const std::size_t i = core_.index_of(pid);
  if (i == core_.count()) return;
  meta_[i].retention = r;
}

Retention BundleStore::retention(PacketId pid) const {
  const std::size_t i = core_.index_of(pid);
  return i == core_.count() ? Retention::kNone : meta_[i].retention;
}

// -- checkpointing -----------------------------------------------------

template <class Ar>
void BundleStore::Entry::fields(Ar& ar) {
  ar.value("bundle admit seq", admit_seq);
  ar.value("bundle expected delay", expected_delay);
  ar.value("bundle deadline", deadline);
  ar.value("bundle logical id", logical);
  ar.index("bundle retention", retention,
           static_cast<std::size_t>(Retention::kForwardPending) + 1);
}

template <class Ar>
void BundleStore::fields(Ar& ar) {
  ar.object(core_);
  if constexpr (Ar::loading) meta_.resize(core_.count());
  for (Entry& e : meta_) e.fields(ar);
  ar.value("store admission counter", next_admit_seq_);
  ar.vec("store dedup set", seen_);
}

void BundleStore::save(persist::Writer& w) const {
  const_cast<BundleStore*>(this)->fields(w);
}

void BundleStore::load(persist::Reader& r) { fields(r); }

// -- invariant auditing ------------------------------------------------

void BundleStore::audit(sim::AuditReport& report,
                        std::string_view label) const {
  const std::string who(label);
  auto fail = [&](const std::string& detail) {
    report.fail(who + ": " + detail);
  };
  // Pool accounting: slab parallel to the id list, capacity bound.
  if (meta_.size() != core_.count()) {
    fail("entry slab has " + std::to_string(meta_.size()) +
         " entries for " + std::to_string(core_.count()) + " ids");
    return;  // the per-entry checks below index meta_ by id position
  }
  if (!core_.unbounded() && core_.count() > core_.capacity_kb()) {
    fail("holds " + std::to_string(core_.count()) +
         " bundles, above its capacity " +
         std::to_string(core_.capacity_kb()));
  }
  for (std::size_t i = 0; i < meta_.size(); ++i) {
    if (meta_[i].admit_seq >= next_admit_seq_) {
      fail("entry " + std::to_string(core_.packets()[i]) +
           " admit_seq beyond the admission counter");
    }
  }
  // Column: every id found at its own position (a broken entry reads as
  // absent, position count()).
  for (std::size_t i = 0; i < core_.count(); ++i) {
    const std::size_t at = core_.index_of(core_.packets()[i]);
    if (at != i) {
      fail("position index maps packet " + std::to_string(core_.packets()[i]) +
           " to position " + std::to_string(at) + ", id list holds it at " +
           std::to_string(i));
    }
  }
  // Dedup set: sorted unique; every resident logical is a member.
  if (!std::is_sorted(seen_.begin(), seen_.end()) ||
      std::adjacent_find(seen_.begin(), seen_.end()) != seen_.end()) {
    fail("dedup set not sorted-unique");
  } else if (dedup_) {
    for (const Entry& e : meta_) {
      if (!seen_logical(e.logical)) {
        fail("resident logical " + std::to_string(e.logical) +
             " missing from dedup set");
      }
    }
  }
}

void BundleStore::debug_corrupt_dedup_order_for_test(int delta) {
  if (delta > 0) {
    DTN_ASSERT(!seen_.empty());
    seen_.push_back(seen_.front());
  } else {
    seen_.pop_back();
  }
}

void BundleStore::debug_corrupt_pool_size_for_test(int delta) {
  if (delta > 0) {
    DTN_ASSERT(!meta_.empty());
    meta_.push_back(meta_.front());
  } else {
    meta_.pop_back();
  }
}

}  // namespace dtn::net
