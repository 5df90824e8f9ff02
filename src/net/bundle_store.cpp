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
  // The always-on duplicate-admission check: one store never holds a
  // packet twice.
  DTN_ASSERT(!contains(req.pid) && "store: packet already present");
  if (req.check_dedup && seen_logical(req.logical)) {
    return Admit::kRefusedDuplicate;
  }
  if (!has_space() &&
      (policy_ == EvictionPolicy::kReject || !evict_for(evicted_out))) {
    return Admit::kRefusedCapacity;
  }
  Entry e;
  e.admit_seq = next_admit_seq_++;
  e.expected_delay = req.expected_delay;
  e.deadline = req.deadline;
  e.logical = req.logical;
  e.retention = req.retention;
  Column& column = *column_;
  if (req.pid >= column.size()) {
    column.resize(std::size_t{req.pid} + 1, kAbsent);
  }
  column[req.pid] = static_cast<std::uint32_t>(packets_.size());
  packets_.push_back(req.pid);
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
  evicted_out->push_back(packets_[victim]);
  remove_at(victim);
  return true;
}

void BundleStore::remove_at(std::size_t i) {
  DTN_ASSERT(i < packets_.size());
  // Swap-erase of the id list and the slab alike: store order is not
  // meaningful; routers that need a priority order sort a copy.
  if (i + 1 != packets_.size()) {
    packets_[i] = packets_.back();
    (*column_)[packets_[i]] = static_cast<std::uint32_t>(i);
    meta_[i] = meta_.back();
  }
  packets_.pop_back();
  meta_.pop_back();
}

void BundleStore::remove(PacketId pid) {
  const std::size_t i = index_of(pid);
  DTN_ASSERT(i != packets_.size() && "remove: packet not in store");
  remove_at(i);
}

void BundleStore::set_retention_if_held(PacketId pid, Retention r) {
  const std::size_t i = index_of(pid);
  if (i == packets_.size()) return;
  meta_[i].retention = r;
}

Retention BundleStore::retention(PacketId pid) const {
  const std::size_t i = index_of(pid);
  return i == packets_.size() ? Retention::kNone : meta_[i].retention;
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
  ar.vec("buffer packets", packets_);
  if constexpr (Ar::loading) {
    ar.check(unbounded() || packets_.size() <= capacity_kb_,
             "buffer holds more packets than its capacity");
    Column& column = *column_;
    for (std::size_t i = 0; i < packets_.size(); ++i) {
      const PacketId pid = packets_[i];
      ar.check(pid < column.size(), "buffer packet out of range");
      if (const std::uint32_t at = column[pid]; at != kAbsent) {
        ar.check(at >= i || packets_[at] != pid,
                 "buffer holds a packet id twice");
        Ar::fail("packet " + std::to_string(pid) + " is held by two stores");
      }
      column[pid] = static_cast<std::uint32_t>(i);
    }
    meta_.resize(packets_.size());
  }
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
  if (meta_.size() != packets_.size()) {
    fail("entry slab has " + std::to_string(meta_.size()) +
         " entries for " + std::to_string(packets_.size()) + " ids");
    return;  // the per-entry checks below index meta_ by id position
  }
  if (!unbounded() && packets_.size() > capacity_kb_) {
    fail("holds " + std::to_string(packets_.size()) +
         " bundles, above its capacity " + std::to_string(capacity_kb_));
  }
  for (std::size_t i = 0; i < meta_.size(); ++i) {
    if (meta_[i].admit_seq >= next_admit_seq_) {
      fail("entry " + std::to_string(packets_[i]) +
           " admit_seq beyond the admission counter");
    }
  }
  // Column: every id found at its own position (a broken entry reads as
  // absent, position count()).
  for (std::size_t i = 0; i < packets_.size(); ++i) {
    const std::size_t at = index_of(packets_[i]);
    if (at != i) {
      fail("position index maps packet " + std::to_string(packets_[i]) +
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

void BundleStore::debug_corrupt_index_for_test(int delta) {
  DTN_ASSERT(!packets_.empty());
  std::uint32_t& at = (*column_)[packets_.front()];
  at = static_cast<std::uint32_t>(static_cast<std::int64_t>(at) + delta);
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
