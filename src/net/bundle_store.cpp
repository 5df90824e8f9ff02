#include "net/bundle_store.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "persist/serializer.hpp"
#include "sim/invariant_auditor.hpp"
#include "util/assert.hpp"

namespace dtn::net {

namespace {

// Each spill record is a standalone persist::Writer image (magic,
// schema version, one "spill" section, end marker) appended to the
// per-station file, so a torn tail is detectable by the same CRC/
// framing checks checkpoints use (docs/bounded-store.md).
constexpr std::string_view kSpillSection = "spill";

}  // namespace

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
                            bool dedup, std::string spill_path) {
  DTN_ASSERT(core_.empty() && spill_.empty());
  core_ = Buffer(capacity_kb);
  policy_ = policy;
  dedup_ = dedup;
  spill_path_ = std::move(spill_path);
  // Spilling into an unbounded store can never trigger; keep the
  // backend off so audits need not special-case it.
  if (core_.unbounded()) spill_path_.clear();
  if (spill_enabled()) spill_reset();
}

bool BundleStore::contains(PacketId pid) const {
  return core_.contains(pid) || spilled(pid);
}

bool BundleStore::spilled(PacketId pid) const {
  for (const SpillRecord& rec : spill_) {
    if (rec.pid == pid) return true;
  }
  return false;
}

std::vector<PacketId> BundleStore::spilled_ids() const {
  std::vector<PacketId> ids;
  ids.reserve(spill_.size());
  for (const SpillRecord& rec : spill_) ids.push_back(rec.pid);
  return ids;
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

void BundleStore::place(PacketId pid, const Entry& e) {
  core_.append(pid);
  meta_.push_back(e);
  if (e.retention != Retention::kNone) ++retained_;
  note_seen(e.logical);
}

Admit BundleStore::admit(const AdmitRequest& req,
                         std::vector<PacketId>* evicted_out) {
  DTN_ASSERT(req.pid != kNoPacket);
  DTN_ASSERT(!contains(req.pid));
  if (req.check_dedup && seen_logical(req.logical)) {
    return Admit::kRefusedDuplicate;
  }
  Entry e;
  e.admit_seq = next_admit_seq_;
  e.expected_delay = req.expected_delay;
  e.deadline = req.deadline;
  e.logical = req.logical;
  e.retention = req.retention;
  if (!core_.has_space()) {
    if (req.allow_spill && spill_enabled()) {
      ++next_admit_seq_;
      spill_out(req.pid, e);
      return Admit::kSpilled;
    }
    if (policy_ == EvictionPolicy::kReject || !evict_for(evicted_out)) {
      return Admit::kRefusedCapacity;
    }
  }
  ++next_admit_seq_;
  place(req.pid, e);
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
  erase_resident(victim);
  return true;
}

void BundleStore::erase_resident(std::size_t i) {
  if (meta_[i].retention != Retention::kNone) {
    DTN_ASSERT(retained_ > 0);
    --retained_;
  }
  core_.remove_at(i);
  // Mirror the Buffer's swap-erase so the slab stays parallel.
  meta_[i] = meta_.back();
  meta_.pop_back();
}

void BundleStore::remove(PacketId pid, std::vector<PacketId>* recalled_out) {
  const std::size_t i = core_.index_of(pid);
  if (i != core_.count()) {
    erase_resident(i);
    recall_while_fits(recalled_out);
    return;
  }
  // Spilled bundle (TTL sweeps reach them through the packet table).
  // Stable erase: the FIFO recall order of the others is part of the
  // replay contract.
  for (std::size_t s = 0; s < spill_.size(); ++s) {
    if (spill_[s].pid != pid) continue;
    spill_.erase(spill_.begin() + static_cast<std::ptrdiff_t>(s));
    return;
  }
  DTN_ASSERT(false && "remove: packet not in store");
}

void BundleStore::set_retention_if_held(PacketId pid, Retention r) {
  const std::size_t i = core_.index_of(pid);
  if (i == core_.count()) return;
  Entry& e = meta_[i];
  if (e.retention != Retention::kNone) --retained_;
  e.retention = r;
  if (e.retention != Retention::kNone) ++retained_;
}

Retention BundleStore::retention(PacketId pid) const {
  const std::size_t i = core_.index_of(pid);
  return i == core_.count() ? Retention::kNone : meta_[i].retention;
}

// -- spill backend -----------------------------------------------------

void BundleStore::spill_reset() {
  std::ofstream out(spill_path_, std::ios::binary | std::ios::trunc);
  DTN_ASSERT(out.good() && "cannot create spill file");
  spill_tail_ = 0;
}

std::uint64_t BundleStore::spill_append(PacketId pid, Entry e) {
  persist::Writer w;
  w.begin_section(kSpillSection);
  w.value("spilled packet", pid);
  e.fields(w);
  w.end_section();
  w.finish();
  std::ofstream out(spill_path_, std::ios::binary | std::ios::app);
  DTN_ASSERT(out.good() && "cannot open spill file for append");
  out.write(reinterpret_cast<const char*>(w.buffer().data()),
            static_cast<std::streamsize>(w.buffer().size()));
  DTN_ASSERT(out.good() && "spill append failed");
  return w.buffer().size();
}

BundleStore::Entry BundleStore::spill_fetch(const SpillRecord& rec) const {
  std::ifstream in(spill_path_, std::ios::binary);
  DTN_ASSERT(in.good() && "cannot open spill file for recall");
  in.seekg(static_cast<std::streamoff>(rec.offset));
  std::vector<std::uint8_t> bytes(rec.length);
  in.read(reinterpret_cast<char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
  DTN_ASSERT(in.gcount() == static_cast<std::streamsize>(bytes.size()));
  persist::Reader r(std::move(bytes));
  r.expect_section(kSpillSection);
  PacketId pid = kNoPacket;
  r.value("spilled packet", pid);
  Entry e;
  e.fields(r);
  r.end_section();
  r.finish();
  // The file is load-bearing: a recall whose on-disk record disagrees
  // with the in-memory index is corruption, not a soft error.
  DTN_ASSERT(pid == rec.pid);
  DTN_ASSERT(e.admit_seq == rec.entry.admit_seq);
  return e;
}

void BundleStore::spill_out(PacketId pid, const Entry& e) {
  SpillRecord rec;
  rec.entry = e;
  rec.pid = pid;
  rec.offset = spill_tail_;
  rec.length = spill_append(pid, e);
  spill_tail_ += rec.length;
  spill_.push_back(rec);
  note_seen(e.logical);
}

void BundleStore::recall_while_fits(std::vector<PacketId>* recalled_out) {
  while (!spill_.empty() && core_.has_space()) {
    const SpillRecord rec = spill_.front();
    spill_.erase(spill_.begin());
    const Entry e = spill_fetch(rec);
    place(rec.pid, e);
    if (recalled_out != nullptr) recalled_out->push_back(rec.pid);
  }
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
  ar.value("store retained count", retained_);
  ar.vec("store dedup set", seen_);
  // Offsets/lengths are artifacts of the local file (it may contain
  // holes from removed records); load rewrites a compacted file and
  // recomputes them, which keeps save→load→save byte-identical.
  ar.seq("store spill index", spill_, [&](SpillRecord& rec) {
    ar.value("spilled packet", rec.pid);
    rec.entry.fields(ar);
  });
  if constexpr (Ar::loading) {
    ar.check(spill_.empty() || spill_enabled(),
             "bundle store has spilled bundles but spill is disabled");
    // Rewrite the (freshly truncated) spill file from the snapshot so
    // resume does not depend on the original machine's file.
    if (spill_enabled()) spill_reset();
    for (SpillRecord& rec : spill_) {
      rec.offset = spill_tail_;
      rec.length = spill_append(rec.pid, rec.entry);
      spill_tail_ += rec.length;
    }
  }
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
  std::uint64_t retained = 0;
  for (std::size_t i = 0; i < meta_.size(); ++i) {
    if (meta_[i].retention != Retention::kNone) ++retained;
    if (meta_[i].admit_seq >= next_admit_seq_) {
      fail("entry " + std::to_string(core_.packets()[i]) +
           " admit_seq beyond the admission counter");
    }
  }
  // Index: every id found at its own position, and nothing else in it.
  for (std::size_t i = 0; i < core_.count(); ++i) {
    const std::size_t at = core_.index_of(core_.packets()[i]);
    if (at != i) {
      fail("index maps packet " + std::to_string(core_.packets()[i]) +
           " to position " + std::to_string(at) + ", id list holds it at " +
           std::to_string(i));
    }
  }
  if (core_.indexed_count() != core_.count()) {
    fail("index holds " + std::to_string(core_.indexed_count()) +
         " ids for " + std::to_string(core_.count()) + " in the id list");
  }
  if (retained != retained_) {
    fail("retained cache " + std::to_string(retained_) + " != recount " +
         std::to_string(retained));
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
    for (const SpillRecord& rec : spill_) {
      if (!seen_logical(rec.entry.logical)) {
        fail("spilled logical " + std::to_string(rec.entry.logical) +
             " missing from dedup set");
      }
    }
  }
  // Spill index: strictly increasing record extents, ids disjoint from
  // memory.
  std::uint64_t prev_end = 0;
  for (std::size_t s = 0; s < spill_.size(); ++s) {
    const SpillRecord& rec = spill_[s];
    if (s > 0 && rec.offset < prev_end) {
      fail("spill records overlap at index " + std::to_string(s));
    }
    prev_end = rec.offset + rec.length;
    if (core_.contains(rec.pid)) {
      fail("packet " + std::to_string(rec.pid) +
           " both in memory and spilled");
    }
  }
  if (prev_end > spill_tail_) {
    fail("spill index extends past the file tail");
  }
  if (!spill_.empty() && core_.unbounded()) {
    fail("unbounded store has spilled bundles");
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
