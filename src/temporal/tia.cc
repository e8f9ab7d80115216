#include "temporal/tia.h"

#include <algorithm>
#include <iterator>

#include "common/failpoint.h"

namespace tar {

const char* ToString(TiaBackend backend) {
  switch (backend) {
    case TiaBackend::kMvbt:
      return "MVBT";
    case TiaBackend::kFlat:
      return "flat";
  }
  return "?";
}

Tia::Tia(PageFile* file, BufferPool* pool, OwnerId owner, TiaBackend backend)
    : owner_(owner),
      backend_(backend),
      flat_(backend == TiaBackend::kFlat ? std::make_unique<Flat>() : nullptr),
      mvbt_(file, pool, owner) {}

std::int64_t Tia::Pack(const TimeInterval& extent, std::int64_t agg) {
  // value = duration (seconds, 31 bits) << 32 | aggregate (32 bits).
  std::int64_t duration = extent.end - extent.start + 1;
  return (duration << 32) | (agg & 0xFFFFFFFFll);
}

TiaRecord Tia::Unpack(std::int64_t ts, std::int64_t value) {
  std::int64_t duration = value >> 32;
  std::int64_t agg = value & 0xFFFFFFFFll;
  return TiaRecord{{ts, ts + duration - 1}, agg};
}

// ---------------------------------------------------------------------------
// Flat backend.

std::size_t Tia::Flat::LowerBound(Timestamp start) const {
  auto it = std::lower_bound(
      records.begin(), records.end(), start,
      [](const TiaRecord& r, Timestamp t) { return r.extent.start < t; });
  return static_cast<std::size_t>(it - records.begin());
}

Status Tia::Flat::Insert(const TimeInterval& extent,
                         std::int64_t aggregate) {
  // The MVBT's sentinel key, refused here too so that both backends
  // accept exactly the same epochs.
  if (extent.start == mvbt::kKeyMax) {
    return Status::InvalidArgument("INT64_MAX is reserved as a sentinel");
  }
  const std::size_t at = LowerBound(extent.start);
  if (at < records.size() && records[at].extent.start == extent.start) {
    return Status::AlreadyExists("record for this epoch already stored");
  }
  if ((at > 0 && records[at - 1].extent.end >= extent.start) ||
      (at < records.size() && records[at].extent.start <= extent.end)) {
    return Status::InvalidArgument("epoch extent overlaps a stored record");
  }
  records.insert(records.begin() + static_cast<std::ptrdiff_t>(at),
                 TiaRecord{extent, aggregate});
  prefix.push_back(0);
  RebuildPrefix(at);
  return Status::OK();
}

void Tia::Flat::RebuildPrefix(std::size_t from) {
  for (std::size_t i = from; i < records.size(); ++i) {
    prefix[i + 1] = prefix[i] + records[i].aggregate;
  }
}

std::int64_t Tia::Flat::Sum(const TimeInterval& iq) const {
  // The records inside iq form one run: those that start in iq, minus the
  // last one if it ends after iq.end (the extents are disjoint, so no
  // earlier one can).
  const auto first =
      records.begin() + static_cast<std::ptrdiff_t>(LowerBound(iq.start));
  auto last = std::upper_bound(
      first, records.end(), iq.end,
      [](Timestamp t, const TiaRecord& r) { return t < r.extent.start; });
  if (last != first && std::prev(last)->extent.end > iq.end) --last;
  return prefix[static_cast<std::size_t>(last - records.begin())] -
         prefix[static_cast<std::size_t>(first - records.begin())];
}

Status Tia::Flat::Check() const {
  if (prefix.size() != records.size() + 1 || prefix[0] != 0) {
    return Status::Corruption("flat TIA prefix array is malformed");
  }
  for (std::size_t i = 0; i < records.size(); ++i) {
    const TiaRecord& r = records[i];
    if (i > 0 && records[i - 1].extent.start >= r.extent.start) {
      return Status::Corruption("flat TIA starts not strictly increasing at " +
                                std::to_string(i));
    }
    if (i > 0 && records[i - 1].extent.end >= r.extent.start) {
      return Status::Corruption("flat TIA extents overlap at " +
                                std::to_string(i));
    }
    if (r.aggregate <= 0) {
      return Status::Corruption("flat TIA stores a non-positive aggregate at " +
                                std::to_string(i));
    }
    if (prefix[i + 1] - prefix[i] != r.aggregate) {
      return Status::Corruption("flat TIA prefix sum disagrees with record " +
                                std::to_string(i));
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Both backends.

Result<std::optional<TiaRecord>> Tia::Find(Timestamp start) const {
  if (flat_ != nullptr) {
    const std::size_t at = flat_->LowerBound(start);
    if (at < flat_->records.size() &&
        flat_->records[at].extent.start == start) {
      return std::optional<TiaRecord>(flat_->records[at]);
    }
    return std::optional<TiaRecord>();
  }
  auto existing = mvbt_.Lookup(mvbt_.last_version(), start);
  if (!existing.ok()) return existing.status();
  const std::optional<std::int64_t> stored = existing.ValueOrDie();
  if (!stored.has_value()) return std::optional<TiaRecord>();
  return std::optional<TiaRecord>(Unpack(start, *stored));
}

Status Tia::CheckPackable(const TimeInterval& extent,
                          std::int64_t aggregate) {
  if (!extent.Valid()) {
    return Status::InvalidArgument("invalid epoch extent");
  }
  if (aggregate >= (1ll << 32) ||
      extent.end - extent.start + 1 >= (1ll << 31)) {
    return Status::InvalidArgument("aggregate or epoch length out of range");
  }
  return Status::OK();
}

Status Tia::Append(const TimeInterval& extent, std::int64_t aggregate) {
  if (aggregate <= 0) {
    return Status::InvalidArgument("TIA stores only non-zero aggregates");
  }
  TAR_RETURN_NOT_OK(CheckPackable(extent, aggregate));
  if (flat_ != nullptr) {
    TAR_RETURN_NOT_OK(flat_->Insert(extent, aggregate));
  } else {
    TAR_RETURN_NOT_OK(
        mvbt_.Insert(++op_counter_, extent.start, Pack(extent, aggregate)));
  }
  total_ += aggregate;
  ++num_records_;
  return Status::OK();
}

Status Tia::RaiseTo(const TimeInterval& extent, std::int64_t aggregate) {
  // Same validation as Append: without it, an aggregate >= 2^32 or an
  // over-long extent would silently corrupt the duration bits in Pack.
  TAR_RETURN_NOT_OK(CheckPackable(extent, aggregate));
  if (aggregate <= 0) return Status::OK();  // nothing to raise
  auto found = Find(extent.start);
  if (!found.ok()) return found.status();
  const std::optional<TiaRecord> old = found.ValueOrDie();
  if (!old.has_value()) return Append(extent, aggregate);
  if (old->extent != extent) {
    return Status::InvalidArgument(
        "epoch extent overlaps the stored record starting at " +
        std::to_string(extent.start));
  }
  if (old->aggregate >= aggregate) return Status::OK();
  if (flat_ != nullptr) {
    const std::size_t at = flat_->LowerBound(extent.start);
    flat_->records[at].aggregate = aggregate;
    flat_->RebuildPrefix(at);
  } else {
    TAR_RETURN_NOT_OK(mvbt_.Erase(++op_counter_, extent.start));
    TAR_RETURN_NOT_OK(
        mvbt_.Insert(++op_counter_, extent.start, Pack(extent, aggregate)));
  }
  total_ += aggregate - old->aggregate;
  return Status::OK();
}

Result<std::int64_t> Tia::Aggregate(const TimeInterval& iq,
                                    AccessStats* stats,
                                    QueryDeadline* deadline) const {
  TAR_INJECT_FAULT("tia.aggregate");
  TAR_CHECK_CANCEL(deadline);
  if (flat_ != nullptr) {
    if (stats != nullptr) ++stats->aggregate_calls;
    return flat_->Sum(iq);
  }
  // The TIA-page budget is charged from the stats delta across the scan;
  // when the caller passed no stats, a scratch block keeps the accounting
  // without changing what the caller observes.
  AccessStats scratch;
  AccessStats* counted = stats;
  if (counted == nullptr && deadline != nullptr &&
      deadline->wants_tia_accounting()) {
    counted = &scratch;
  }
  if (counted != nullptr) ++counted->aggregate_calls;
  const std::uint64_t pages_before =
      counted != nullptr ? counted->tia_page_reads : 0;
  std::int64_t sum = 0;
  std::size_t in_range = 0;
  TAR_RETURN_NOT_OK(mvbt_.Scan(
      mvbt_.last_version(), iq.start, iq.end, counted,
      [&](mvbt::Key ts, mvbt::Value value) {
        ++in_range;
        const TiaRecord rec = Unpack(ts, value);
        if (rec.extent.end <= iq.end) sum += rec.aggregate;
      }));
  if (deadline != nullptr && counted != nullptr) {
    deadline->ChargeTiaPages(counted->tia_page_reads - pages_before);
  }
  // One poll per in-range record, so a deadline trips at the same record
  // count as a per-record loop would.
  for (std::size_t i = 0; i < in_range; ++i) {
    TAR_CHECK_CANCEL(deadline);  // Poll() amortizes the clock internally
  }
  return sum;
}

Status Tia::CheckBackend() const {
  if (flat_ != nullptr) {
    TAR_RETURN_NOT_OK(flat_->Check());
    if (flat_->prefix.back() != total_) {
      return Status::Corruption("flat TIA prefix total disagrees with total()");
    }
    if (flat_->records.size() != num_records_) {
      return Status::Corruption(
          "flat TIA record count disagrees with TIA num_records");
    }
    return Status::OK();
  }
  TAR_RETURN_NOT_OK(mvbt_.CheckInvariants());
  auto live = mvbt_.CountAlive(mvbt_.last_version());
  if (!live.ok()) return live.status();
  if (live.ValueOrDie() != num_records_) {
    return Status::Corruption(
        "MVBT live record count disagrees with TIA num_records");
  }
  return Status::OK();
}

Status Tia::Records(std::vector<TiaRecord>* out, AccessStats* stats) const {
  if (flat_ != nullptr) {
    *out = flat_->records;
    return Status::OK();
  }
  out->clear();
  std::vector<std::pair<std::int64_t, std::int64_t>> hits;
  // Inclusive full-key-range scan: the MVBT treats [lo, hi] as closed, so
  // hi must be INT64_MAX (the old INT64_MAX - 1 bound dropped a record
  // keyed at the maximum representable timestamp).
  TAR_RETURN_NOT_OK(
      mvbt_.RangeScanCurrent(INT64_MIN, INT64_MAX, &hits, stats));
  out->reserve(hits.size());
  for (const auto& [ts, value] : hits) out->push_back(Unpack(ts, value));
  return Status::OK();
}

}  // namespace tar
