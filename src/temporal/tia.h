// TIA — temporal index on the aggregate (Section 4.1 of the paper).
//
// Each TAR-tree entry points to a TIA storing one record <ts, te, agg> per
// epoch with a non-zero aggregate. A leaf entry's TIA holds the POI's own
// per-epoch counts; an internal entry's TIA holds, per epoch, the maximum
// aggregate among the TIAs in its child node. Records support epochs of
// varied lengths.
//
// Two backends are provided:
//   * kMvbt — the multiversion B-tree the paper uses (asymptotically
//     optimal for versioned access; keeps the full update history). It is
//     disk-paged through the buffer pool, so every query is charged page
//     accesses exactly like a disk-resident index. Aggregate sums the
//     in-range records while the MVBT walks the pages, so a read costs
//     only its page visits: it builds no record list and sorts nothing.
//   * kFlat — the records in memory, sorted by start, with a prefix-sum
//     array (the cumulative-aggregate layout of "Ranking Large Temporal
//     Data"), so Aggregate is two binary searches. A flat TIA reads no
//     page and charges none, so QueryBudget::max_tia_page_reads never
//     trips on it.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/deadline.h"
#include "common/result.h"
#include "common/stats.h"
#include "common/status.h"
#include "common/time_types.h"
#include "temporal/mvbt.h"

namespace tar {

/// \brief One temporal record: the aggregate over one epoch.
struct TiaRecord {
  TimeInterval extent;     ///< [ts, te] of the epoch
  std::int64_t aggregate;  ///< e.g. number of check-ins in the epoch

  friend bool operator==(const TiaRecord&, const TiaRecord&) = default;
};

/// Which index structure stores the temporal records.
enum class TiaBackend {
  kMvbt,
  kFlat,
};

const char* ToString(TiaBackend backend);

/// \brief Temporal index on the aggregate of one TAR-tree entry.
///
/// The MVBT is held inline, so a read at the latest version reaches the
/// MVBT's cached live root without following a pointer from the TIA.
///
/// Thread safety: const reads (Aggregate, Records, Prefetch) are safe
/// concurrently — they only mutate the latched buffer pool (MVBT) or
/// nothing (flat); Append/RaiseTo require external exclusion.
class Tia {
 public:
  /// \param owner buffer-pool owner id; the paper gives each TIA its own
  ///        small buffer quota (10 slots by default). A flat TIA keeps the
  ///        id as its name but never reads or writes a page of `file` or
  ///        fetches through `pool`.
  Tia(PageFile* file, BufferPool* pool, OwnerId owner,
      TiaBackend backend = TiaBackend::kMvbt);

  Tia(Tia&&) = default;
  Tia& operator=(Tia&&) = default;

  /// Appends the record for a finished epoch. `aggregate` must be positive
  /// (zero aggregates are simply not stored). A second record for the same
  /// epoch start is AlreadyExists; on the flat backend an extent that
  /// overlaps a stored one is InvalidArgument. Either way nothing is stored.
  Status Append(const TimeInterval& extent, std::int64_t aggregate);

  /// Raises the stored aggregate of the epoch starting at extent.start to
  /// at least `aggregate` (no-op if the stored value is already >=), or
  /// stores the epoch if it is absent. Used when a POI insertion updates
  /// the TIAs along its path. An extent that differs from the stored one
  /// for the same start is InvalidArgument.
  Status RaiseTo(const TimeInterval& extent, std::int64_t aggregate);

  /// Sum of `agg` over all records whose extent is contained in iq.
  /// Callers align iq outward to epoch boundaries first (EpochGrid), which
  /// turns the paper's "epoch intersects Iq" into containment.
  ///
  /// `deadline` (optional) is polled cooperatively: before the backend
  /// lookup and, on the MVBT, after the scan — which first charges its
  /// page reads against the TIA-page budget — once per in-range record.
  /// A trip surfaces as kDeadlineExceeded/kCancelled. Every call first
  /// hits the `tia.aggregate` failpoint site, on both backends.
  Result<std::int64_t> Aggregate(const TimeInterval& iq,
                                 AccessStats* stats = nullptr,
                                 QueryDeadline* deadline = nullptr) const;

  /// A cache hint for a coming Aggregate: on the MVBT, starts loading the
  /// live root page's bytes (Mvbt::PrefetchLiveRoot). It fetches nothing
  /// through the pool and charges nothing; a flat TIA does nothing.
  void Prefetch() const {
    if (flat_ == nullptr) mvbt_.PrefetchLiveRoot();
  }

  /// All records in time order.
  Status Records(std::vector<TiaRecord>* out,
                 AccessStats* stats = nullptr) const;

  /// Total aggregate over the whole history (maintained in memory).
  std::int64_t total() const { return total_; }

  /// Number of stored (non-zero) records.
  std::size_t num_records() const { return num_records_; }

  OwnerId owner() const { return owner_; }
  TiaBackend backend() const { return backend_; }

  /// Structural invariants of the backing index (MVBT version conditions;
  /// flat order, disjointness and prefix sums), plus consistency between
  /// the backend's record count and num_records(). Used by
  /// analysis::StructureVerifier.
  Status CheckBackend() const;

  /// Shared Append/RaiseTo validation: the extent must be a valid interval
  /// whose duration fits the 31 duration bits, and the aggregate must fit
  /// the 32 value bits of the packed representation. Public so mutation
  /// front doors can prevalidate before write-ahead logging — a logged
  /// record must be guaranteed to replay cleanly.
  static Status CheckPackable(const TimeInterval& extent,
                              std::int64_t aggregate);

 private:
  friend class TiaTestPeer;

  /// kFlat storage: the records in start order, pairwise disjoint, and
  /// prefix[i] = the sum of the aggregates of records[0, i), so
  /// prefix.size() == records.size() + 1.
  struct Flat {
    std::vector<TiaRecord> records;
    std::vector<std::int64_t> prefix{0};

    /// Index of the first record that starts at or after `start`.
    std::size_t LowerBound(Timestamp start) const;
    /// Stores a new epoch in start order; AlreadyExists on a stored start,
    /// InvalidArgument on an extent that overlaps a neighbour.
    Status Insert(const TimeInterval& extent, std::int64_t aggregate);
    /// Recomputes prefix[from + 1 ..] after records[from ..] changed.
    void RebuildPrefix(std::size_t from);
    std::int64_t Sum(const TimeInterval& iq) const;
    Status Check() const;
  };

  static std::int64_t Pack(const TimeInterval& extent, std::int64_t agg);
  static TiaRecord Unpack(std::int64_t ts, std::int64_t value);

  /// The stored record of the epoch starting at `start`, if any.
  Result<std::optional<TiaRecord>> Find(Timestamp start) const;

  // What a read touches comes first: the backend test (flat_), then the
  // MVBT, whose own first fields are the ones a read uses. A flat TIA
  // (flat_ non-null) leaves its MVBT empty, which allocates no page.
  OwnerId owner_;
  TiaBackend backend_;
  std::unique_ptr<Flat> flat_;
  mvbt::Mvbt mvbt_;
  mvbt::Version op_counter_ = 0;
  std::int64_t total_ = 0;
  std::size_t num_records_ = 0;
};

}  // namespace tar
