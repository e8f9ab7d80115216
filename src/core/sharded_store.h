// Sharded TAR-tree store: N snapshot-isolated shards over a grid
// partition of the data space, with a kNNTA forest search that is
// bit-identical to one unsharded tree.
//
// Partitioning: the configured space is cut into gx x gy equal grid
// cells (gx * gy == num_shards exactly), HBase-hybrid-index style; a POI
// belongs to the cell containing its position, clamped to the edge cells
// for positions on or outside the boundary. Spatial cells keep each
// shard's R-tree compact and let a query skip whole shards, but
// correctness never depends on the partition: any POI->shard assignment
// yields the same answer.
//
// Forest search: every shard scores entries with ONE shared QueryContext
// whose gmax is the maximum over all searched shards and whose dmax comes
// from the shared configured space. Leaf scores are pure functions of
// (context, POI data), and Property 1 holds across the whole forest, so
// one best-first queue over all shard trees (TarTree::ForestMaxAggregate,
// then TarTree::ForestQuery) pops POIs in ascending score, as one tree
// holding all of them would; ranking by the uniform (score, poi_id)
// tie-break reproduces the unsharded answer bit for bit. Each shard enters each queue as one item
// bounded by its grid cell and its global TIA, so a shard whose bound
// cannot compete is never read. A per-shard context would silently break
// all of this — each shard would normalize aggregates by its local
// maximum, and scores from different shards would not be comparable.
//
// Fault containment (docs/internals.md, "Shard fault containment"): a
// shard whose WAL, apply, or page I/O fails is QUARANTINED with its root
// cause instead of poisoning the whole store. Quarantined shards leave
// the coherent cut — reads either fail fast (strict) or degrade to a
// partial result with a sound per-shard score bound — and epoch batches
// that touch them are deferred into a per-shard redo buffer (journaled
// to `<prefix>.shard<i>.redo` on durable stores, so a crash during
// quarantine loses nothing). RepairShard re-opens the shard's durable
// state via the PR-5 Recover path, replays the redo backlog, verifies
// the structure, and re-admits the shard without ever excluding readers;
// RepairTick paces attempts with a per-shard circuit breaker.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <limits>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/metrics.h"
#include "common/mutex.h"
#include "common/result.h"
#include "common/status.h"
#include "core/shard_health.h"
#include "core/tar_tree.h"
#include "storage/snapshot_store.h"

namespace tar {

/// \brief Construction parameters for a ShardedStore.
struct ShardedStoreOptions {
  /// Number of shards (= grid cells). The grid is gx x gy with
  /// gx * gy == num_shards, gx as close to sqrt(num_shards) as divides it.
  std::size_t num_shards = 4;

  /// Per-shard tree parameters. `tree.space` must be non-empty: it is
  /// both the partition domain and the shared spatial normalizer.
  TarTreeOptions tree;

  /// Non-empty = durable: shard i persists to
  /// `<store_prefix>.shard<i>.snapshot` / `.shard<i>.wal`, with deferred
  /// epochs journaled to `.shard<i>.redo` while the shard is quarantined.
  std::string store_prefix;

  /// WAL group-commit knobs (per shard).
  WalWriterOptions wal;

  /// Verification policy when recovering existing shard snapshots.
  TarTree::LoadOptions load;

  /// Fault-containment knobs (retry budgets, circuit breaker, redo cap).
  ShardFaultOptions fault;
};

/// \brief Which shards a partial-coverage query actually answered from.
///
/// Passed to Query by callers serving in partial mode (PR-8 degradation
/// semantics): when shards are quarantined the query still returns the
/// top-k over the available shards, and this records what is
/// missing plus a sound bound on what the missing shards could have
/// contributed.
struct ShardCoverage {
  /// True when every shard answered; the result is the exact top-k.
  bool complete = true;

  /// Shards excluded from the answer (quarantined/recovering at pin
  /// time, or dropped after exhausting read retries).
  std::vector<std::size_t> missing;

  /// Sound lower bound on the score of ANY POI hosted by a missing
  /// shard: min over missing shards of
  ///   alpha0 * mindist(q, region_i) / dmax
  ///     + alpha1 * (1 - min(1, M_i / gmax))
  /// where region_i is the shard's grid cell extended to infinity on
  /// clamped boundary sides (it contains every position routed to the
  /// shard) and M_i bounds the shard's largest per-POI aggregate by its
  /// total digested aggregate including deferred epochs. Every returned
  /// result with score < score_bound therefore keeps its rank even
  /// against the missing data. +inf when nothing is missing. Falls to
  /// the distance term alone when a missing shard might hold the
  /// global maximum.
  double score_bound = std::numeric_limits<double>::infinity();

  /// Root cause of the first missing shard (OK when complete).
  Status cause;
};

/// \brief Point-in-time health of one shard.
struct ShardHealthSnapshot {
  ShardHealth health = ShardHealth::kHealthy;
  Status cause;                         ///< why it left HEALTHY (OK if not)
  std::uint64_t quarantines = 0;        ///< times this shard was quarantined
  std::uint64_t repairs = 0;            ///< successful re-admissions
  std::uint64_t repair_failures = 0;    ///< failed repair attempts
  std::uint64_t redo_backlog = 0;       ///< deferred epoch records pending
};

/// \brief Aggregated fault-containment counters across all shards.
struct ShardFaultStats {
  std::vector<ShardHealthSnapshot> shards;
  std::uint64_t quarantines = 0;
  std::uint64_t repairs = 0;
  std::uint64_t repair_failures = 0;
  std::uint64_t epochs_deferred = 0;  ///< cumulative deferred sub-batches
  std::uint64_t read_retries = 0;     ///< transient read retries that ran
  LatencySnapshot repair_latency;     ///< successful repairs, micros

  /// One JSON object with per-shard health entries and the run counters
  /// (the `tartool serve --metrics` / bench payload).
  std::string ToJson() const;
};

/// \brief The sharded store; see the file comment.
///
/// Thread safety: Query is const and safe from any number of threads
/// concurrently with mutations and repair (each shard serves reads from
/// a pinned snapshot). Mutations serialize on an internal cross-shard
/// latch; RepairShard/RepairTick may run from one background thread
/// concurrently with everything else.
class ShardedStore {
 public:
  static Result<std::unique_ptr<ShardedStore>> Open(
      const ShardedStoreOptions& options);

  ShardedStore(const ShardedStore&) = delete;
  ShardedStore& operator=(const ShardedStore&) = delete;

  std::size_t num_shards() const { return shards_.size(); }
  const ShardedStoreOptions& options() const { return options_; }

  /// Grid cell (= shard index) owning position `pos`.
  std::size_t ShardOf(const Vec2& pos) const;

  /// Routes the POI to its spatial shard. Refused with kUnavailable
  /// (carrying the quarantine cause) when that shard is down: an insert
  /// is a client-facing request with a client to report to, unlike the
  /// epoch stream, so it is not deferred.
  Status InsertPoi(const Poi& poi,
                   const std::vector<std::int32_t>& history = {});

  /// Splits the epoch batch by shard and applies each sub-batch. The
  /// whole batch is validated up front so a bad batch mutates nothing.
  /// The touched shards stage, and later catch up, concurrently: the
  /// calling thread and up to min(touched shards, CPUs) - 1 helper
  /// threads, none for a batch that touches one shard.
  ///
  /// Fault containment: sub-batches for quarantined shards are deferred
  /// into their redo buffers (journaled on durable stores) and the call
  /// still succeeds — ingestion never stalls on one dead shard. A shard
  /// whose stage fails (after bounded transient retries) is quarantined
  /// with the root cause, its sub-batch deferred, and the remaining
  /// staged shards still publish atomically under the cut seqlock. The
  /// call fails only when the batch is invalid, a redo buffer is full
  /// (kUnavailable, nothing mutated), or deferral itself fails.
  Status AppendEpoch(std::int64_t epoch,
                     const std::unordered_map<PoiId, std::int64_t>& aggs);

  /// Checkpoints every healthy shard (durable stores only); quarantined
  /// shards are skipped — their durable truth is snapshot + WAL + redo
  /// journal until repair.
  Status Checkpoint();

  /// Syncs every healthy shard's WAL.
  Status Flush();

  /// kNNTA over all shards: pins a coherent cut (one snapshot per shard,
  /// spanning no cross-shard mutation — see PinCoherentCut), then runs
  /// one best-first search over the pinned shard trees with one shared
  /// context (see the file comment), ranking by the (score, poi_id)
  /// tie-break. Shards whose bounds cannot compete are not read.
  /// `deadline` is shared across the forest, so its budgets bound the
  /// whole query, not each shard.
  ///
  /// Coverage modes: with `coverage == nullptr` (strict) the query fails
  /// fast with kUnavailable when any shard is quarantined, and with the
  /// read error (naming the shard) when a shard's read keeps failing.
  /// With a ShardCoverage the query degrades instead: a failing shard is
  /// dropped and the search reruns without it, the top-k over the
  /// available shards is returned and `coverage` reports the missing
  /// shards, the root cause, and a sound score bound. Deadline trips
  /// (kDeadlineExceeded/kCancelled) propagate in both modes — they are
  /// query failures, not shard faults.
  Status Query(const KnntaQuery& query, std::vector<KnntaResult>* results,
               AccessStats* stats = nullptr, QueryDeadline* deadline = nullptr,
               ShardCoverage* coverage = nullptr) const;

  /// Total POIs across one coherent set of shard snapshots (healthy
  /// shards only while any are quarantined).
  std::size_t num_pois() const;

  // --- Fault containment ---

  ShardHealth shard_health(std::size_t i) const {
    return states_[i]->health.load(std::memory_order_acquire);
  }

  /// Shards currently QUARANTINED or RECOVERING (relaxed; a scheduling
  /// hint for the repair worker, not a synchronization point).
  std::size_t num_unhealthy() const {
    return unhealthy_.load(std::memory_order_relaxed);
  }

  bool AllHealthy() const { return num_unhealthy() == 0; }

  /// Per-shard health and aggregate repair counters.
  ShardFaultStats fault_stats() const;

  /// Synchronous repair of a quarantined shard: flips it to RECOVERING,
  /// re-opens its durable SnapshotStore from snapshot + WAL when its
  /// writer or a replica died (in-memory shards cannot take this path
  /// and fail with kFailedPrecondition), replays the deferred redo
  /// backlog (skipping epochs the recovered log already digested — the
  /// ingest-resume idempotence rule, which assumes the monotone epoch
  /// stream the serving contract guarantees), runs the configured
  /// repair_verifier, then re-admits the shard under the writer latch so
  /// no deferral can race past the final drain. Readers are never
  /// excluded. On failure the shard returns to QUARANTINED with its
  /// original cause and the breaker backs off the next attempt.
  Status RepairShard(std::size_t i);

  /// Attempts RepairShard on every quarantined shard whose circuit
  /// breaker allows an attempt now. Returns the number repaired.
  std::size_t RepairTick();

  /// Direct access to a shard (tests, checkpoint tooling).
  SnapshotStore* shard(std::size_t i) { return shards_[i].get(); }
  const SnapshotStore* shard(std::size_t i) const { return shards_[i].get(); }

 private:
  /// One deferred epoch sub-batch awaiting replay on its shard.
  struct RedoEntry {
    std::int64_t epoch = 0;
    std::vector<std::pair<std::uint32_t, std::int64_t>> aggs;
  };

  /// Per-shard fault-containment state. Guard split: `health` is atomic
  /// (read lock-free on every query); the bookkeeping fields are guarded
  /// by health_mu_; the redo buffer and journal by writer_mu_. Neither
  /// latch is ever held across a shard call from the read path.
  struct ShardState {
    // tar-lint: allow(guarded-by) atomic; read lock-free by PinCoherentCut
    std::atomic<ShardHealth> health{ShardHealth::kHealthy};
    /// Root cause + strike/repair bookkeeping (guarded by health_mu_).
    // tar-lint: allow(guarded-by) guarded by health_mu_, see struct comment
    Status cause;
    // tar-lint: allow(guarded-by) guarded by health_mu_, see struct comment
    int suspect_strikes = 0;
    // tar-lint: allow(guarded-by) guarded by health_mu_, see struct comment
    std::uint64_t quarantines = 0;
    // tar-lint: allow(guarded-by) guarded by health_mu_, see struct comment
    std::uint64_t repairs = 0;
    // tar-lint: allow(guarded-by) guarded by health_mu_, see struct comment
    std::uint64_t repair_failures = 0;
    /// True once the shard cannot be repaired in process (an in-memory
    /// shard with a dead replica, or a failed redo deferral): repair
    /// refuses and the operator recovers offline.
    // tar-lint: allow(guarded-by) guarded by health_mu_, see struct comment
    bool unrepairable = false;
    // tar-lint: allow(guarded-by) guarded by health_mu_, see struct comment
    CircuitBreaker breaker;
    /// Deferred epochs awaiting repair, in submission order (guarded by
    /// writer_mu_); `redo_wal` journals them on durable stores.
    // tar-lint: allow(guarded-by) guarded by writer_mu_, see struct comment
    std::deque<RedoEntry> redo;
    // tar-lint: allow(guarded-by) guarded by writer_mu_, see struct comment
    std::unique_ptr<WalWriter> redo_wal;
    /// Sum of deferred aggregates (relaxed; feeds the partial-coverage
    /// score bound, which only needs an upper bound).
    // tar-lint: allow(guarded-by) atomic accumulator, monotone upper bound
    std::atomic<std::int64_t> redo_agg_total{0};
    // tar-lint: allow(guarded-by) atomic counter, read by fault_stats
    std::atomic<std::uint64_t> redo_backlog{0};
  };

  explicit ShardedStore(const ShardedStoreOptions& options);

  /// Re-derives the POI->shard routing map from recovered shard trees.
  Status RebuildRouting() TAR_REQUIRES(writer_mu_);

  /// `<store_prefix>.shard<i>.redo` (durable stores only).
  std::string RedoJournalPath(std::size_t i) const;

  /// Loads a leftover redo journal at Open: the process crashed (or was
  /// restarted) while shard i was quarantined with a deferred backlog.
  Status LoadRedoJournal(std::size_t i) TAR_REQUIRES(writer_mu_);

  /// True when the shard participates in coherent cuts and accepts
  /// mutations directly (HEALTHY or SUSPECT).
  bool ShardCovered(std::size_t i) const {
    const ShardHealth h = states_[i]->health.load(std::memory_order_acquire);
    return h == ShardHealth::kHealthy || h == ShardHealth::kSuspect;
  }

  /// Pins one snapshot per covered shard such that the set corresponds
  /// to a single store-wide state: retries the pin sweep until it spans
  /// a stable even apply_seq_ (no cross-shard mutation overlapped), as
  /// SnapshotStore::Acquire retries for one shard. Takes no latch: the
  /// odd window covers only PublishStaged's atomic stores, so readers
  /// wait out microseconds, never a writer's WAL sync or drain. `snaps`
  /// is indexed by shard; excluded (quarantined/recovering) shards get
  /// invalid snapshots and their indices land in `missing`.
  void PinCoherentCut(std::vector<TreeSnapshot>* snaps,
                      std::vector<std::size_t>* missing) const;

  /// StageEpoch on shard i with bounded in-place retries of transient
  /// failures (per options_.fault). Touches only shards_[i] and the
  /// immutable options, so it takes no store latch: AppendEpoch runs it
  /// for several shards at once, from helper threads that cannot hold
  /// writer_mu_ (the batch holds it on the calling thread throughout).
  Status StageWithRetry(std::size_t i, std::int64_t epoch,
                        const std::unordered_map<PoiId, std::int64_t>& aggs);

  /// Defers a sub-batch into shard i's redo buffer + journal.
  Status DeferEpochLocked(std::size_t i, std::int64_t epoch,
                          const std::unordered_map<PoiId, std::int64_t>& aggs)
      TAR_REQUIRES(writer_mu_);

  /// Moves shard i to QUARANTINED with `cause` (idempotent; keeps the
  /// first cause). `permanent` marks it unrepairable. Const because the
  /// read path quarantines too (persistent read failures).
  void QuarantineShard(std::size_t i, const Status& cause,
                       bool permanent) const;
  void QuarantineLocked(ShardState* state, const Status& cause,
                        bool permanent) const TAR_REQUIRES(health_mu_);

  /// Read-path health bookkeeping: a terminal (post-retry) failure is a
  /// suspect strike (transient) or an immediate quarantine (permanent);
  /// a success clears SUSPECT back to HEALTHY.
  void ReportReadFailure(std::size_t i, const Status& st) const;
  void ReportReadOk(std::size_t i) const;

  /// The repair body (between the RECOVERING claim and the outcome
  /// bookkeeping); flips the shard HEALTHY itself on success.
  Status RepairShardBody(std::size_t i);

  /// Largest epoch index digested by shard i's recovered tree (-1 when
  /// none): the redo-replay skip horizon.
  Result<std::int64_t> MaxDigestedEpoch(std::size_t i) const;

  /// Lower bound on the normalized distance term of any POI routed to
  /// shard i: mindist(q, region_i) / dmax, with region_i the shard's grid
  /// cell extended to infinity on clamped boundary sides. With the
  /// shard's aggregate bound it scores the shard's item in the forest
  /// search and bounds a missing shard (ShardCoverage::score_bound), both
  /// through TarTree::ForestTree::ScoreBound.
  double CellMinS0(const TarTree::QueryContext& ctx, std::size_t i) const;

  const ShardedStoreOptions options_;
  /// Grid shape is fixed in Open before the store is published.
  // tar-lint: allow(guarded-by) set once before publication, then const
  std::size_t gx_ = 1;
  // tar-lint: allow(guarded-by) set once before publication, then const
  std::size_t gy_ = 1;
  /// Shard handles are set once in Open and immutable afterwards; all
  /// concurrency is inside SnapshotStore.
  // tar-lint: allow(guarded-by) set once before publication, then const
  std::vector<std::unique_ptr<SnapshotStore>> shards_;
  /// Per-shard fault state, same set-once shape as shards_.
  // tar-lint: allow(guarded-by) set once before publication, then const
  std::vector<std::unique_ptr<ShardState>> states_;

  /// Seqlock over cross-shard publishes: odd while the staged shards of
  /// an epoch batch are being flipped live (a few atomic stores each —
  /// the slow stage/catch-up phases run outside the window), even when
  /// quiescent. PinCoherentCut accepts a pin sweep only if it spans one
  /// stable even value, so the forest search never observes an epoch
  /// batch published in shard i but not shard j (per-shard snapshots
  /// alone are coherent only per shard). Quarantine marking happens
  /// before the publish window of the same batch, so a sweep that
  /// validates cannot include a shard that silently missed the batch.
  // tar-lint: allow(guarded-by) written under writer_mu_, read lock-free
  std::atomic<std::uint64_t> apply_seq_{0};

  /// Shards currently QUARANTINED or RECOVERING (repair-worker hint;
  /// mutable because the read path can quarantine).
  // tar-lint: allow(guarded-by) atomic counter, read lock-free
  mutable std::atomic<std::size_t> unhealthy_{0};

  /// Not mutable, so no const (read) path can take the writer latch.
  Mutex writer_mu_{LockRank::kShardedWriter, "sharded_store.writer"};
  /// Routing map for AppendEpoch (ids only; positions live in the trees).
  std::unordered_map<PoiId, std::uint32_t> poi_shard_
      TAR_GUARDED_BY(writer_mu_);

  /// Health bookkeeping latch (causes, strikes, breaker). Above
  /// writer_mu_ in the rank order so the write path may take it while
  /// staging; never held across a shard call.
  mutable Mutex health_mu_{LockRank::kShardHealth, "sharded_store.health"};
  /// Cumulative cross-shard counters (guarded by health_mu_).
  // tar-lint: allow(guarded-by) guarded by health_mu_
  std::uint64_t epochs_deferred_ = 0;
  // tar-lint: allow(guarded-by) atomic counter, bumped from const reads
  mutable std::atomic<std::uint64_t> read_retries_{0};
  /// Successful-repair latency.
  // tar-lint: allow(guarded-by) internally atomic, safe for concurrent use
  mutable LatencyHistogram repair_latency_;
};

}  // namespace tar
