// The repo-wide lock rank table: the single source of truth for latch
// acquisition order.
//
// Every `tar::Mutex` is constructed with a rank and a name. The rule is:
// a thread may only acquire a mutex whose rank is STRICTLY GREATER than
// the rank of every mutex it already holds, except that several mutexes
// of the SAME rank may be acquired in ascending construction order (this
// is how `BufferPool::set_quota` takes all 16 shard latches). Debug
// builds enforce the rule at acquire time (src/analysis/lock_order.h);
// `tools/lint/tar_lint.py` enforces it on every syntactic path; release
// builds carry no rank state at all.
//
// Adding a ranked lock (see docs/internals.md, "Threading model"):
//   1. Pick a slot here that respects every real acquisition order the
//      lock participates in — if it can be acquired while X is held, its
//      value must be greater than X's. Leave numeric gaps for future
//      locks.
//   2. Construct the member as `Mutex mu_{LockRank::kYourRank, "name"};`
//      (tar-lint rejects a bare `Mutex mu_;`).
//   3. Document the lock in the rank table in docs/internals.md.
//
// Rationale for the current order: tree-level coordination comes first
// (held across storage calls in the future sharded server), then WAL
// buffering, then buffer-pool shards, then the page directory (a shard
// latch may be held while taking the PageFile latch, though BufferPool
// no longer does: it makes every PageFile call outside its shard latch).
// Observability and test facilities (metrics registry,
// failpoint registry) are leaf-most — they may be reached from inside
// any storage path (e.g. a `wal.sync` failpoint fires under the WAL
// writer latch), so they rank above everything.
#pragma once

#include <cstdint>

namespace tar {

enum class LockRank : std::uint16_t {
  /// Result/latency merge latch of the parallel-query worker pool.
  kParallelMerge = 100,

  /// ShardedServer ingestion queue (serve.ingest_queue). Never held across
  /// a store call: the ingest thread pops under the latch, releases, then
  /// applies.
  kServeIngestQueue = 110,

  /// ShardedStore cross-shard writer latch (sharded_store.writer): held
  /// while a mutation or checkpoint walks the shards, so it must rank
  /// below every per-shard snapshot.writer latch it acquires.
  kShardedWriter = 140,

  /// ShardedStore per-shard health bookkeeping (sharded_store.health):
  /// quarantine causes, suspect strikes, circuit-breaker state. Taken
  /// briefly from the read path alone and from the write/repair paths
  /// while sharded_store.writer is held (hence above kShardedWriter);
  /// never held across a shard call, so it stays below kTarTreeWriter.
  kShardHealth = 145,

  /// SnapshotStore per-shard writer latch (snapshot.writer): serializes
  /// log-append, replica apply and publish. Held across WAL and storage
  /// calls, hence below kWalWriter and the storage latches.
  kTarTreeWriter = 150,

  /// WalWriter's internal latch (group-commit buffer, LSN counter).
  kWalWriter = 200,

  /// BufferPool shard latches: 16 mutexes of equal rank, multi-acquired
  /// only in ascending construction (= shard index) order.
  kBufferPoolShard = 300,

  /// PageFile page-directory latch. May be acquired under a shard latch,
  /// never the reverse.
  kPageFile = 400,

  /// MetricsRegistry name->metric resolution latch (leaf).
  kMetricsRegistry = 900,

  /// FaultInjector site registry latch (leaf; failpoints fire from under
  /// storage latches, so this must outrank all of them).
  kFailpoint = 910,
};

/// The numeric value used in ordering comparisons and diagnostics.
constexpr std::uint32_t LockRankValue(LockRank rank) {
  return static_cast<std::uint32_t>(rank);
}

}  // namespace tar
