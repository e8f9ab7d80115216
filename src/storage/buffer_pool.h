// LRU buffer pool with per-owner quotas.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <vector>

#include "common/mutex.h"
#include "common/result.h"
#include "common/thread_annotations.h"
#include "storage/page_file.h"

namespace tar {

/// Identifies the logical owner of a set of pages (one TIA = one owner).
using OwnerId = std::uint32_t;

/// \brief Per-owner LRU page cache over a PageFile.
///
/// The paper assigns each TIA a maximum of 10 buffer slots; the collective
/// processing experiments additionally compare against a zero-buffer
/// configuration. A fetch that hits the pool is free; a miss costs one
/// simulated disk read, which is what the node-access metric charges.
///
/// Owner `o` lives in shard `o % kNumShards`, in slot `o / kNumShards` of
/// that shard's dense slab table: owner ids are dense (TarTree hands them
/// out from a counter), so the table is a vector addressed by slot, and
/// its size follows the largest owner id the shard has cached a page for.
/// Each owner's slab is `quota` frames, its resident pages most recently
/// used first and then empty frames; a frame holds the page id and the
/// address of the page's bytes. A hit is one shard latch, one slab probe
/// of at most `quota` frames and the frame's byte address: no hash
/// lookup, no PageFile call, no read of the PageFile's page headers and
/// no allocation. The bytes stay at that address while the PageFile lives
/// (see PageFile), so the view a fetch returns stays valid after the
/// latch is released. A miss reads the page outside the shard latch and
/// caches it only if the read succeeded.
///
/// Thread safety: fully thread-safe. Each shard's slabs and counters are
/// guarded by its own latch; the counters are written only under it (a
/// load and a store, no shared read-modify-write) and read without it.
/// The latch hierarchy is documented in docs/internals.md ("Threading
/// model"): no PageFile call is made under a shard latch, and the only
/// multi-latch path (set_quota) takes shard latches in ascending index
/// order.
class BufferPool {
 public:
  /// \param quota_per_owner max cached pages per owner; 0 disables caching.
  BufferPool(PageFile* file, std::size_t quota_per_owner)
      : file_(file), page_size_(file->page_size()), quota_(quota_per_owner) {}

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Fetches a page for reading. Sets *was_hit (if non-null) to whether the
  /// page was served from the pool.
  Result<PageView> Fetch(OwnerId owner, PageId id, bool* was_hit = nullptr);

  /// Fetches a page for mutation. Write-through: the write is always
  /// charged to the file, and the page is then cached like a read.
  Result<Page*> FetchForWrite(OwnerId owner, PageId id);

  /// Drops every cached page (all owners).
  void Clear();

  /// Drops the cached pages of one owner.
  void Evict(OwnerId owner);

  /// Changes the per-owner quota, evicting LRU pages down to the new limit.
  /// The only multi-latch operation: it holds every shard latch so that no
  /// owner can be observed over-quota once it returns.
  void set_quota(std::size_t quota);
  std::size_t quota() const {
    return quota_.load(std::memory_order_relaxed);
  }

  /// Fetches served from the pool, and fetches that read their page from
  /// the file. A fetch that fails (an injected fault, a failed read)
  /// counts as neither, so hits + misses is the number of fetches that
  /// returned a page and every miss was charged one physical read.
  std::uint64_t hits() const;
  std::uint64_t misses() const;
  void ResetCounters();

  /// \brief A point-in-time reading of the cumulative hit/miss counters.
  ///
  /// The counters themselves are cumulative over the pool's lifetime
  /// (index load, builds and every query batch all advance them), so any
  /// rate derived from the raw totals drifts as unrelated work accrues.
  /// Correct per-batch reporting takes a snapshot before and after the
  /// batch and works on the delta.
  struct CounterSnapshot {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;

    std::uint64_t Fetches() const { return hits + misses; }
    double HitRate() const {
      const std::uint64_t n = Fetches();
      return n > 0 ? static_cast<double>(hits) / static_cast<double>(n)
                   : 0.0;
    }
    /// Counter advance since `earlier` (earlier must not be newer).
    CounterSnapshot DeltaSince(const CounterSnapshot& earlier) const {
      return CounterSnapshot{hits - earlier.hits, misses - earlier.misses};
    }
  };

  CounterSnapshot Snapshot() const {
    return CounterSnapshot{hits(), misses()};
  }

  /// Structural integrity: every shard's slab table is whole slabs of
  /// `quota` frames, each slab's resident frames come before its empty
  /// ones, no page is cached twice by one owner, and every cached page
  /// id exists in the backing file. Returns Status::Corruption naming the
  /// owner of the first inconsistent cache. Safe to call concurrently with
  /// fetches (each shard is checked under its latch; the file size is
  /// read before any latch is taken).
  Status CheckIntegrity() const;

  PageFile* file() { return file_; }
  const PageFile* file() const { return file_; }

 private:
  /// One slab slot: a cached page's id and the address of its bytes, or
  /// an empty frame (id kInvalidPageId).
  struct Frame {
    PageId id = kInvalidPageId;
    const std::uint8_t* bytes = nullptr;
  };

  static constexpr std::size_t kNumShards = 16;

  /// One latch-sharded slice of the owners. An owner hashes to one shard,
  /// so its LRU state is only ever touched under one latch. Cache-line
  /// aligned so that readers on different shards share no line.
  struct alignas(64) Shard {
    /// Equal rank across all 16 shards; multi-acquired only in ascending
    /// construction (= index) order, which the debug detector checks.
    mutable Mutex mu{LockRank::kBufferPoolShard, "buffer_pool.shard"};
    /// Slot s's slab is slabs[s * quota, (s + 1) * quota); the table grows
    /// (under mu) when an owner past its end caches its first page.
    std::vector<Frame> slabs TAR_GUARDED_BY(mu);
    /// This shard's fetch counters: written only under mu, as a load and
    /// a store, and read without it.
    std::atomic<std::uint64_t> hits{0};
    std::atomic<std::uint64_t> misses{0};
  };

  Shard& ShardFor(OwnerId owner) const {
    return shards_[owner % kNumShards];
  }

  /// The owner's slab of `quota` frames, or nullptr if the shard's table
  /// does not reach it yet.
  static Frame* SlabLocked(Shard& shard, OwnerId owner, std::size_t quota)
      TAR_REQUIRES(shard.mu);

  /// The cached bytes of (owner, id), moved to the owner's front; nullptr
  /// if the page is not resident.
  const std::uint8_t* HitLocked(Shard& shard, OwnerId owner, PageId id)
      TAR_REQUIRES(shard.mu);

  /// Makes `bytes` the owner's most recently used frame for `id`: moves
  /// the frame to the front if a concurrent miss already cached it,
  /// otherwise drops the owner's LRU frame when at quota and inserts it.
  void InsertLocked(Shard& shard, OwnerId owner, PageId id,
                    const std::uint8_t* bytes) TAR_REQUIRES(shard.mu);

  /// Adds one to a shard counter; the caller holds that shard's latch,
  /// which orders every write of the counter.
  static void Bump(std::atomic<std::uint64_t>* counter) {
    counter->store(counter->load(std::memory_order_relaxed) + 1,
                   std::memory_order_relaxed);
  }

  PageFile* file_;
  const std::size_t page_size_;
  std::atomic<std::size_t> quota_;  ///< written only under all shard latches
  mutable std::array<Shard, kNumShards> shards_;
};

}  // namespace tar
