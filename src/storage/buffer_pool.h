// LRU buffer pool with per-owner quotas.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <unordered_map>
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
/// Each owner's LRU is a flat array of {page id, page} frames, most
/// recently used first, reserved at quota size when the owner gets its
/// first frame. A hit is one shard latch, an owner lookup and a probe of
/// at most `quota` frames; it returns the cached page pointer (valid for
/// the PageFile's lifetime, see PageFile) without calling the PageFile
/// and without allocating. A miss reads the page outside the shard latch
/// and caches it only if the read succeeded.
///
/// Thread safety: fully thread-safe. Owner caches are partitioned into
/// shards, each guarded by its own latch; the hit/miss counters are
/// atomic. The latch hierarchy is documented in docs/internals.md
/// ("Threading model"): no PageFile call is made under a shard latch,
/// and the only multi-latch path (set_quota) takes shard latches in
/// ascending index order.
class BufferPool {
 public:
  /// \param quota_per_owner max cached pages per owner; 0 disables caching.
  BufferPool(PageFile* file, std::size_t quota_per_owner)
      : file_(file), quota_(quota_per_owner) {}

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Fetches a page for reading. Sets *was_hit (if non-null) to whether the
  /// page was served from the pool.
  Result<const Page*> Fetch(OwnerId owner, PageId id, bool* was_hit = nullptr);

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
  std::uint64_t hits() const {
    return hits_.load(std::memory_order_relaxed);
  }
  std::uint64_t misses() const {
    return misses_.load(std::memory_order_relaxed);
  }
  void ResetCounters() {
    hits_.store(0, std::memory_order_relaxed);
    misses_.store(0, std::memory_order_relaxed);
  }

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

  /// Structural integrity: every owner's residency is within quota, no
  /// page is cached twice by one owner, and every cached page id exists
  /// in the backing file. Returns Status::Corruption naming the owner of
  /// the first inconsistent cache. Safe to call concurrently with fetches
  /// (each shard is checked under its latch; the file size is read
  /// before any latch is taken).
  Status CheckIntegrity() const;

  PageFile* file() { return file_; }
  const PageFile* file() const { return file_; }

 private:
  /// One cached page. The pointer is the one the PageFile handed out,
  /// which stays valid while the file lives.
  struct Frame {
    PageId id;
    const Page* page;
  };
  /// One owner's resident pages; front = most recently used.
  using Frames = std::vector<Frame>;

  /// One latch-sharded slice of the owner map. Owners hash to a fixed
  /// shard, so one owner's LRU state is only ever touched under one latch.
  struct Shard {
    /// Equal rank across all 16 shards; multi-acquired only in ascending
    /// construction (= index) order, which the debug detector checks.
    mutable Mutex mu{LockRank::kBufferPoolShard, "buffer_pool.shard"};
    std::unordered_map<OwnerId, Frames> caches TAR_GUARDED_BY(mu);
  };

  static constexpr std::size_t kNumShards = 16;

  Shard& ShardFor(OwnerId owner) const {
    return shards_[owner % kNumShards];
  }

  /// The cached page of (owner, id), moved to the owner's front; nullptr
  /// if it is not resident.
  const Page* HitLocked(Shard& shard, OwnerId owner, PageId id)
      TAR_REQUIRES(shard.mu);

  /// Makes `page` the owner's most recently used frame for `id`: moves
  /// the frame to the front if a concurrent miss already cached it,
  /// otherwise evicts the owner's LRU frame when at quota and inserts it.
  void InsertLocked(Shard& shard, OwnerId owner, PageId id, const Page* page)
      TAR_REQUIRES(shard.mu);

  PageFile* file_;
  std::atomic<std::size_t> quota_;  ///< written only under all shard latches
  mutable std::array<Shard, kNumShards> shards_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
};

}  // namespace tar
