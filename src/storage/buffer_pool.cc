#include "storage/buffer_pool.h"

#include <algorithm>
#include <string>

#include "common/check.h"
#include "common/failpoint.h"
#include "common/metrics.h"

namespace tar {

const Page* BufferPool::HitLocked(Shard& shard, OwnerId owner, PageId id) {
  shard.mu.AssertHeld();
  auto cache = shard.caches.find(owner);
  if (cache == shard.caches.end()) return nullptr;
  Frames& frames = cache->second;
  for (auto it = frames.begin(); it != frames.end(); ++it) {
    if (it->id == id) {
      std::rotate(frames.begin(), it, it + 1);
      return frames.front().page;
    }
  }
  return nullptr;
}

void BufferPool::InsertLocked(Shard& shard, OwnerId owner, PageId id,
                              const Page* page) {
  shard.mu.AssertHeld();
  TAR_DCHECK(page != nullptr);
  const std::size_t quota = quota_.load(std::memory_order_relaxed);
  if (quota == 0 || HitLocked(shard, owner, id) != nullptr) return;
  auto [cache, first] = shard.caches.try_emplace(owner);
  Frames& frames = cache->second;
  // Reserved at quota size, so later hits and misses do not allocate.
  if (first) frames.reserve(quota);
  while (frames.size() >= quota) frames.pop_back();
  frames.insert(frames.begin(), Frame{id, page});
}

Result<const Page*> BufferPool::Fetch(OwnerId owner, PageId id,
                                      bool* was_hit) {
  // Injected before the LRU is touched, so a failed fetch leaves the pool
  // state exactly as it was (CheckIntegrity holds across injected faults).
  TAR_INJECT_FAULT("buffer_pool.fetch");
  Shard& shard = ShardFor(owner);
  const Page* page = nullptr;
  {
    MutexLock lock(&shard.mu);
    page = HitLocked(shard, owner, id);
  }
  if (page != nullptr) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    if (MetricsEnabled()) {
      // Resolved once and cached; the hot path pays one relaxed add.
      static Counter* const hits_metric =
          MetricsRegistry::Global().GetCounter("buffer_pool.hits");
      hits_metric->Increment();
    }
    if (was_hit) *was_hit = true;
    return page;
  }
  if (was_hit) *was_hit = false;
  // Read outside the latch. A failed read caches nothing and counts as no
  // miss: it charged no physical read and returned no page.
  TAR_ASSIGN_OR_RETURN(page, file_->ReadPage(id));
  misses_.fetch_add(1, std::memory_order_relaxed);
  if (MetricsEnabled()) {
    static Counter* const misses_metric =
        MetricsRegistry::Global().GetCounter("buffer_pool.misses");
    misses_metric->Increment();
  }
  MutexLock lock(&shard.mu);
  InsertLocked(shard, owner, id, page);
  return page;
}

Result<Page*> BufferPool::FetchForWrite(OwnerId owner, PageId id) {
  TAR_INJECT_FAULT("buffer_pool.fetch");
  // Write-through: always charge the write, then cache the page.
  TAR_ASSIGN_OR_RETURN(Page* page, file_->GetPageForWrite(id));
  Shard& shard = ShardFor(owner);
  MutexLock lock(&shard.mu);
  InsertLocked(shard, owner, id, page);
  return page;
}

Status BufferPool::CheckIntegrity() const {
  const std::size_t num_pages = file_->num_pages();
  for (const Shard& shard : shards_) {
    MutexLock lock(&shard.mu);
    // Stable while any shard latch is held: writers hold all of them.
    const std::size_t quota = quota_.load(std::memory_order_relaxed);
    for (const auto& [owner, frames] : shard.caches) {
      auto corrupt = [owner = owner](const std::string& what) {
        return Status::Corruption("owner " + std::to_string(owner) + ": " +
                                  what);
      };
      if (frames.size() > quota) {
        return corrupt("residency exceeds quota (" +
                       std::to_string(frames.size()) + " > " +
                       std::to_string(quota) + ")");
      }
      for (auto it = frames.begin(); it != frames.end(); ++it) {
        const PageId id = it->id;
        if (std::any_of(frames.begin(), it,
                        [id](const Frame& f) { return f.id == id; })) {
          return corrupt("page " + std::to_string(id) + " cached twice");
        }
        if (id >= num_pages) {
          return corrupt("cached page " + std::to_string(id) +
                         " beyond the end of the file");
        }
      }
    }
  }
  return Status::OK();
}

// Holds every shard latch so the quota store and the eviction sweep are
// one atomic step: once set_quota returns, no owner is resident above the
// new quota. The shard latches share one rank, so the hierarchy requires
// ascending construction (= index) order — and since PR 6 that order is
// *checked*, not conventional: in debug builds each Lock() below runs the
// lock-order detector, which aborts on a descending same-rank acquisition
// (see LockOrderTest.DescendingSameRankSweepDies). The static analysis
// cannot follow a loop that accumulates locks, hence the opt-out.
void BufferPool::set_quota(std::size_t quota) TAR_NO_THREAD_SAFETY_ANALYSIS {
  for (Shard& shard : shards_) shard.mu.Lock();
  for (Shard& shard : shards_) shard.mu.AssertHeld();
  quota_.store(quota, std::memory_order_relaxed);
  for (Shard& shard : shards_) {
    for (auto& [owner, frames] : shard.caches) {
      if (frames.size() > quota) frames.resize(quota);
    }
  }
  for (auto it = shards_.rbegin(); it != shards_.rend(); ++it) {
    it->mu.Unlock();
  }
}

void BufferPool::Clear() {
  for (Shard& shard : shards_) {
    MutexLock lock(&shard.mu);
    shard.caches.clear();
  }
}

void BufferPool::Evict(OwnerId owner) {
  Shard& shard = ShardFor(owner);
  MutexLock lock(&shard.mu);
  shard.caches.erase(owner);
}

}  // namespace tar
