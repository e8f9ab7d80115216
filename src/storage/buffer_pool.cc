#include "storage/buffer_pool.h"

#include <algorithm>
#include <string>

#include "common/check.h"
#include "common/failpoint.h"
#include "common/metrics.h"

namespace tar {

BufferPool::Frame* BufferPool::SlabLocked(Shard& shard, OwnerId owner,
                                          std::size_t quota) {
  shard.mu.AssertHeld();
  const std::size_t begin =
      static_cast<std::size_t>(owner / kNumShards) * quota;
  if (begin + quota > shard.slabs.size()) return nullptr;
  return shard.slabs.data() + begin;
}

const std::uint8_t* BufferPool::HitLocked(Shard& shard, OwnerId owner,
                                          PageId id) {
  const std::size_t quota = quota_.load(std::memory_order_relaxed);
  Frame* slab = SlabLocked(shard, owner, quota);
  if (slab == nullptr) return nullptr;
  for (std::size_t i = 0; i < quota && slab[i].id != kInvalidPageId; ++i) {
    if (slab[i].id == id) {
      std::rotate(slab, slab + i, slab + i + 1);
      return slab[0].bytes;
    }
  }
  return nullptr;
}

void BufferPool::InsertLocked(Shard& shard, OwnerId owner, PageId id,
                              const std::uint8_t* bytes) {
  TAR_DCHECK(bytes != nullptr);
  const std::size_t quota = quota_.load(std::memory_order_relaxed);
  if (quota == 0 || HitLocked(shard, owner, id) != nullptr) return;
  Frame* slab = SlabLocked(shard, owner, quota);
  if (slab == nullptr) {
    // The owner's first page: grow the table to reach its slab.
    shard.slabs.resize(static_cast<std::size_t>(owner / kNumShards + 1) *
                       quota);
    slab = SlabLocked(shard, owner, quota);
  }
  // Resident frames come first, so shifting the whole slab by one drops
  // the LRU frame when the slab is full and an empty one otherwise.
  std::move_backward(slab, slab + quota - 1, slab + quota);
  slab[0] = Frame{id, bytes};
}

Result<PageView> BufferPool::Fetch(OwnerId owner, PageId id, bool* was_hit) {
  // Injected before the LRU is touched, so a failed fetch leaves the pool
  // state exactly as it was (CheckIntegrity holds across injected faults).
  TAR_INJECT_FAULT("buffer_pool.fetch");
  Shard& shard = ShardFor(owner);
  const std::uint8_t* bytes = nullptr;
  {
    MutexLock lock(&shard.mu);
    bytes = HitLocked(shard, owner, id);
    if (bytes != nullptr) Bump(&shard.hits);
  }
  if (bytes != nullptr) {
    if (MetricsEnabled()) {
      // Resolved once and cached; the hot path pays one relaxed add.
      static Counter* const hits_metric =
          MetricsRegistry::Global().GetCounter("buffer_pool.hits");
      hits_metric->Increment();
    }
    if (was_hit) *was_hit = true;
    return PageView(bytes, page_size_);
  }
  if (was_hit) *was_hit = false;
  // Read outside the latch. A failed read caches nothing and counts as no
  // miss: it charged no physical read and returned no page.
  TAR_ASSIGN_OR_RETURN(const Page* page, file_->ReadPage(id));
  if (MetricsEnabled()) {
    static Counter* const misses_metric =
        MetricsRegistry::Global().GetCounter("buffer_pool.misses");
    misses_metric->Increment();
  }
  MutexLock lock(&shard.mu);
  Bump(&shard.misses);
  InsertLocked(shard, owner, id, page->data());
  return page->view();
}

Result<Page*> BufferPool::FetchForWrite(OwnerId owner, PageId id) {
  TAR_INJECT_FAULT("buffer_pool.fetch");
  // Write-through: always charge the write, then cache the page.
  TAR_ASSIGN_OR_RETURN(Page* page, file_->GetPageForWrite(id));
  Shard& shard = ShardFor(owner);
  MutexLock lock(&shard.mu);
  InsertLocked(shard, owner, id, page->data());
  return page;
}

std::uint64_t BufferPool::hits() const {
  std::uint64_t n = 0;
  for (const Shard& shard : shards_) {
    n += shard.hits.load(std::memory_order_relaxed);
  }
  return n;
}

std::uint64_t BufferPool::misses() const {
  std::uint64_t n = 0;
  for (const Shard& shard : shards_) {
    n += shard.misses.load(std::memory_order_relaxed);
  }
  return n;
}

void BufferPool::ResetCounters() {
  for (Shard& shard : shards_) {
    MutexLock lock(&shard.mu);
    shard.hits.store(0, std::memory_order_relaxed);
    shard.misses.store(0, std::memory_order_relaxed);
  }
}

Status BufferPool::CheckIntegrity() const {
  const std::size_t num_pages = file_->num_pages();
  auto empty = [](const Frame& f) { return f.id == kInvalidPageId; };
  for (std::size_t index = 0; index < kNumShards; ++index) {
    const Shard& shard = shards_[index];
    MutexLock lock(&shard.mu);
    // Stable while any shard latch is held: writers hold all of them.
    const std::size_t quota = quota_.load(std::memory_order_relaxed);
    const std::vector<Frame>& slabs = shard.slabs;
    if (quota == 0 ? !slabs.empty() : slabs.size() % quota != 0) {
      return Status::Corruption(
          "buffer pool shard " + std::to_string(index) + ": " +
          std::to_string(slabs.size()) + " frames are not whole slabs of " +
          std::to_string(quota));
    }
    for (std::size_t begin = 0; begin < slabs.size(); begin += quota) {
      const auto owner = begin / quota * kNumShards + index;
      auto corrupt = [owner](const std::string& what) {
        return Status::Corruption("owner " + std::to_string(owner) + ": " +
                                  what);
      };
      const Frame* slab = slabs.data() + begin;
      const Frame* end = slab + quota;
      const Frame* resident = std::find_if(slab, end, empty);
      if (!std::all_of(resident, end, empty)) {
        return corrupt("a resident frame follows an empty one");
      }
      for (const Frame* it = slab; it != resident; ++it) {
        const PageId id = it->id;
        if (std::any_of(slab, it,
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
  const std::size_t old_quota = quota_.load(std::memory_order_relaxed);
  quota_.store(quota, std::memory_order_relaxed);
  // Re-lay each table at the new slab size, keeping each owner's first
  // min(old, new) frames: its most recently used pages, in order.
  const std::size_t kept = std::min(old_quota, quota);
  for (Shard& shard : shards_) {
    if (quota == old_quota || shard.slabs.empty()) continue;
    const std::size_t slots = shard.slabs.size() / old_quota;
    std::vector<Frame> slabs(slots * quota);
    for (std::size_t s = 0; s < slots; ++s) {
      std::copy_n(shard.slabs.data() + s * old_quota, kept,
                  slabs.data() + s * quota);
    }
    shard.slabs = std::move(slabs);
  }
  for (auto it = shards_.rbegin(); it != shards_.rend(); ++it) {
    it->mu.Unlock();
  }
}

void BufferPool::Clear() {
  for (Shard& shard : shards_) {
    MutexLock lock(&shard.mu);
    shard.slabs.clear();
  }
}

void BufferPool::Evict(OwnerId owner) {
  Shard& shard = ShardFor(owner);
  MutexLock lock(&shard.mu);
  const std::size_t quota = quota_.load(std::memory_order_relaxed);
  if (Frame* slab = SlabLocked(shard, owner, quota)) {
    std::fill_n(slab, quota, Frame{});
  }
}

}  // namespace tar
