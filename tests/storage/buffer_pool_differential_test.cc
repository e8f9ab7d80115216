// Differential tests of BufferPool against a reference LRU model: one
// std::list of page ids per owner, most recently used first. Every fetch
// must agree with the model on hit or miss, and the pool's counters, the
// file's physical reads and CheckIntegrity must agree with it too. The
// concurrent variant gives each thread its own owners (spread over every
// shard, so threads share shard latches) and its own model; it is one of
// the tests the `tsan` preset runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <list>
#include <map>
#include <thread>
#include <vector>

#include "common/random.h"
#include "storage/buffer_pool.h"
#include "storage/page_file.h"

namespace tar {
namespace {

/// The LRU the pool must behave like.
class LruModel {
 public:
  explicit LruModel(std::size_t quota) : quota_(quota) {}

  /// A read fetch: whether it hits, updating the model as the pool must.
  bool Fetch(OwnerId owner, PageId id) {
    std::list<PageId>& lru = lists_[owner];
    const auto it = std::find(lru.begin(), lru.end(), id);
    const bool hit = it != lru.end();
    hit ? ++hits_ : ++misses_;
    Cache(owner, id);
    return hit;
  }

  /// A write fetch: caches the page like a read and counts nothing.
  void FetchForWrite(OwnerId owner, PageId id) { Cache(owner, id); }

  void SetQuota(std::size_t quota) {
    quota_ = quota;
    for (auto& [owner, lru] : lists_) {
      while (lru.size() > quota_) lru.pop_back();
    }
  }
  void Evict(OwnerId owner) { lists_.erase(owner); }
  void Clear() { lists_.clear(); }

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }

 private:
  void Cache(OwnerId owner, PageId id) {
    std::list<PageId>& lru = lists_[owner];
    lru.remove(id);
    if (quota_ == 0) return;
    lru.push_front(id);
    if (lru.size() > quota_) lru.pop_back();
  }

  std::size_t quota_;
  std::map<OwnerId, std::list<PageId>> lists_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

constexpr std::size_t kPages = 64;
constexpr OwnerId kOwners = 48;  // three owners in each of the 16 shards

/// A file of kPages pages, each holding its own id in its first bytes.
void FillFile(PageFile* file) {
  for (std::size_t i = 0; i < kPages; ++i) {
    const PageId id = file->Allocate().ValueOrDie();
    file->GetPageForWrite(id).ValueOrDie()->WriteAt<std::uint32_t>(0, id);
  }
  file->ResetCounters();
}

/// One random read fetch checked against the model: the same hit or miss,
/// and the requested page's bytes.
void CheckedFetch(BufferPool* pool, LruModel* model, OwnerId owner,
                  PageId id) {
  bool hit = false;
  auto res = pool->Fetch(owner, id, &hit);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  ASSERT_EQ(hit, model->Fetch(owner, id))
      << "owner " << owner << " page " << id;
  ASSERT_EQ(res.ValueOrDie().ReadAt<std::uint32_t>(0), id);
}

class BufferPoolDifferentialTest
    : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BufferPoolDifferentialTest, AgreesWithAReferenceLru) {
  const std::size_t quota = GetParam();
  PageFile file(128);
  FillFile(&file);
  BufferPool pool(&file, quota);
  LruModel model(quota);
  Rng rng(quota + 1);
  // The quota shrinks and grows in mid-sequence, and comes back.
  const std::vector<std::size_t> quotas = {quota, quota / 2, quota + 3, 1,
                                           quota};
  for (std::size_t phase = 0; phase < quotas.size(); ++phase) {
    pool.set_quota(quotas[phase]);
    model.SetQuota(quotas[phase]);
    for (int op = 0; op < 3000; ++op) {
      const auto owner = static_cast<OwnerId>(rng.UniformInt(0, kOwners - 1));
      // A small per-owner working set, so that hits are common.
      const auto id = static_cast<PageId>(
          (owner * 7 + rng.UniformInt(0, 2 * quotas[phase] + 2)) % kPages);
      const std::int64_t kind = rng.UniformInt(0, 99);
      if (kind == 0) {
        pool.Evict(owner);
        model.Evict(owner);
      } else if (kind == 1 && rng.UniformInt(0, 9) == 0) {
        pool.Clear();
        model.Clear();
      } else if (kind < 6) {
        ASSERT_TRUE(pool.FetchForWrite(owner, id).ok());
        model.FetchForWrite(owner, id);
      } else {
        ASSERT_NO_FATAL_FAILURE(CheckedFetch(&pool, &model, owner, id));
      }
      if (op % 97 == 0) {
        ASSERT_TRUE(pool.CheckIntegrity().ok())
            << pool.CheckIntegrity().ToString();
      }
    }
    EXPECT_EQ(pool.hits(), model.hits());
    EXPECT_EQ(pool.misses(), model.misses());
    EXPECT_EQ(file.physical_reads(), model.misses());
    ASSERT_TRUE(pool.CheckIntegrity().ok()) << pool.CheckIntegrity().ToString();
  }
  EXPECT_GT(model.misses(), 0u);
  if (quota > 0) {
    EXPECT_GT(model.hits(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Quotas, BufferPoolDifferentialTest,
                         ::testing::Values(0, 1, 2, 5, 10, 50));

// Threads with disjoint owners: each owner's sequence is one thread's, so
// each thread's model predicts every one of its fetches exactly, while the
// owners of different threads share shards and so contend on their latches.
TEST(ConcurrentBufferPoolTest, DisjointOwnersAgreeWithTheirModels) {
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kQuota = 5;
  PageFile file(128);
  FillFile(&file);
  BufferPool pool(&file, kQuota);
  std::vector<LruModel> models(kThreads, LruModel(kQuota));
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      Rng rng(100 + t);
      for (int op = 0; op < 4000; ++op) {
        // Owners t, t + kThreads, ...: twelve per thread, in every shard.
        const auto owner = static_cast<OwnerId>(
            t + kThreads * rng.UniformInt(0, kOwners / kThreads - 1));
        const auto id = static_cast<PageId>(
            (owner * 7 + rng.UniformInt(0, 2 * kQuota)) % kPages);
        if (rng.UniformInt(0, 99) == 0) {
          pool.Evict(owner);
          models[t].Evict(owner);
        } else {
          ASSERT_NO_FATAL_FAILURE(CheckedFetch(&pool, &models[t], owner, id));
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  for (const LruModel& model : models) {
    hits += model.hits();
    misses += model.misses();
  }
  EXPECT_EQ(pool.hits(), hits);
  EXPECT_EQ(pool.misses(), misses);
  EXPECT_EQ(file.physical_reads(), misses);
  EXPECT_TRUE(pool.CheckIntegrity().ok()) << pool.CheckIntegrity().ToString();
}

}  // namespace
}  // namespace tar
