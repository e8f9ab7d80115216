// Concurrency tests for the latched storage layer. These are the tests
// the `tsan` preset exists for: N threads hammer one shared PageFile /
// BufferPool, and ThreadSanitizer (plus the exact counter accounting
// asserted below) proves the latching sound. Run single-threaded they
// also pin the accounting contract: every Fetch increments exactly one of
// hits/misses, and every miss is charged one physical read.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "storage/buffer_pool.h"
#include "storage/page_file.h"

namespace tar {
namespace {

// Deterministic per-thread operation stream (no shared RNG state).
std::uint64_t Mix(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  return x;
}

constexpr std::size_t kThreads = 8;
constexpr std::size_t kOpsPerThread = 2000;  // 16k ops total, >= 10k

TEST(ConcurrentBufferPoolTest, ParallelFetchAccountingIsExact) {
  PageFile file(128);
  constexpr std::size_t kPages = 64;
  for (std::size_t i = 0; i < kPages; ++i) {
    ASSERT_TRUE(file.Allocate().ok());
  }
  BufferPool pool(&file, /*quota_per_owner=*/8);

  std::atomic<std::uint64_t> fetches{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      for (std::size_t i = 0; i < kOpsPerThread; ++i) {
        std::uint64_t h = Mix(t * kOpsPerThread + i + 1);
        auto owner = static_cast<OwnerId>(h % 32);
        auto page = static_cast<PageId>((h >> 8) % kPages);
        bool hit = false;
        if (!pool.Fetch(owner, page, &hit).ok()) {
          failures.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        fetches.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(pool.hits() + pool.misses(), fetches.load());
  EXPECT_EQ(pool.misses(), file.physical_reads());
  EXPECT_TRUE(pool.CheckIntegrity().ok());
}

TEST(ConcurrentBufferPoolTest, MixedChurnKeepsIntegrity) {
  PageFile file(128);
  constexpr std::size_t kPages = 48;
  for (std::size_t i = 0; i < kPages; ++i) {
    ASSERT_TRUE(file.Allocate().ok());
  }
  BufferPool pool(&file, 6);

  std::atomic<std::uint64_t> fetches{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      for (std::size_t i = 0; i < kOpsPerThread; ++i) {
        std::uint64_t h = Mix((t + kThreads) * kOpsPerThread + i + 1);
        auto owner = static_cast<OwnerId>(h % 24);
        auto page = static_cast<PageId>((h >> 8) % kPages);
        switch (h % 16) {
          case 0:
            if (!pool.FetchForWrite(owner, page).ok()) {
              failures.fetch_add(1, std::memory_order_relaxed);
            }
            break;
          case 1:
            pool.Evict(owner);
            break;
          case 2:
            // Concurrent quota churn, including quota 0 (caching off).
            pool.set_quota((h >> 16) % 8);
            break;
          default:
            if (pool.Fetch(owner, page).ok()) {
              fetches.fetch_add(1, std::memory_order_relaxed);
            } else {
              failures.fetch_add(1, std::memory_order_relaxed);
            }
            break;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(pool.hits() + pool.misses(), fetches.load());
  EXPECT_TRUE(pool.CheckIntegrity().ok()) << pool.CheckIntegrity().ToString();
}

TEST(ConcurrentPageFileTest, ParallelAllocateReadWrite) {
  PageFile file(64);
  std::atomic<std::uint64_t> reads{0};
  std::atomic<std::uint64_t> writes{0};
  std::vector<std::thread> threads;
  constexpr std::size_t kAllocsPerThread = 200;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&]() {
      for (std::size_t i = 0; i < kAllocsPerThread; ++i) {
        auto alloc = file.Allocate();
        ASSERT_TRUE(alloc.ok());
        PageId id = alloc.ValueOrDie();
        // Each thread writes and reads back only pages it allocated, so
        // page payload access needs no extra synchronization.
        auto w = file.GetPageForWrite(id);
        ASSERT_TRUE(w.ok());
        w.ValueOrDie()->WriteAt<std::uint32_t>(0, id * 2654435761u);
        writes.fetch_add(1, std::memory_order_relaxed);
        auto r = file.ReadPage(id);
        ASSERT_TRUE(r.ok());
        reads.fetch_add(1, std::memory_order_relaxed);
        EXPECT_EQ(r.ValueOrDie()->ReadAt<std::uint32_t>(0),
                  id * 2654435761u);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(file.num_pages(), kThreads * kAllocsPerThread);
  EXPECT_EQ(file.physical_reads(), reads.load());
  EXPECT_EQ(file.physical_writes(), writes.load());
}

TEST(ConcurrentBufferPoolTest, SetQuotaIsAtomicAcrossShards) {
  PageFile file(128);
  constexpr std::size_t kPages = 32;
  for (std::size_t i = 0; i < kPages; ++i) {
    ASSERT_TRUE(file.Allocate().ok());
  }
  BufferPool pool(&file, 10);

  // Fill several owners to the initial quota, then shrink it from one
  // thread while others fetch: no owner may ever be observed over the
  // final quota once the pool quiesces.
  for (OwnerId owner = 0; owner < 20; ++owner) {
    for (PageId page = 0; page < 10; ++page) {
      ASSERT_TRUE(pool.Fetch(owner, page).ok());
    }
  }
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < 4; ++t) {
    threads.emplace_back([&, t]() {
      for (std::size_t i = 0; i < 500; ++i) {
        std::uint64_t h = Mix(t * 1000 + i + 7);
        ASSERT_TRUE(pool
                        .Fetch(static_cast<OwnerId>(h % 20),
                               static_cast<PageId>((h >> 8) % kPages))
                        .ok());
      }
    });
  }
  threads.emplace_back([&]() {
    for (std::size_t q = 10; q-- > 2;) pool.set_quota(q);
  });
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(pool.quota(), 2u);
  EXPECT_TRUE(pool.CheckIntegrity().ok()) << pool.CheckIntegrity().ToString();
}

TEST(ConcurrentBufferPoolTest, HitsStayValidWhileTheFileGrows) {
  // A hit serves the byte address cached in its frame and never consults
  // the page directory, so readers hitting warm pages while another thread
  // grows the same file must keep getting the very bytes they got before
  // the growth.
  PageFile file(64);
  constexpr std::size_t kReaders = 4;
  constexpr std::size_t kWarm = 8;
  constexpr std::size_t kGrowth = 4000;
  for (std::size_t i = 0; i < kWarm; ++i) {
    ASSERT_TRUE(file.Allocate().ok());
  }
  BufferPool pool(&file, kWarm);
  std::vector<const std::uint8_t*> warm(kWarm);
  for (OwnerId owner = 0; owner < kReaders; ++owner) {
    for (PageId id = 0; id < kWarm; ++id) {
      auto res = pool.Fetch(owner, id);
      ASSERT_TRUE(res.ok());
      warm[id] = res.ValueOrDie().data();
    }
  }

  std::atomic<bool> grown{false};
  std::atomic<std::uint64_t> fetches{0};
  std::atomic<int> wrong{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kReaders; ++t) {
    threads.emplace_back([&, t]() {
      // Keep hitting until the growth is over, and at least kOpsPerThread
      // times, so the hits overlap the directory reallocations.
      for (std::size_t i = 0; i < kOpsPerThread || !grown.load(); ++i) {
        const auto id = static_cast<PageId>(Mix(t * kOpsPerThread + i) % kWarm);
        bool hit = false;
        auto res = pool.Fetch(static_cast<OwnerId>(t), id, &hit);
        if (!res.ok() || !hit || res.ValueOrDie().data() != warm[id]) {
          wrong.fetch_add(1, std::memory_order_relaxed);
        }
        fetches.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  threads.emplace_back([&]() {
    for (std::size_t i = 0; i < kGrowth; ++i) {
      if (!file.Allocate().ok()) wrong.fetch_add(1, std::memory_order_relaxed);
    }
    grown.store(true);
  });
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(wrong.load(), 0);
  EXPECT_EQ(file.num_pages(), kWarm + kGrowth);
  EXPECT_EQ(pool.misses(), kReaders * kWarm) << "only the warm-up misses";
  EXPECT_EQ(pool.hits() + pool.misses(), fetches.load() + kReaders * kWarm);
  EXPECT_TRUE(pool.CheckIntegrity().ok()) << pool.CheckIntegrity().ToString();
}

}  // namespace
}  // namespace tar
