#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/failpoint.h"
#include "storage/buffer_pool.h"
#include "storage/page_file.h"

namespace tar {
namespace {

TEST(PageFileTest, AllocateReadWriteRoundTrip) {
  PageFile file(256);
  PageId id = file.Allocate().ValueOrDie();
  EXPECT_EQ(id, 0u);
  EXPECT_EQ(file.num_pages(), 1u);

  {
    auto res = file.GetPageForWrite(id);
    ASSERT_TRUE(res.ok());
    res.ValueOrDie()->WriteAt<std::int64_t>(16, 0xDEADBEEF);
  }
  auto res = file.ReadPage(id);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res.ValueOrDie()->ReadAt<std::int64_t>(16), 0xDEADBEEF);
  EXPECT_EQ(file.physical_reads(), 1u);
  EXPECT_EQ(file.physical_writes(), 1u);
}

TEST(PageFileTest, FreshPagesAreZeroed) {
  PageFile file(128);
  PageId id = file.Allocate().ValueOrDie();
  auto res = file.ReadPage(id);
  ASSERT_TRUE(res.ok());
  for (std::size_t i = 0; i < 128; ++i) {
    EXPECT_EQ(res.ValueOrDie()->data()[i], 0);
  }
}

// Pages come from shared blocks whose bytes are never cleared by the
// file, so a fresh page must read as zero even where an earlier file's
// blocks were mapped and filled, and every page must keep its address
// while the file grows by whole blocks.
TEST(PageFileTest, PagesAcrossBlocksStartZeroedAndStayPut) {
  for (int round = 0; round < 2; ++round) {
    PageFile file(128);
    const std::size_t n = 3 * file.pages_per_block() + 1;
    std::vector<const Page*> pages;
    for (std::size_t i = 0; i < n; ++i) {
      const PageId id = file.Allocate().ValueOrDie();
      Page* page = file.GetPageForWrite(id).ValueOrDie();
      for (std::size_t b = 0; b < page->size(); ++b) {
        ASSERT_EQ(page->data()[b], 0) << "page " << id << " byte " << b;
      }
      std::memset(page->data(), 0xAB, page->size());
      pages.push_back(page);
    }
    for (PageId id = 0; id < n; ++id) {
      const Page* page = file.ReadPage(id).ValueOrDie();
      EXPECT_EQ(page, pages[id]);
      EXPECT_EQ(page->ReadAt<std::uint8_t>(0), 0xAB);
      EXPECT_EQ(page->ReadAt<std::uint8_t>(page->size() - 1), 0xAB);
    }
  }
}

// A block is one mapping: at the default 1 KiB page, 63 pages and their
// headers fill it; a page larger than a block still gets a whole block
// of usable bytes.
TEST(PageFileTest, BlocksPackPagesAndHeadersIntoOneMapping) {
  EXPECT_EQ(PageFile(1024).pages_per_block(), 63u);
  for (std::size_t page_size : {std::size_t{100}, std::size_t{1024},
                                std::size_t{4096}, std::size_t{100000}}) {
    PageFile file(page_size);
    EXPECT_GE(file.pages_per_block(), 1u);
    for (std::size_t i = 0; i < file.pages_per_block() + 1; ++i) {
      const PageId id = file.Allocate().ValueOrDie();
      Page* page = file.GetPageForWrite(id).ValueOrDie();
      ASSERT_EQ(page->size(), page_size);
      EXPECT_EQ(page->ReadAt<std::uint8_t>(page_size - 1), 0);
      page->WriteAt<std::uint8_t>(0, 0x5A);
      page->WriteAt<std::uint8_t>(page_size - 1, 0xA5);
    }
    for (PageId id = 0; id < file.num_pages(); ++id) {
      const Page* page = file.ReadPage(id).ValueOrDie();
      EXPECT_EQ(page->ReadAt<std::uint8_t>(0), 0x5A) << "page " << id;
      EXPECT_EQ(page->ReadAt<std::uint8_t>(page_size - 1), 0xA5)
          << "page " << id;
    }
  }
}

TEST(PageFileTest, OutOfRangeAccessFails) {
  PageFile file(128);
  EXPECT_TRUE(file.ReadPage(3).status().IsOutOfRange());
  EXPECT_TRUE(file.GetPageForWrite(3).status().IsOutOfRange());
}

// Pages share their block's allocation, so an access past a page's end
// lands in the next page rather than in an allocator redzone; the bounds
// TAR_DCHECK in Page::ReadAt/WriteAt is what stops it in checked builds.
TEST(PageDeathTest, AccessPastThePageEndDies) {
#ifdef NDEBUG
  GTEST_SKIP() << "the page bounds TAR_DCHECK is compiled out under NDEBUG";
#else
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  PageFile file(128);
  ASSERT_TRUE(file.Allocate().ok());
  ASSERT_TRUE(file.Allocate().ok());
  Page* page = file.GetPageForWrite(0).ValueOrDie();
  EXPECT_EQ(page->ReadAt<std::uint64_t>(120), 0u);
  EXPECT_DEATH((void)page->ReadAt<std::uint64_t>(124), "TAR_DCHECK");
  EXPECT_DEATH(page->WriteAt<std::uint32_t>(128, 1), "TAR_DCHECK");
#endif
}

TEST(BufferPoolTest, HitsAreFreeMissesCostAPhysicalRead) {
  PageFile file(128);
  PageId a = file.Allocate().ValueOrDie();
  BufferPool pool(&file, /*quota_per_owner=*/2);

  bool hit = true;
  ASSERT_TRUE(pool.Fetch(1, a, &hit).ok());
  EXPECT_FALSE(hit);
  EXPECT_EQ(file.physical_reads(), 1u);

  ASSERT_TRUE(pool.Fetch(1, a, &hit).ok());
  EXPECT_TRUE(hit);
  EXPECT_EQ(file.physical_reads(), 1u);  // served from the pool
  EXPECT_EQ(pool.hits(), 1u);
  EXPECT_EQ(pool.misses(), 1u);
}

TEST(BufferPoolTest, LruEvictionWithinQuota) {
  PageFile file(128);
  PageId a = file.Allocate().ValueOrDie();
  PageId b = file.Allocate().ValueOrDie();
  PageId c = file.Allocate().ValueOrDie();
  BufferPool pool(&file, 2);

  bool hit;
  ASSERT_TRUE(pool.Fetch(1, a, &hit).ok());
  ASSERT_TRUE(pool.Fetch(1, b, &hit).ok());
  ASSERT_TRUE(pool.Fetch(1, a, &hit).ok());  // a is now MRU
  EXPECT_TRUE(hit);
  ASSERT_TRUE(pool.Fetch(1, c, &hit).ok());  // evicts b (LRU)
  EXPECT_FALSE(hit);
  ASSERT_TRUE(pool.Fetch(1, a, &hit).ok());
  EXPECT_TRUE(hit);
  ASSERT_TRUE(pool.Fetch(1, b, &hit).ok());
  EXPECT_FALSE(hit) << "b must have been evicted";
}

TEST(BufferPoolTest, QuotasAreIndependentPerOwner) {
  PageFile file(128);
  PageId a = file.Allocate().ValueOrDie();
  BufferPool pool(&file, 1);

  bool hit;
  ASSERT_TRUE(pool.Fetch(1, a, &hit).ok());
  ASSERT_TRUE(pool.Fetch(2, a, &hit).ok());
  EXPECT_FALSE(hit) << "owner 2 has its own cache";
  ASSERT_TRUE(pool.Fetch(1, a, &hit).ok());
  EXPECT_TRUE(hit);
  ASSERT_TRUE(pool.Fetch(2, a, &hit).ok());
  EXPECT_TRUE(hit);
}

TEST(BufferPoolTest, ZeroQuotaDisablesCaching) {
  PageFile file(128);
  PageId a = file.Allocate().ValueOrDie();
  BufferPool pool(&file, 0);
  bool hit;
  ASSERT_TRUE(pool.Fetch(1, a, &hit).ok());
  ASSERT_TRUE(pool.Fetch(1, a, &hit).ok());
  EXPECT_FALSE(hit);
  EXPECT_EQ(pool.hits(), 0u);
  EXPECT_EQ(pool.misses(), 2u);
  EXPECT_EQ(file.physical_reads(), 2u);
}

TEST(BufferPoolTest, EvictAndClear) {
  PageFile file(128);
  PageId a = file.Allocate().ValueOrDie();
  BufferPool pool(&file, 4);
  bool hit;
  ASSERT_TRUE(pool.Fetch(1, a, &hit).ok());
  pool.Evict(1);
  ASSERT_TRUE(pool.Fetch(1, a, &hit).ok());
  EXPECT_FALSE(hit);
  pool.Clear();
  ASSERT_TRUE(pool.Fetch(1, a, &hit).ok());
  EXPECT_FALSE(hit);
}

TEST(BufferPoolTest, WritesAreVisibleThroughThePool) {
  PageFile file(128);
  PageId a = file.Allocate().ValueOrDie();
  BufferPool pool(&file, 2);
  bool hit;
  ASSERT_TRUE(pool.Fetch(1, a, &hit).ok());  // cache the page
  {
    auto res = pool.FetchForWrite(1, a);
    ASSERT_TRUE(res.ok());
    res.ValueOrDie()->WriteAt<std::int32_t>(0, 1234);
  }
  auto res = pool.Fetch(1, a, &hit);
  ASSERT_TRUE(res.ok());
  EXPECT_TRUE(hit);
  EXPECT_EQ(res.ValueOrDie().ReadAt<std::int32_t>(0), 1234);
}

TEST(BufferPoolTest, FetchPastTheEndCachesNothing) {
  PageFile file(128);
  ASSERT_TRUE(file.Allocate().ok());
  BufferPool pool(&file, 4);
  const PageId past_end = 5;

  EXPECT_TRUE(pool.Fetch(1, past_end).status().IsOutOfRange());
  EXPECT_TRUE(pool.CheckIntegrity().ok()) << pool.CheckIntegrity().ToString();
  EXPECT_TRUE(pool.FetchForWrite(1, past_end).status().IsOutOfRange());
  EXPECT_TRUE(pool.CheckIntegrity().ok()) << pool.CheckIntegrity().ToString();
  EXPECT_TRUE(pool.Fetch(1, past_end).status().IsOutOfRange())
      << "a failed fetch must not turn into a hit";
}

TEST(BufferPoolTest, FailedReadLeavesThePageNonResident) {
  PageFile file(128);
  PageId a = file.Allocate().ValueOrDie();
  BufferPool pool(&file, 4);
  fail::FaultInjector& injector = fail::FaultInjector::Global();

  ASSERT_TRUE(injector.Configure("page_file.read=err").ok());
  bool hit = true;
  EXPECT_TRUE(pool.Fetch(1, a, &hit).status().IsIoError());
  injector.Clear();
  EXPECT_FALSE(hit);
  ASSERT_TRUE(pool.Fetch(1, a, &hit).ok());
  EXPECT_FALSE(hit) << "the page was never read, so it cannot be a hit";
  EXPECT_EQ(file.physical_reads(), 1u);

  ASSERT_TRUE(injector.Configure("page_file.write=err").ok());
  EXPECT_TRUE(pool.FetchForWrite(2, a).status().IsIoError());
  injector.Clear();
  ASSERT_TRUE(pool.Fetch(2, a, &hit).ok());
  EXPECT_FALSE(hit) << "a failed write-through must not cache the page";
  EXPECT_EQ(pool.hits(), 0u);
  EXPECT_EQ(pool.misses(), 2u) << "the failed read is no miss";
  EXPECT_EQ(file.physical_reads(), 2u);
}

}  // namespace
}  // namespace tar
