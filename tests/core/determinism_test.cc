// Determinism guard: the node-access counters — the paper's cost measure —
// on a fixed, hand-built dataset must be bit-identical across refactors.
// The latched storage layer in particular is required to be a pure
// concurrency change: single-threaded queries take exactly the same LRU
// decisions and charge exactly the same page reads as the unlatched code
// did. If a storage or query refactor changes any number below, that is a
// cost-model regression, not a test to update casually (see
// docs/internals.md, "Threading model").
//
// The dataset is built from integer hashes rather than <random>
// distributions so the pinned values are identical across standard
// libraries.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <iterator>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/sharded_store.h"
#include "core/tar_tree.h"
#include "temporal/mvbt.h"

namespace tar {
namespace {

// Deterministic 32-bit mix (Knuth multiplicative hashing).
std::uint32_t Mix(std::uint32_t x) { return x * 2654435761u; }

/// 240 POIs on a jittered grid; each has a hash-derived per-epoch history
/// over up to 24 weekly epochs. `insert` receives each POI in id order.
template <typename Insert>
void ForEachFixturePoi(Insert insert) {
  constexpr int kPois = 240;
  constexpr int kEpochs = 24;
  for (int i = 0; i < kPois; ++i) {
    Poi poi;
    poi.id = static_cast<PoiId>(i);
    std::uint32_t hx = Mix(static_cast<std::uint32_t>(i) * 2 + 1);
    std::uint32_t hy = Mix(static_cast<std::uint32_t>(i) * 2 + 2);
    poi.pos = {(i % 16) * 6.0 + (hx % 1000) / 250.0,
               (i / 16) * 6.0 + (hy % 1000) / 250.0};
    std::vector<std::int32_t> history(kEpochs, 0);
    for (int e = 0; e < kEpochs; ++e) {
      std::uint32_t h = Mix(static_cast<std::uint32_t>(i * kEpochs + e));
      // ~1/3 of (poi, epoch) cells are zero; the rest are in [1, 40].
      history[e] = (h % 3 == 0) ? 0 : static_cast<std::int32_t>(h % 40 + 1);
    }
    insert(poi, history);
  }
}

void BuildFixture(TarTree* tree) {
  ForEachFixturePoi([&](const Poi& poi, const std::vector<std::int32_t>& h) {
    ASSERT_TRUE(tree->InsertPoi(poi, h).ok());
  });
}

TarTreeOptions FixtureOptions() {
  TarTreeOptions opt;
  opt.strategy = GroupingStrategy::kIntegral3D;
  opt.grid = EpochGrid(0, 7 * kSecondsPerDay);
  opt.space.lo = {0.0, 0.0};
  opt.space.hi = {100.0, 94.0};
  return opt;
}

std::vector<KnntaQuery> PinnedQueries() {
  const TimeInterval last8 = {16 * 7 * kSecondsPerDay,
                              24 * 7 * kSecondsPerDay - 1};
  const TimeInterval mid4 = {8 * 7 * kSecondsPerDay,
                             12 * 7 * kSecondsPerDay - 1};
  return {{{50.0, 47.0}, last8, 10, 0.3},
          {{10.0, 80.0}, mid4, 5, 0.7},
          {{95.0, 5.0}, last8, 20, 0.5}};
}

TEST(DeterminismTest, SingleThreadedNodeAccessCountsArePinned) {
  TarTreeOptions opt = FixtureOptions();
  TarTree tree(opt);
  BuildFixture(&tree);
  ASSERT_TRUE(tree.CheckInvariants().ok());

  // Start from a cold pool with a tight quota so the pinned numbers
  // exercise misses and LRU evictions, not just a fully resident cache.
  tree.tia_buffer_pool()->set_quota(4);
  tree.tia_buffer_pool()->Clear();
  tree.tia_buffer_pool()->ResetCounters();

  struct Pinned {
    KnntaQuery query;
    std::uint64_t node_accesses;
    std::uint64_t rtree_node_reads;
    std::uint64_t tia_page_reads;
    std::uint64_t tia_buffer_hits;
    std::uint64_t entries_scanned;
    std::uint64_t aggregate_calls;
    std::size_t num_results;
  };
  const std::vector<KnntaQuery> queries = PinnedQueries();
  const std::vector<Pinned> pinned = {
      // Query 0 runs against the cold pool (mostly misses); 1 and 2 run
      // against the residency query 0 left behind (mostly hits).
      {queries[0], 278, 25, 253, 239, 490, 490, 10},
      {queries[1], 18, 17, 1, 327, 326, 326, 5},
      {queries[2], 19, 19, 0, 371, 369, 369, 20},
  };

  for (std::size_t i = 0; i < pinned.size(); ++i) {
    SCOPED_TRACE("query " + std::to_string(i));
    std::vector<KnntaResult> results;
    AccessStats stats;
    ASSERT_TRUE(tree.Query(pinned[i].query, &results, &stats).ok());
    EXPECT_EQ(results.size(), pinned[i].num_results);
    EXPECT_EQ(stats.NodeAccesses(), pinned[i].node_accesses);
    EXPECT_EQ(stats.rtree_node_reads, pinned[i].rtree_node_reads);
    EXPECT_EQ(stats.tia_page_reads, pinned[i].tia_page_reads);
    EXPECT_EQ(stats.tia_buffer_hits, pinned[i].tia_buffer_hits);
    EXPECT_EQ(stats.entries_scanned, pinned[i].entries_scanned);
    EXPECT_EQ(stats.aggregate_calls, pinned[i].aggregate_calls);
  }

  // The pool's own counters are part of the contract: the LRU decisions
  // (hence hit/miss split) must not drift either.
  EXPECT_EQ(tree.tia_buffer_pool()->hits(), 937u);
  EXPECT_EQ(tree.tia_buffer_pool()->misses(), 254u);
}

// The sharded store's forest search on the same fixture and queries,
// split over 4 and 16 grid shards: the answers equal the single tree's
// bit for bit, and the access counts — one global-TIA read per shard the
// search reaches, plus the nodes it expands — are pinned like the
// single-tree counts above. Each shard tree keeps its own buffer pool at
// the default quota, so the page split differs from the test above.
TEST(DeterminismTest, ShardedForestAccessCountsArePinned) {
  TarTree tree(FixtureOptions());
  BuildFixture(&tree);

  struct Pinned {
    std::size_t shards;
    std::size_t query;
    std::uint64_t rtree_node_reads;
    std::uint64_t entries_scanned;
    std::uint64_t aggregate_calls;
    std::uint64_t tia_page_reads;
    std::uint64_t tia_buffer_hits;
  };
  const std::vector<Pinned> pinned = {
      {4, 0, 26, 498, 502, 1, 507},
      {4, 1, 16, 312, 316, 0, 321},
      {4, 2, 22, 403, 407, 0, 413},
      {16, 0, 28, 430, 446, 16, 446},
      {16, 1, 20, 301, 317, 0, 339},
      {16, 2, 23, 346, 362, 0, 378},
  };
  const std::vector<KnntaQuery> queries = PinnedQueries();
  std::unique_ptr<ShardedStore> store;
  for (const Pinned& pin : pinned) {
    SCOPED_TRACE("shards " + std::to_string(pin.shards) + ", query " +
                 std::to_string(pin.query));
    if (store == nullptr || store->num_shards() != pin.shards) {
      ShardedStoreOptions so;
      so.num_shards = pin.shards;
      so.tree = FixtureOptions();
      auto opened = ShardedStore::Open(so);
      ASSERT_TRUE(opened.ok()) << opened.status().ToString();
      store = std::move(opened).ValueOrDie();
      ForEachFixturePoi(
          [&](const Poi& poi, const std::vector<std::int32_t>& h) {
            ASSERT_TRUE(store->InsertPoi(poi, h).ok());
          });
    }
    const KnntaQuery& q = queries[pin.query];
    std::vector<KnntaResult> want;
    std::vector<KnntaResult> got;
    AccessStats stats;
    ASSERT_TRUE(tree.Query(q, &want).ok());
    ASSERT_TRUE(store->Query(q, &got, &stats).ok());
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].poi, want[i].poi) << "rank " << i;
      EXPECT_EQ(std::memcmp(&got[i].score, &want[i].score, sizeof(double)),
                0)
          << "rank " << i;
    }
    EXPECT_EQ(stats.rtree_node_reads, pin.rtree_node_reads);
    EXPECT_EQ(stats.entries_scanned, pin.entries_scanned);
    EXPECT_EQ(stats.aggregate_calls, pin.aggregate_calls);
    EXPECT_EQ(stats.tia_page_reads, pin.tia_page_reads);
    EXPECT_EQ(stats.tia_buffer_hits, pin.tia_buffer_hits);
  }
}

/// What the update paths left on the simulated disk: the page count, the
/// physical I/O and pool traffic that produced it, and an FNV-1a hash of
/// every page's bytes in page-id order.
struct PageImage {
  std::size_t pages;
  std::uint64_t physical_reads;
  std::uint64_t physical_writes;
  std::uint64_t pool_hits;
  std::uint64_t pool_misses;
  std::uint64_t hash;
};

PageImage TakePageImage(BufferPool* pool) {
  PageFile* file = pool->file();
  // Hashing reads every page, so the counters are taken first.
  PageImage image{file->num_pages(),       file->physical_reads(),
                  file->physical_writes(), pool->hits(),
                  pool->misses(),          14695981039346656037ull};
  for (PageId id = 0; id < image.pages; ++id) {
    auto page = file->ReadPage(id);
    EXPECT_TRUE(page.ok()) << "page " << id;
    if (!page.ok()) break;
    const std::uint8_t* bytes = page.ValueOrDie()->data();
    for (std::size_t i = 0; i < file->page_size(); ++i) {
      image.hash = (image.hash ^ bytes[i]) * 1099511628211ull;
    }
  }
  return image;
}

void ExpectPageImage(const PageImage& got, const PageImage& want) {
  EXPECT_EQ(got.pages, want.pages);
  EXPECT_EQ(got.physical_reads, want.physical_reads);
  EXPECT_EQ(got.physical_writes, want.physical_writes);
  EXPECT_EQ(got.pool_hits, want.pool_hits);
  EXPECT_EQ(got.pool_misses, want.pool_misses);
  EXPECT_EQ(got.hash, want.hash) << std::hex << "got 0x" << got.hash;
}

// The page images the update paths write are part of the cost model too:
// a faster insert or erase must store the same bytes at the same page ids
// through the same physical reads and writes, and RaiseTo's lookups must
// take the same pool decisions. Four epoch batches after the fixture's 24.
TEST(DeterminismTest, EpochAppendPageImagesArePinned) {
  TarTree tree(FixtureOptions());
  BuildFixture(&tree);
  for (std::int64_t epoch = 24; epoch < 28; ++epoch) {
    std::unordered_map<PoiId, std::int64_t> aggs;
    for (std::uint32_t poi = 0; poi < 240; ++poi) {
      const std::uint32_t h = Mix(poi * 97 + static_cast<std::uint32_t>(epoch));
      if (h % 3 != 0) aggs[static_cast<PoiId>(poi)] = h % 40 + 1;
    }
    ASSERT_TRUE(tree.AppendEpoch(epoch, aggs).ok()) << "epoch " << epoch;
  }
  ASSERT_TRUE(tree.CheckInvariants().ok());
  ExpectPageImage(TakePageImage(tree.tia_buffer_pool()),
                  {310, 5275, 5217, 14898, 310, 0x4c2d5db7a9401a80ull});
}

// A sharded store stages and catches up the shards of a batch on
// separate threads, but each shard's two trees must see the same
// operations in the same order as when the shards applied one after
// another: per shard and replica, the page image after the fixture and
// five cross-shard batches, with every value taken from a sequential
// apply.
TEST(DeterminismTest, ShardedAppendPageImagesArePinned) {
  struct Pinned {
    std::size_t shards;
    std::size_t shard;
    PageImage image;
  };
  const std::vector<Pinned> pinned = {
      {4, 0, {81, 1513, 1481, 2605, 79, 0xa0ebe4127732d68aull}},
      {4, 1, {80, 1461, 1422, 2588, 78, 0x34470bb0fca47414ull}},
      {4, 2, {75, 1381, 1349, 2285, 73, 0x8c76de73ec11ec88ull}},
      {4, 3, {65, 1212, 1178, 1847, 63, 0x050801113e39f9baull}},
      {16, 0, {23, 444, 420, 461, 22, 0xade03a338b21d930ull}},
      {16, 1, {21, 429, 400, 463, 20, 0xa93fb0cc59afb683ull}},
      {16, 2, {25, 491, 464, 529, 24, 0x4750af8e528fdbc8ull}},
      {16, 3, {17, 349, 322, 339, 16, 0x5afb7f60723e1b5cull}},
      {16, 4, {22, 426, 407, 452, 21, 0x36081162791f44ebull}},
      {16, 5, {24, 450, 433, 485, 23, 0x46750008b343ac22ull}},
      {16, 6, {25, 477, 447, 490, 23, 0x795c59f246dba617ull}},
      {16, 7, {17, 338, 315, 324, 16, 0xf2d618b4b39c7337ull}},
      {16, 8, {22, 419, 399, 432, 21, 0xab14e0893e42b424ull}},
      {16, 9, {24, 485, 454, 548, 23, 0x0093389bb55d40f5ull}},
      {16, 10, {23, 445, 423, 474, 22, 0xd888a26986d409edull}},
      {16, 11, {17, 351, 322, 334, 16, 0x07222d4576dafa63ull}},
      {16, 12, {18, 330, 315, 301, 17, 0xf26422d7c07fd643ull}},
      {16, 13, {20, 378, 356, 348, 19, 0x1dfa19cdb2c5cebcull}},
      {16, 14, {18, 366, 339, 362, 17, 0x7b500d1948c666c6ull}},
      {16, 15, {15, 271, 258, 215, 14, 0x43c3af3c15952e2cull}},
  };
  std::size_t checked = 0;
  for (std::size_t shards : {std::size_t{4}, std::size_t{16}}) {
    ShardedStoreOptions so;
    so.num_shards = shards;
    so.tree = FixtureOptions();
    auto opened = ShardedStore::Open(so);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    std::unique_ptr<ShardedStore> store = std::move(opened).ValueOrDie();
    ForEachFixturePoi([&](const Poi& poi, const std::vector<std::int32_t>& h) {
      ASSERT_TRUE(store->InsertPoi(poi, h).ok());
    });
    for (std::int64_t epoch = 24; epoch < 29; ++epoch) {
      std::unordered_map<PoiId, std::int64_t> aggs;
      for (std::uint32_t poi = 0; poi < 240; ++poi) {
        const std::uint32_t h =
            Mix(poi * 89 + static_cast<std::uint32_t>(epoch) * 7);
        if (h % 4 != 0) aggs[static_cast<PoiId>(poi)] = h % 50 + 1;
      }
      ASSERT_TRUE(store->AppendEpoch(epoch, aggs).ok()) << "epoch " << epoch;
    }
    for (const Pinned& pin : pinned) {
      if (pin.shards != shards) continue;
      for (std::uint32_t slot = 0; slot < 2; ++slot) {
        SCOPED_TRACE("shards " + std::to_string(shards) + ", shard " +
                     std::to_string(pin.shard) + ", replica " +
                     std::to_string(slot));
        TarTree* tree = store->shard(pin.shard)->replica(slot);
        ExpectPageImage(TakePageImage(tree->tia_buffer_pool()), pin.image);
      }
      ++checked;
    }
  }
  EXPECT_EQ(checked, 20u);
}

// The same pins for one MVBT under the MvbtPropertyTest churn shape —
// 2,500 operations, 60% inserts of fresh keys in [0, 4000], the rest
// erases of a random live key, the version advancing by 1–3 before 40% of
// them, on 512-byte pages — so erases reach the weak-underflow, merge and
// erased-at-birth paths as well as the in-place ones. Each operation's
// draws come from one splitmix64 hash of its index rather than from
// <random> distributions, so the pins hold across standard libraries.
// Query reads after the churn pin the pool's decisions over the pages.
TEST(DeterminismTest, MvbtChurnPageImagesArePinned) {
  auto hash = [](std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
  };
  PageFile file(512);
  BufferPool pool(&file, 10);
  mvbt::Mvbt tree(&file, &pool, /*owner=*/1);
  std::map<mvbt::Key, mvbt::Value> live;
  mvbt::Version v = 0;
  for (std::uint64_t i = 0; i < 2500; ++i) {
    const std::uint64_t h = hash(i);
    if (h % 100 < 40) v += 1 + static_cast<mvbt::Version>((h >> 8) % 3);
    if (live.empty() || (h >> 16) % 100 < 60) {
      const auto key = static_cast<mvbt::Key>((h >> 24) % 4001);
      if (live.count(key) != 0) continue;
      const auto value = static_cast<mvbt::Value>(h >> 44);
      ASSERT_TRUE(tree.Insert(v, key, value).ok()) << "op " << i;
      live[key] = value;
    } else {
      auto it = live.begin();
      std::advance(it, (h >> 24) % live.size());
      ASSERT_TRUE(tree.Erase(v, it->first).ok()) << "op " << i;
      live.erase(it);
    }
  }
  ASSERT_TRUE(tree.CheckInvariants().ok());
  for (mvbt::Version q : {v / 4, v / 2, v}) {
    std::vector<std::pair<mvbt::Key, mvbt::Value>> out;
    for (int pass = 0; pass < 2; ++pass) {
      ASSERT_TRUE(tree.RangeScan(q, 1000, 1200, &out).ok());
      ASSERT_TRUE(tree.Lookup(q, 2024).ok());
    }
  }
  ExpectPageImage(TakePageImage(&pool),
                  {347, 7650, 3030, 30, 20, 0x9f6b72a5a245ed1eull});
}

}  // namespace
}  // namespace tar
