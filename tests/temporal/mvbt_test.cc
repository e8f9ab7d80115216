#include "temporal/mvbt.h"

#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/failpoint.h"
#include "common/random.h"

namespace tar::mvbt {

/// Test-only access to the live-root cache (friend of Mvbt).
class MvbtTestPeer {
 public:
  static PageId LivePage(const Mvbt& tree) { return tree.live_root_.page; }
  static bool LiveIsLeaf(const Mvbt& tree) { return tree.live_root_.is_leaf; }
  static const std::uint8_t* LiveBytes(const Mvbt& tree) {
    return tree.live_root_.bytes;
  }
  static void SetLiveRoot(Mvbt* tree, PageId page, bool is_leaf,
                          const std::uint8_t* bytes) {
    tree->live_root_ = Mvbt::LiveRoot{page, is_leaf, bytes};
  }
};

namespace {

struct Fixture {
  explicit Fixture(std::size_t page_size = 512, std::size_t quota = 10)
      : file(page_size), pool(&file, quota), tree(&file, &pool, /*owner=*/1) {}

  PageFile file;
  BufferPool pool;
  Mvbt tree;
};

TEST(MvbtTest, EmptyTreeQueries) {
  Fixture fx;
  auto res = fx.tree.Lookup(5, 42);
  ASSERT_TRUE(res.ok());
  EXPECT_FALSE(res.ValueOrDie().has_value());
  std::vector<std::pair<Key, Value>> out;
  ASSERT_TRUE(fx.tree.RangeScan(5, kKeyMin, kKeyMax - 1, &out).ok());
  EXPECT_TRUE(out.empty());
  EXPECT_TRUE(fx.tree.empty());
}

TEST(MvbtTest, SingleInsertVisibleFromItsVersionOn) {
  Fixture fx;
  ASSERT_TRUE(fx.tree.Insert(3, 100, 7).ok());
  auto before = fx.tree.Lookup(2, 100);
  ASSERT_TRUE(before.ok());
  EXPECT_FALSE(before.ValueOrDie().has_value());
  auto at = fx.tree.Lookup(3, 100);
  ASSERT_TRUE(at.ok());
  ASSERT_TRUE(at.ValueOrDie().has_value());
  EXPECT_EQ(*at.ValueOrDie(), 7);
  auto later = fx.tree.Lookup(1000, 100);
  ASSERT_TRUE(later.ok());
  EXPECT_TRUE(later.ValueOrDie().has_value());
}

TEST(MvbtTest, DeleteEndsVisibilityExactlyAtVersion) {
  Fixture fx;
  ASSERT_TRUE(fx.tree.Insert(1, 5, 50).ok());
  ASSERT_TRUE(fx.tree.Erase(4, 5).ok());
  EXPECT_TRUE(fx.tree.Lookup(3, 5).ValueOrDie().has_value());
  EXPECT_FALSE(fx.tree.Lookup(4, 5).ValueOrDie().has_value());
  EXPECT_FALSE(fx.tree.Lookup(9, 5).ValueOrDie().has_value());
}

TEST(MvbtTest, DuplicateLiveKeyRejected) {
  Fixture fx;
  ASSERT_TRUE(fx.tree.Insert(1, 5, 50).ok());
  EXPECT_TRUE(fx.tree.Insert(2, 5, 51).IsAlreadyExists());
  // After deletion the key can be reinserted.
  ASSERT_TRUE(fx.tree.Erase(3, 5).ok());
  EXPECT_TRUE(fx.tree.Insert(4, 5, 52).ok());
  EXPECT_EQ(*fx.tree.Lookup(4, 5).ValueOrDie(), 52);
  EXPECT_EQ(*fx.tree.Lookup(2, 5).ValueOrDie(), 50);
}

TEST(MvbtTest, DecreasingVersionRejected) {
  Fixture fx;
  ASSERT_TRUE(fx.tree.Insert(5, 1, 1).ok());
  EXPECT_TRUE(fx.tree.Insert(4, 2, 2).IsInvalidArgument());
  EXPECT_TRUE(fx.tree.Erase(3, 1).IsInvalidArgument());
}

TEST(MvbtTest, EraseMissingKeyIsNotFound) {
  Fixture fx;
  ASSERT_TRUE(fx.tree.Insert(1, 5, 50).ok());
  EXPECT_TRUE(fx.tree.Erase(2, 6).IsNotFound());
  ASSERT_TRUE(fx.tree.Erase(2, 5).ok());
  EXPECT_TRUE(fx.tree.Erase(3, 5).IsNotFound());
}

TEST(MvbtTest, VersionSplitPreservesHistory) {
  // Insert enough keys at version 1 to force splits, then delete them all
  // at version 2: version 1 must still see everything.
  Fixture fx;
  const int n = 100;
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(fx.tree.Insert(1, i, i * 10).ok());
  }
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(fx.tree.Erase(2, i).ok());
  }
  std::vector<std::pair<Key, Value>> out;
  ASSERT_TRUE(fx.tree.RangeScan(1, kKeyMin, kKeyMax - 1, &out).ok());
  ASSERT_EQ(out.size(), static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(out[i].first, i);
    EXPECT_EQ(out[i].second, i * 10);
  }
  ASSERT_TRUE(fx.tree.RangeScan(2, kKeyMin, kKeyMax - 1, &out).ok());
  EXPECT_TRUE(out.empty());
  EXPECT_TRUE(fx.tree.CheckInvariants().ok());
}

TEST(MvbtTest, RangeScanBoundsAreInclusive) {
  Fixture fx;
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(fx.tree.Insert(1, i * 2, i).ok());
  }
  std::vector<std::pair<Key, Value>> out;
  ASSERT_TRUE(fx.tree.RangeScan(1, 10, 20, &out).ok());
  ASSERT_EQ(out.size(), 6u);  // 10, 12, 14, 16, 18, 20
  EXPECT_EQ(out.front().first, 10);
  EXPECT_EQ(out.back().first, 20);
}

TEST(MvbtTest, QueryReadsGoThroughBufferPool) {
  Fixture fx(512, /*quota=*/10);
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(fx.tree.Insert(1, i, i).ok());
  }
  AccessStats cold, warm;
  std::vector<std::pair<Key, Value>> out;
  ASSERT_TRUE(fx.tree.RangeScan(1, 0, 20, &out, &cold).ok());
  ASSERT_TRUE(fx.tree.RangeScan(1, 0, 20, &out, &warm).ok());
  EXPECT_GT(cold.tia_page_reads, 0u);
  EXPECT_GT(warm.tia_buffer_hits, 0u);
  EXPECT_LT(warm.tia_page_reads, cold.tia_page_reads + 1);
}

/// Every page's bytes, in page-id order.
std::vector<std::vector<std::uint8_t>> PageBytes(PageFile* file) {
  std::vector<std::vector<std::uint8_t>> pages;
  for (PageId id = 0; id < file->num_pages(); ++id) {
    const Page* page = file->ReadPage(id).ValueOrDie();
    pages.emplace_back(page->data(), page->data() + page->size());
  }
  return pages;
}

// An insert or erase that keeps its leaf within capacity and the weak
// version condition writes one entry in place. A fault on the leaf's read
// or on that write fails the update with every page as it was, and the
// same call then succeeds, through one physical write and no new page.
TEST(MvbtTest, InPlaceUpdatesAreAtomicUnderIoFaults) {
  Fixture fx(512, 10);
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(fx.tree.Insert(1, i * 10, i).ok());
  }
  // The descent reads one page per level; the leaf's read is the last.
  fx.pool.Clear();
  AccessStats probe;
  ASSERT_TRUE(fx.tree.Lookup(1, 0, &probe).ok());
  const std::string leaf_read =
      "page_file.read=err@" + std::to_string(probe.tia_page_reads);
  ASSERT_GE(probe.tia_page_reads, 2u) << "the leaf must not be the root";

  fail::FaultInjector& injector = fail::FaultInjector::Global();
  auto expect_atomic = [&](const std::function<Status()>& update) {
    for (const std::string& spec : {std::string("page_file.write=err"),
                                    leaf_read}) {
      SCOPED_TRACE(spec);
      const auto before = PageBytes(&fx.file);
      ASSERT_TRUE(injector.Configure(spec).ok());
      const Status st = update();
      injector.Clear();
      EXPECT_TRUE(st.IsIoError()) << st.ToString();
      EXPECT_EQ(PageBytes(&fx.file), before);
    }
    const std::size_t pages = fx.file.num_pages();
    const std::uint64_t writes = fx.file.physical_writes();
    ASSERT_TRUE(update().ok());
    EXPECT_EQ(fx.file.num_pages(), pages);
    EXPECT_EQ(fx.file.physical_writes(), writes + 1);
  };

  expect_atomic([&] { return fx.tree.Insert(2, 5, 99); });
  EXPECT_EQ(*fx.tree.Lookup(2, 5).ValueOrDie(), 99);
  expect_atomic([&] { return fx.tree.Erase(3, 10); });
  EXPECT_EQ(*fx.tree.Lookup(2, 10).ValueOrDie(), 1);
  EXPECT_FALSE(fx.tree.Lookup(3, 10).ValueOrDie().has_value());
  EXPECT_TRUE(fx.tree.CheckInvariants().ok());
}

// An update's root-to-leaf path has a fixed capacity, so a descent that
// never reaches a leaf — here every router of every internal node points
// back at its own page — stops at the height bound with Corruption and
// writes nothing.
TEST(MvbtTest, RouterCycleIsCorruptionNotAnEndlessDescent) {
  Fixture fx(512, 10);
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(fx.tree.Insert(1, i * 10, i).ok());
  }
  bool internal = false;
  for (PageId id = 0; id < fx.file.num_pages(); ++id) {
    Page* page = fx.file.GetPageForWrite(id).ValueOrDie();
    if (page->ReadAt<std::uint8_t>(0) != 0) continue;  // a leaf
    internal = true;
    const std::uint16_t count = page->ReadAt<std::uint16_t>(2);
    for (std::uint16_t i = 0; i < count; ++i) {
      page->WriteAt<Value>(
          NodeLayout::kHeaderBytes + i * NodeLayout::kEntryBytes + 32, id);
    }
  }
  ASSERT_TRUE(internal) << "the root must not be a leaf";
  const auto before = PageBytes(&fx.file);
  const Status insert = fx.tree.Insert(2, 5, 99);
  EXPECT_TRUE(insert.IsCorruption()) << insert.ToString();
  const Status erase = fx.tree.Erase(2, 10);
  EXPECT_TRUE(erase.IsCorruption()) << erase.ToString();
  EXPECT_EQ(PageBytes(&fx.file), before);
}

// ---------------------------------------------------------------------------
// Property test: random insert/delete workload vs a snapshot oracle.
// ---------------------------------------------------------------------------

struct OracleOp {
  Version v;
  bool is_insert;
  Key key;
  Value value;
};

std::map<Key, Value> OracleAt(const std::vector<OracleOp>& log, Version v) {
  std::map<Key, Value> state;
  for (const OracleOp& op : log) {
    if (op.v > v) break;
    if (op.is_insert) {
      state[op.key] = op.value;
    } else {
      state.erase(op.key);
    }
  }
  return state;
}

class MvbtPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MvbtPropertyTest, MatchesOracleAtEveryVersion) {
  Fixture fx(512, 10);
  Rng rng(GetParam());
  std::vector<OracleOp> log;
  std::map<Key, Value> live;

  Version v = 0;
  const int kOps = 2500;
  for (int i = 0; i < kOps; ++i) {
    if (rng.Uniform() < 0.4) v += rng.UniformInt(1, 3);
    bool do_insert = live.empty() || rng.Uniform() < 0.6;
    if (do_insert) {
      Key k = rng.UniformInt(0, 4000);
      if (live.count(k)) continue;
      Value val = rng.UniformInt(0, 1'000'000);
      ASSERT_TRUE(fx.tree.Insert(v, k, val).ok()) << "op " << i;
      live[k] = val;
      log.push_back({v, true, k, val});
    } else {
      auto it = live.begin();
      std::advance(it, rng.UniformInt(0, (std::int64_t)live.size() - 1));
      ASSERT_TRUE(fx.tree.Erase(v, it->first).ok()) << "op " << i;
      log.push_back({v, false, it->first, 0});
      live.erase(it);
    }
  }

  ASSERT_TRUE(fx.tree.CheckInvariants().ok());

  // Compare full range scans against the oracle at sampled versions.
  std::vector<Version> sample = {0, 1, v / 4, v / 2, (3 * v) / 4, v - 1, v};
  for (int i = 0; i < 12; ++i) sample.push_back(rng.UniformInt(0, v));
  for (Version q : sample) {
    if (q < 0) continue;
    std::map<Key, Value> expected = OracleAt(log, q);
    std::vector<std::pair<Key, Value>> got;
    ASSERT_TRUE(fx.tree.RangeScan(q, kKeyMin, kKeyMax - 1, &got).ok());
    ASSERT_EQ(got.size(), expected.size()) << "version " << q;
    std::size_t i = 0;
    for (const auto& [k, val] : expected) {
      EXPECT_EQ(got[i].first, k) << "version " << q;
      EXPECT_EQ(got[i].second, val) << "version " << q;
      ++i;
    }
    // Spot-check point lookups, present and absent.
    for (int j = 0; j < 20; ++j) {
      Key k = rng.UniformInt(0, 4000);
      auto res = fx.tree.Lookup(q, k);
      ASSERT_TRUE(res.ok());
      auto it = expected.find(k);
      if (it == expected.end()) {
        EXPECT_FALSE(res.ValueOrDie().has_value()) << "v=" << q << " k=" << k;
      } else {
        ASSERT_TRUE(res.ValueOrDie().has_value()) << "v=" << q << " k=" << k;
        EXPECT_EQ(*res.ValueOrDie(), it->second);
      }
    }
    // Sub-range scans agree with the oracle too.
    Key lo = rng.UniformInt(0, 2000);
    Key hi = lo + rng.UniformInt(0, 2000);
    ASSERT_TRUE(fx.tree.RangeScan(q, lo, hi, &got).ok());
    std::size_t expected_count = 0;
    for (const auto& [k, val] : expected) {
      expected_count += (k >= lo && k <= hi);
    }
    EXPECT_EQ(got.size(), expected_count) << "v=" << q << " range scan";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MvbtPropertyTest,
                         ::testing::Values(1, 2, 3, 7, 13, 42, 99, 1234));

TEST(MvbtTest, PureInsertWorkloadKeepsInvariants) {
  Fixture fx(512, 10);
  Rng rng(4);
  Version v = 0;
  for (int i = 0; i < 3000; ++i) {
    if (i % 5 == 0) ++v;
    // Unique keys via shuffled dense range.
    ASSERT_TRUE(fx.tree.Insert(v, (i * 2654435761u) % 100000, i).ok());
  }
  EXPECT_TRUE(fx.tree.CheckInvariants().ok());
  auto count = fx.tree.CountAlive(v);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count.ValueOrDie(), 3000u);
}

// The live-root cache follows every root change: growing a tree from a
// leaf root through several key splits, shrinking it by erasures until
// the root collapses back to a leaf, and growing it again. CheckInvariants
// (which compares the cache with the root directory and the root page)
// holds after every update, and reads at the latest version agree with an
// oracle.
TEST(MvbtTest, LiveRootCacheFollowsRootSplitsAndMerges) {
  Fixture fx(512, 10);
  Rng rng(5);
  std::map<Key, Value> live;
  Version v = 0;
  std::set<PageId> roots;
  int leaf_to_internal = 0;
  int internal_to_leaf = 0;
  auto step = [&](bool grow) {
    ++v;
    if (grow || live.empty()) {
      Key k = rng.UniformInt(0, 100000);
      while (live.count(k) != 0) k = rng.UniformInt(0, 100000);
      ASSERT_TRUE(fx.tree.Insert(v, k, k * 3).ok());
      live[k] = k * 3;
    } else {
      auto it = live.begin();
      std::advance(it, rng.UniformInt(0, (std::int64_t)live.size() - 1));
      ASSERT_TRUE(fx.tree.Erase(v, it->first).ok());
      live.erase(it);
    }
    const Status st = fx.tree.CheckInvariants();
    ASSERT_TRUE(st.ok()) << "version " << v << ": " << st.ToString();
  };
  for (int round = 0; round < 2; ++round) {
    for (int i = 0; i < 400; ++i) {
      const bool was_leaf = MvbtTestPeer::LiveIsLeaf(fx.tree);
      ASSERT_NO_FATAL_FAILURE(step(/*grow=*/rng.Uniform() < 0.85));
      leaf_to_internal += was_leaf && !MvbtTestPeer::LiveIsLeaf(fx.tree);
      roots.insert(MvbtTestPeer::LivePage(fx.tree));
    }
    while (live.size() > 3) {
      const bool was_leaf = MvbtTestPeer::LiveIsLeaf(fx.tree);
      ASSERT_NO_FATAL_FAILURE(step(/*grow=*/rng.Uniform() < 0.1));
      internal_to_leaf += !was_leaf && MvbtTestPeer::LiveIsLeaf(fx.tree);
      roots.insert(MvbtTestPeer::LivePage(fx.tree));
    }
    std::vector<std::pair<Key, Value>> got;
    ASSERT_TRUE(fx.tree.RangeScanCurrent(kKeyMin, kKeyMax, &got).ok());
    const std::vector<std::pair<Key, Value>> want(live.begin(), live.end());
    EXPECT_EQ(got, want);
    for (const auto& [k, val] : live) {
      EXPECT_EQ(fx.tree.Lookup(v, k).ValueOrDie(), std::optional<Value>(val));
    }
  }
  EXPECT_GE(leaf_to_internal, 2) << "each round splits the leaf root";
  EXPECT_GE(internal_to_leaf, 2) << "each round collapses back to a leaf";
  EXPECT_GT(roots.size(), 10u) << "root splits and merges move the root";
}

// A cache that disagrees with the root directory or with the root page —
// its page id, byte address or leaf flag — is Corruption.
TEST(MvbtTest, StaleLiveRootIsCorruption) {
  Fixture fx(512, 10);
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(fx.tree.Insert(1 + i / 4, i * 10, i).ok());
  }
  ASSERT_TRUE(fx.tree.CheckInvariants().ok());
  const PageId page = MvbtTestPeer::LivePage(fx.tree);
  const bool is_leaf = MvbtTestPeer::LiveIsLeaf(fx.tree);
  const std::uint8_t* bytes = MvbtTestPeer::LiveBytes(fx.tree);
  ASSERT_FALSE(is_leaf);
  ASSERT_EQ(bytes, fx.file.ReadPage(page).ValueOrDie()->data());
  const PageId other = page == 0 ? 1 : 0;
  const std::uint8_t* other_bytes =
      fx.file.ReadPage(other).ValueOrDie()->data();
  using Cache = std::tuple<PageId, bool, const std::uint8_t*>;
  const std::vector<Cache> stale = {
      {other, is_leaf, other_bytes},
      {kInvalidPageId, true, nullptr},
      {page, is_leaf, other_bytes},
      {page, !is_leaf, bytes},
  };
  for (const auto& [p, leaf, b] : stale) {
    MvbtTestPeer::SetLiveRoot(&fx.tree, p, leaf, b);
    const Status st = fx.tree.CheckInvariants();
    EXPECT_TRUE(st.IsCorruption()) << st.ToString();
    EXPECT_NE(st.ToString().find("stale cached live root"),
              std::string::npos)
        << st.ToString();
  }
  MvbtTestPeer::SetLiveRoot(&fx.tree, page, is_leaf, bytes);
  EXPECT_TRUE(fx.tree.CheckInvariants().ok());
}

}  // namespace
}  // namespace tar::mvbt
