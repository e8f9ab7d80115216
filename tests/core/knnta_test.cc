// Query-processing specifics: access accounting, the max-aggregate
// normalizer search, context construction and determinism.
#include <gtest/gtest.h>

#include <cstring>

#include "common/random.h"
#include "core/query_audit.h"
#include "core/tar_tree.h"

namespace tar {
namespace {

constexpr Timestamp kEpochLen = 7 * kSecondsPerDay;

struct Fixture {
  explicit Fixture(std::uint64_t seed, std::size_t n = 500,
                   std::int64_t epochs = 25)
      : rng(seed), num_epochs(epochs) {
    TarTreeOptions opt;
    opt.strategy = GroupingStrategy::kIntegral3D;
    opt.node_size_bytes = 512;
    opt.grid = EpochGrid(0, kEpochLen);
    opt.space = Box2::Union(Box2::FromPoint({0, 0}),
                            Box2::FromPoint({100, 100}));
    tree = std::make_unique<TarTree>(opt);
    histories.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      Poi p{static_cast<PoiId>(i),
            {rng.Uniform(0, 100), rng.Uniform(0, 100)}};
      histories[i].assign(epochs, 0);
      std::int64_t total =
          static_cast<std::int64_t>(std::pow(10.0, rng.Uniform(0.0, 2.2)));
      for (std::int64_t c = 0; c < total; ++c) {
        ++histories[i][rng.UniformInt(0, epochs - 1)];
      }
      EXPECT_TRUE(tree->InsertPoi(p, histories[i]).ok());
    }
  }

  Rng rng;
  std::unique_ptr<TarTree> tree;
  std::int64_t num_epochs;
  std::vector<std::vector<std::int32_t>> histories;
};

TEST(MaxAggregateTest, MatchesBruteForceOverRandomIntervals) {
  Fixture fx(3);
  for (int trial = 0; trial < 30; ++trial) {
    std::int64_t e0 = fx.rng.UniformInt(0, fx.num_epochs - 1);
    std::int64_t e1 = fx.rng.UniformInt(e0, fx.num_epochs - 1);
    TimeInterval iq{e0 * kEpochLen, (e1 + 1) * kEpochLen - 1};
    std::int64_t brute = 0;
    for (const auto& hist : fx.histories) {
      std::int64_t agg = 0;
      for (std::int64_t e = e0; e <= e1; ++e) agg += hist[e];
      brute = std::max(brute, agg);
    }
    AccessStats stats;
    EXPECT_EQ(fx.tree->MaxAggregate(iq, &stats).ValueOrDie(), brute)
        << "epochs [" << e0 << "," << e1 << "]";
    EXPECT_GT(stats.rtree_node_reads, 0u);
  }
}

TEST(MaxAggregateTest, EmptyTreeAndEmptyInterval) {
  TarTreeOptions opt;
  opt.grid = EpochGrid(0, kEpochLen);
  TarTree empty(opt);
  EXPECT_EQ(empty.MaxAggregate({0, 100}).ValueOrDie(), 0);

  Fixture fx(5, /*n=*/50, /*epochs=*/10);
  // An interval beyond every check-in: no POI has a non-zero aggregate.
  TimeInterval beyond{100 * kEpochLen, 200 * kEpochLen};
  EXPECT_EQ(fx.tree->MaxAggregate(beyond).ValueOrDie(), 0);
}

TEST(MakeContextTest, NormalizersAreExact) {
  Fixture fx(7);
  KnntaQuery q{{50, 50}, {0, fx.num_epochs * kEpochLen - 1}, 10, 0.3};
  TarTree::QueryContext ctx = fx.tree->MakeContext(q).ValueOrDie();
  // dmax = diagonal of the 100x100 space.
  EXPECT_NEAR(ctx.dmax, std::sqrt(2.0) * 100.0, 1e-9);
  // gmax over the whole history = the largest total.
  std::int64_t top = 0;
  for (const auto& h : fx.histories) {
    std::int64_t t = 0;
    for (auto c : h) t += c;
    top = std::max(top, t);
  }
  EXPECT_DOUBLE_EQ(ctx.gmax, static_cast<double>(top));
  EXPECT_DOUBLE_EQ(ctx.alpha1, 0.7);
  // The interval is aligned outward to epoch boundaries.
  KnntaQuery mid = q;
  mid.interval = {kEpochLen + 5, 2 * kEpochLen + 5};
  ctx = fx.tree->MakeContext(mid).ValueOrDie();
  EXPECT_EQ(ctx.interval.start, kEpochLen);
  EXPECT_EQ(ctx.interval.end, 3 * kEpochLen - 1);
}

TEST(QueryStatsTest, AccountingIsCoherent) {
  Fixture fx(11);
  KnntaQuery q{{30, 60}, {0, fx.num_epochs * kEpochLen - 1}, 10, 0.3};
  AccessStats stats;
  std::vector<KnntaResult> results;
  ASSERT_TRUE(fx.tree->Query(q, &results, &stats).ok());
  EXPECT_GE(stats.rtree_node_reads, stats.rtree_leaf_reads);
  EXPECT_GT(stats.rtree_node_reads, 0u);
  EXPECT_GT(stats.entries_scanned, 0u);
  EXPECT_EQ(stats.NodeAccesses(),
            stats.rtree_node_reads + stats.tia_page_reads);
  // Aggregate calls: one per scanned entry plus the normalizer search.
  EXPECT_GE(stats.aggregate_calls, stats.entries_scanned);
}

TEST(QueryStatsTest, AccessesGrowWithK) {
  Fixture fx(13);
  std::uint64_t prev = 0;
  for (std::size_t k : {1u, 10u, 100u}) {
    KnntaQuery q{{30, 60}, {0, fx.num_epochs * kEpochLen - 1}, k, 0.3};
    AccessStats stats;
    std::vector<KnntaResult> results;
    ASSERT_TRUE(fx.tree->Query(q, &results, &stats).ok());
    EXPECT_GE(stats.NodeAccesses(), prev);
    prev = stats.NodeAccesses();
  }
}

TEST(QueryDeterminismTest, RepeatedQueriesIdentical) {
  Fixture fx(17);
  KnntaQuery q{{12, 88}, {3 * kEpochLen, 9 * kEpochLen}, 15, 0.42};
  std::vector<KnntaResult> a, b;
  ASSERT_TRUE(fx.tree->Query(q, &a).ok());
  ASSERT_TRUE(fx.tree->Query(q, &b).ok());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].poi, b[i].poi);
    EXPECT_DOUBLE_EQ(a[i].score, b[i].score);
  }
}

TEST(QueryIntervalTest, DisjointIntervalFallsBackToDistance) {
  // With no check-ins in the interval, every POI has aggregate 0 and the
  // winner is simply the nearest POI.
  Fixture fx(19, /*n=*/100, /*epochs=*/10);
  KnntaQuery q{{50, 50}, {100 * kEpochLen, 101 * kEpochLen}, 1, 0.3};
  std::vector<KnntaResult> results;
  ASSERT_TRUE(fx.tree->Query(q, &results).ok());
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].aggregate, 0);
  // Verify it is the spatially nearest by brute force.
  double best = 1e18;
  for (std::size_t i = 0; i < 100; ++i) {
    KnntaQuery probe = q;
    probe.k = 100;
    std::vector<KnntaResult> all;
    ASSERT_TRUE(fx.tree->Query(probe, &all).ok());
    for (const auto& r : all) best = std::min(best, r.dist);
    break;
  }
  EXPECT_DOUBLE_EQ(results[0].dist, best);
}

TEST(QueryAlphaTest, ExtremeWeightsShiftTheWinnerType) {
  Fixture fx(23);
  TimeInterval whole{0, fx.num_epochs * kEpochLen - 1};
  // alpha0 -> 1: the winner is (near-)nearest; alpha0 -> 0: the winner is
  // (near-)most-popular.
  KnntaQuery near_q{{50, 50}, whole, 1, 0.999};
  KnntaQuery pop_q{{50, 50}, whole, 1, 0.001};
  std::vector<KnntaResult> near_r, pop_r, all;
  ASSERT_TRUE(fx.tree->Query(near_q, &near_r).ok());
  ASSERT_TRUE(fx.tree->Query(pop_q, &pop_r).ok());
  KnntaQuery every{{50, 50}, whole, 500, 0.5};
  ASSERT_TRUE(fx.tree->Query(every, &all).ok());
  double min_dist = 1e18;
  std::int64_t max_agg = 0;
  for (const auto& r : all) {
    min_dist = std::min(min_dist, r.dist);
    max_agg = std::max(max_agg, r.aggregate);
  }
  EXPECT_DOUBLE_EQ(near_r[0].dist, min_dist);
  EXPECT_EQ(pop_r[0].aggregate, max_agg);
}

/// Counts audit-hook traffic without verifying it (the verifying sink
/// lives in the analysis layer; this checks the engine emits at all).
class CountingSink : public QueryAuditSink {
 public:
  void BeginQuery(const void*, const char*,
                  const TarTree::QueryContext&) override {
    ++begins;
  }
  void RecordPrune(const PruneCertificate& cert) override {
    ++certs;
    if (cert.kind == PruneCertificate::Kind::kBound) ++bound_certs;
  }
  void EndQuery(const void*) override { ++ends; }

  int begins = 0;
  int ends = 0;
  int certs = 0;
  int bound_certs = 0;
};

// A forest search keeps popping while the queue top ties the kth score.
// Tree B's item is bounded by exactly its one POI's score (min_s0 is that
// POI's own distance term), which ties tree A's POI: A's POI is the kth
// popped, yet the answer is B's, which ranks first by (score, poi_id) —
// as in one tree holding both.
TEST(ForestQueryTest, ResolvesKthScoreTiesBehindATightTreeBound) {
  TarTreeOptions opt;
  opt.grid = EpochGrid(0, kEpochLen);
  opt.space =
      Box2::Union(Box2::FromPoint({0, 0}), Box2::FromPoint({100, 100}));
  const std::vector<std::int32_t> history = {3, 5, 2};
  // Mirror positions around the query point: bit-identical scores.
  const Poi a{2, {30.0, 30.0}};
  const Poi b{1, {70.0, 70.0}};
  TarTree tree_a(opt);
  TarTree tree_b(opt);
  TarTree both(opt);
  ASSERT_TRUE(tree_a.InsertPoi(a, history).ok());
  ASSERT_TRUE(tree_b.InsertPoi(b, history).ok());
  ASSERT_TRUE(both.InsertPoi(a, history).ok());
  ASSERT_TRUE(both.InsertPoi(b, history).ok());

  KnntaQuery q;
  q.point = {50.0, 50.0};
  q.interval = {0, 3 * kEpochLen - 1};
  q.k = 1;
  q.alpha0 = 0.5;
  std::vector<KnntaResult> want;
  ASSERT_TRUE(both.Query(q, &want).ok());
  ASSERT_EQ(want.size(), 1u);
  ASSERT_EQ(want[0].poi, b.id);

  const TarTree::QueryContext ctx = both.MakeContext(q).ValueOrDie();
  std::vector<TarTree::ForestTree> forest(2);
  forest[0].tree = &tree_a;
  forest[0].agg_bound = tree_a.global_tia().total();
  forest[1].tree = &tree_b;
  forest[1].min_s0 = MinDistToBox(q.point, PointBox(b.pos, 0.0)) / ctx.dmax;
  forest[1].agg_bound = tree_b.global_tia().total();
  std::vector<KnntaResult> got;
  ASSERT_TRUE(
      TarTree::ForestQuery(q, ctx, forest, &got, nullptr, nullptr, nullptr)
          .ok());
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].poi, b.id);
  EXPECT_EQ(std::memcmp(&got[0].score, &want[0].score, sizeof(double)), 0);
  EXPECT_TRUE(forest[0].read);
  EXPECT_TRUE(forest[1].read);
}

TEST(QueryAuditHookTest, BestFirstSearchEmitsCertificates) {
  Fixture fx(41);
  CountingSink sink;
  {
    ScopedQueryAudit scope(&sink);
    KnntaQuery q{{50, 50}, {0, 25 * kEpochLen - 1}, 5, 0.4};
    std::vector<KnntaResult> results;
    ASSERT_TRUE(fx.tree->Query(q, &results).ok());
    ASSERT_EQ(results.size(), q.k);
  }
#ifdef TAR_QUERY_AUDIT
  EXPECT_EQ(sink.begins, 1);
  EXPECT_EQ(sink.ends, 1);
  // k = 5 over 500 POIs: the search must discard queue entries when it
  // stops, and every one of them owes a certificate.
  EXPECT_GT(sink.bound_certs, 0);
#else
  EXPECT_EQ(sink.begins, 0);
  EXPECT_EQ(sink.ends, 0);
  EXPECT_EQ(sink.certs, 0);
#endif
}

// Tia::Prefetch (which both best-first loops call on the next entry) is a
// cache hint: it fetches nothing through the pool and reads nothing from
// the file. Hinting every TIA of a tree moves no counter and no LRU frame,
// so the queries that follow cost exactly what they cost on an identical
// tree that was never hinted.
TEST(PrefetchHintTest, HintsChargeNothingAndMoveNoFrame) {
  Fixture hinted(21);
  Fixture plain(21);
  const BufferPool& pool = *hinted.tree->tia_buffer_pool();
  const PageFile& file = *pool.file();
  const BufferPool::CounterSnapshot before = pool.Snapshot();
  const std::uint64_t reads = file.physical_reads();
  const std::uint64_t writes = file.physical_writes();
  std::size_t tias = 0;
  std::vector<TarTree::NodeId> stack{hinted.tree->root()};
  while (!stack.empty()) {
    const TarTree::Node& node = hinted.tree->node(stack.back());
    stack.pop_back();
    for (const TarTree::Entry& e : node.entries) {
      e.tia->Prefetch();
      ++tias;
      if (!node.is_leaf()) stack.push_back(e.child);
    }
  }
  hinted.tree->global_tia().Prefetch();
  ASSERT_GT(tias, 500u);
  EXPECT_EQ(pool.Snapshot().hits, before.hits);
  EXPECT_EQ(pool.Snapshot().misses, before.misses);
  EXPECT_EQ(file.physical_reads(), reads);
  EXPECT_EQ(file.physical_writes(), writes);

  for (int i = 0; i < 20; ++i) {
    const std::int64_t e0 = hinted.rng.UniformInt(0, hinted.num_epochs - 1);
    const std::int64_t e1 = hinted.rng.UniformInt(e0, hinted.num_epochs - 1);
    KnntaQuery q;
    q.point = {hinted.rng.Uniform(0, 100), hinted.rng.Uniform(0, 100)};
    q.interval = {e0 * kEpochLen, (e1 + 1) * kEpochLen - 1};
    q.k = 5;
    std::vector<KnntaResult> got;
    std::vector<KnntaResult> want;
    AccessStats got_stats;
    AccessStats want_stats;
    ASSERT_TRUE(hinted.tree->Query(q, &got, &got_stats).ok());
    ASSERT_TRUE(plain.tree->Query(q, &want, &want_stats).ok());
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t j = 0; j < got.size(); ++j) {
      EXPECT_EQ(got[j].poi, want[j].poi);
    }
    EXPECT_EQ(got_stats.ToString(), want_stats.ToString()) << "query " << i;
  }
  const BufferPool& plain_pool = *plain.tree->tia_buffer_pool();
  EXPECT_EQ(pool.hits(), plain_pool.hits());
  EXPECT_EQ(pool.misses(), plain_pool.misses());
  EXPECT_EQ(file.physical_reads(), plain_pool.file()->physical_reads());
}

}  // namespace
}  // namespace tar
