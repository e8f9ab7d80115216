// Sharded store: grid routing, all-or-nothing cross-shard batches, and
// the ranking contract — the forest search answers every query
// bit-identically to one unsharded tree, including duplicate-score ties
// straddling shard boundaries (per-shard normalizers would make scores
// from different shards incomparable) — plus its fault containment: a
// shard the search never reads is never blamed, and a shard whose reads
// fail mid-search drops out of a partial answer.
#include "core/sharded_store.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <thread>

#include <gtest/gtest.h>

#include "common/failpoint.h"
#include "core/tar_tree.h"

namespace tar {
namespace {

constexpr Timestamp kEpochLen = 7 * kSecondsPerDay;

TarTreeOptions TreeOptions() {
  TarTreeOptions opt;
  opt.node_size_bytes = 512;
  opt.grid = EpochGrid(0, kEpochLen);
  opt.space =
      Box2::Union(Box2::FromPoint({0, 0}), Box2::FromPoint({100, 100}));
  return opt;
}

ShardedStoreOptions StoreOptions(std::size_t shards) {
  ShardedStoreOptions opt;
  opt.num_shards = shards;
  opt.tree = TreeOptions();
  return opt;
}

std::unique_ptr<ShardedStore> OpenStore(std::size_t shards) {
  auto opened = ShardedStore::Open(StoreOptions(shards));
  EXPECT_TRUE(opened.ok()) << opened.status().ToString();
  return std::move(opened).ValueOrDie();
}

std::vector<std::int32_t> MakeHistory(PoiId id, int epochs) {
  std::vector<std::int32_t> h(epochs);
  for (int e = 0; e < epochs; ++e) {
    h[e] = static_cast<std::int32_t>((id * 7 + e * 3) % 20 + 1);
  }
  return h;
}

/// A fixture whose POIs include mirror pairs around the space center:
/// equal distance from (50, 50) and identical histories, so their scores
/// are bit-identical while a 2x2 (or finer) grid routes them to
/// different shards. The merged ranking must break these ties by poi_id
/// exactly like the unsharded tree does.
struct Fixture {
  std::vector<Poi> pois;
  std::vector<std::vector<std::int32_t>> histories;
};

Fixture MakeFixture() {
  Fixture f;
  PoiId next = 1;
  // Four mirror pairs: same center distance, same history -> same score.
  const double mirrors[][4] = {{30, 30, 70, 70},
                               {30, 70, 70, 30},
                               {20, 50, 80, 50},
                               {50, 15, 50, 85}};
  for (const double* m : mirrors) {
    const std::vector<std::int32_t> shared = MakeHistory(next, 6);
    f.pois.push_back(Poi{next, {m[0], m[1]}});
    f.histories.push_back(shared);
    ++next;
    f.pois.push_back(Poi{next, {m[2], m[3]}});
    f.histories.push_back(shared);
    ++next;
  }
  // Background population scattered over all quadrants.
  for (int i = 0; i < 40; ++i) {
    Poi p{next, {static_cast<double>((i * 37 + 11) % 100),
                 static_cast<double>((i * 61 + 29) % 100)}};
    f.pois.push_back(p);
    f.histories.push_back(MakeHistory(next, 6));
    ++next;
  }
  return f;
}

std::vector<KnntaQuery> ProbeQueries() {
  std::vector<KnntaQuery> queries;
  // The center query sees every mirror pair as an exact tie.
  for (double alpha0 : {0.3, 0.5, 0.7}) {
    KnntaQuery q;
    q.point = {50.0, 50.0};
    q.interval = {0, 6 * kEpochLen - 1};
    q.k = 20;
    q.alpha0 = alpha0;
    queries.push_back(q);
  }
  // Off-center and sub-interval probes.
  for (int i = 0; i < 8; ++i) {
    KnntaQuery q;
    q.point = {static_cast<double>((i * 31) % 100),
               static_cast<double>((i * 17) % 100)};
    const std::int64_t first = i % 4;
    q.interval = {first * kEpochLen, (first + 2) * kEpochLen - 1};
    q.k = 1 + i;
    q.alpha0 = 0.2 + 0.1 * (i % 6);
    queries.push_back(q);
  }
  return queries;
}

void ExpectBitIdentical(const std::vector<KnntaResult>& got,
                        const std::vector<KnntaResult>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].poi, want[i].poi) << "rank " << i;
    EXPECT_EQ(std::memcmp(&got[i].score, &want[i].score, sizeof(double)), 0)
        << "rank " << i;
    EXPECT_EQ(std::memcmp(&got[i].dist, &want[i].dist, sizeof(double)), 0)
        << "rank " << i;
    EXPECT_EQ(got[i].aggregate, want[i].aggregate) << "rank " << i;
  }
}

TEST(ShardedStoreTest, MergedRankingMatchesUnshardedTreeBitExactly) {
  const Fixture f = MakeFixture();
  TarTree reference(TreeOptions());
  for (std::size_t i = 0; i < f.pois.size(); ++i) {
    ASSERT_TRUE(reference.InsertPoi(f.pois[i], f.histories[i]).ok());
  }

  for (std::size_t shards : {1u, 2u, 3u, 4u, 6u, 9u, 16u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    std::unique_ptr<ShardedStore> store = OpenStore(shards);
    for (std::size_t i = 0; i < f.pois.size(); ++i) {
      ASSERT_TRUE(store->InsertPoi(f.pois[i], f.histories[i]).ok());
    }
    ASSERT_EQ(store->num_pois(), f.pois.size());

    for (const KnntaQuery& q : ProbeQueries()) {
      std::vector<KnntaResult> want;
      std::vector<KnntaResult> got;
      ASSERT_TRUE(reference.Query(q, &want).ok());
      ASSERT_TRUE(store->Query(q, &got).ok());
      ExpectBitIdentical(got, want);
    }
  }
}

/// The total of the armed failpoint's counted hits for `site`.
std::uint64_t FailpointHits(const std::string& site) {
  std::uint64_t hits = 0;
  for (const fail::SiteReport& r : fail::FaultInjector::Global().Snapshot()) {
    if (r.site == site) hits += r.hits;
  }
  return hits;
}

/// POIs in a 2x2 grid over [0,100]^2 (shard = cy * 2 + cx): `per_epoch`
/// check-ins in each of 6 epochs for POIs `first`..`first + n - 1` placed
/// along a short diagonal from `at`.
void AddCluster(std::vector<Poi>* pois,
                std::vector<std::vector<std::int32_t>>* histories,
                PoiId first, int n, Vec2 at, std::int32_t per_epoch) {
  for (int i = 0; i < n; ++i) {
    pois->push_back(Poi{first + static_cast<PoiId>(i),
                        {at.x + 2.0 * i, at.y + 1.5 * i}});
    histories->push_back(
        std::vector<std::int32_t>(6, per_epoch - static_cast<int>(i % 2)));
  }
}

// A shard whose seed bound cannot compete is never read: with every page
// fetch of far shard 3 failing, a query near shard 0 succeeds, the shard
// stays HEALTHY, and the failpoint never sees a hit. Its gmax item (the
// shard's global-TIA total) stays below the answer's gmax, and its top-k
// item (cell distance plus that total) stays above the kth score.
TEST(ShardedStoreTest, FarShardIsNeverReadByAQueryItsBoundCannotReach) {
  fail::FaultInjector& injector = fail::FaultInjector::Global();
  injector.Clear();
  std::vector<Poi> pois;
  std::vector<std::vector<std::int32_t>> histories;
  AddCluster(&pois, &histories, 1, 6, {5, 5}, 20);     // shard 0, hot
  AddCluster(&pois, &histories, 11, 4, {60, 10}, 5);   // shard 1
  AddCluster(&pois, &histories, 21, 4, {10, 60}, 5);   // shard 2
  AddCluster(&pois, &histories, 31, 3, {80, 80}, 1);   // shard 3, far, cold
  std::unique_ptr<ShardedStore> store = OpenStore(4);
  TarTree reference(TreeOptions());
  for (std::size_t i = 0; i < pois.size(); ++i) {
    ASSERT_TRUE(store->InsertPoi(pois[i], histories[i]).ok());
    ASSERT_TRUE(reference.InsertPoi(pois[i], histories[i]).ok());
  }
  ASSERT_EQ(store->ShardOf({80, 80}), 3u);

  KnntaQuery q;
  q.point = {5.0, 5.0};
  q.interval = {0, 6 * kEpochLen - 1};
  q.k = 3;
  q.alpha0 = 0.5;
  ASSERT_TRUE(injector.Configure("buffer_pool.fetch=err@shard:3").ok());
  std::vector<KnntaResult> got;
  std::vector<KnntaResult> want;
  ASSERT_TRUE(store->Query(q, &got).ok());
  EXPECT_EQ(FailpointHits("buffer_pool.fetch"), 0u);
  EXPECT_EQ(store->shard_health(3), ShardHealth::kHealthy);
  EXPECT_EQ(store->fault_stats().read_retries, 0u);
  ASSERT_TRUE(reference.Query(q, &want).ok());
  ExpectBitIdentical(got, want);

  // The failpoint is live: a query the far shard's bound does reach
  // reads it, fails naming it, and strikes it.
  q.point = {85.0, 85.0};
  q.alpha0 = 0.9;
  const Status st = store->Query(q, &got);
  EXPECT_GT(FailpointHits("buffer_pool.fetch"), 0u);
  injector.Clear();
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("shard 3"), std::string::npos)
      << st.ToString();
  EXPECT_EQ(store->shard_health(3), ShardHealth::kSuspect);

  // Only a read clears SUSPECT: the near query, which never reads shard
  // 3, leaves it suspect; the far query reads it and clears it.
  q.point = {5.0, 5.0};
  q.alpha0 = 0.5;
  ASSERT_TRUE(store->Query(q, &got).ok());
  EXPECT_EQ(store->shard_health(3), ShardHealth::kSuspect);
  q.point = {85.0, 85.0};
  q.alpha0 = 0.9;
  ASSERT_TRUE(store->Query(q, &got).ok());
  EXPECT_EQ(store->shard_health(3), ShardHealth::kHealthy);
}

// Partial mode: a shard whose reads fail once the search is under way
// (shard 1 stays out of the gmax pass and fails when the top-k pass
// reaches it) is dropped after its retries, and the search reruns
// without it. The answer is bit-identical to one tree over the other
// shards' POIs, and the coverage names the dropped shard.
TEST(ShardedStoreTest, PartialModeDropsAShardWhoseReadsFailMidSearch) {
  fail::FaultInjector& injector = fail::FaultInjector::Global();
  injector.Clear();
  std::vector<Poi> pois;
  std::vector<std::vector<std::int32_t>> histories;
  AddCluster(&pois, &histories, 1, 6, {10, 10}, 15);   // shard 0, hot
  AddCluster(&pois, &histories, 11, 3, {70, 20}, 1);   // shard 1, victim
  AddCluster(&pois, &histories, 21, 4, {10, 60}, 5);   // shard 2
  AddCluster(&pois, &histories, 31, 4, {60, 60}, 5);   // shard 3
  ShardedStoreOptions opt = StoreOptions(4);
  opt.fault.retry_backoff_ms = 0.1;
  auto opened = ShardedStore::Open(opt);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  std::unique_ptr<ShardedStore> store = std::move(opened).ValueOrDie();
  TarTree survivors(TreeOptions());
  for (std::size_t i = 0; i < pois.size(); ++i) {
    ASSERT_TRUE(store->InsertPoi(pois[i], histories[i]).ok());
    if (store->ShardOf(pois[i].pos) != 1) {
      ASSERT_TRUE(survivors.InsertPoi(pois[i], histories[i]).ok());
    }
  }
  ASSERT_EQ(store->ShardOf({70, 20}), 1u);

  KnntaQuery q;
  q.point = {71.0, 21.0};
  q.interval = {0, 6 * kEpochLen - 1};
  q.k = 4;
  q.alpha0 = 0.9;
  ASSERT_TRUE(injector.Configure("buffer_pool.fetch=err@shard:1").ok());
  std::vector<KnntaResult> got;
  ShardCoverage coverage;
  const Status st = store->Query(q, &got, nullptr, nullptr, &coverage);
  injector.Clear();
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_FALSE(coverage.complete);
  ASSERT_EQ(coverage.missing.size(), 1u);
  EXPECT_EQ(coverage.missing[0], 1u);
  EXPECT_TRUE(coverage.cause.IsIoError()) << coverage.cause.ToString();
  EXPECT_LT(coverage.score_bound, std::numeric_limits<double>::infinity());
  EXPECT_EQ(store->fault_stats().read_retries,
            static_cast<std::uint64_t>(opt.fault.read_retries));
  EXPECT_EQ(store->shard_health(1), ShardHealth::kSuspect);
  std::vector<KnntaResult> want;
  ASSERT_TRUE(survivors.Query(q, &want).ok());
  ExpectBitIdentical(got, want);
}

TEST(ShardedStoreTest, CrossShardTieBreaksByPoiIdInTheMergedRanking) {
  const Fixture f = MakeFixture();
  std::unique_ptr<ShardedStore> store = OpenStore(4);
  for (std::size_t i = 0; i < f.pois.size(); ++i) {
    ASSERT_TRUE(store->InsertPoi(f.pois[i], f.histories[i]).ok());
  }
  // The mirror pairs straddle shards by construction.
  ASSERT_NE(store->ShardOf({30, 30}), store->ShardOf({70, 70}));

  KnntaQuery q;
  q.point = {50.0, 50.0};
  q.interval = {0, 6 * kEpochLen - 1};
  q.k = f.pois.size();
  q.alpha0 = 0.4;
  std::vector<KnntaResult> results;
  ASSERT_TRUE(store->Query(q, &results).ok());
  ASSERT_EQ(results.size(), f.pois.size());

  // Each mirror pair (2i-1, 2i) is an exact score tie; the merged
  // ranking must place them adjacently in ascending poi_id order.
  for (PoiId lo = 1; lo <= 8; lo += 2) {
    std::size_t lo_at = results.size();
    std::size_t hi_at = results.size();
    for (std::size_t i = 0; i < results.size(); ++i) {
      if (results[i].poi == lo) lo_at = i;
      if (results[i].poi == lo + 1) hi_at = i;
    }
    ASSERT_LT(lo_at, results.size());
    ASSERT_LT(hi_at, results.size());
    EXPECT_EQ(std::memcmp(&results[lo_at].score, &results[hi_at].score,
                          sizeof(double)),
              0)
        << "pair " << lo;
    EXPECT_EQ(hi_at, lo_at + 1) << "tie not broken by poi_id, pair " << lo;
  }
}

TEST(ShardedStoreTest, ServesQueriesWithEmptyAndMissingShards) {
  // All POIs in one quadrant: three of the four shards stay empty.
  std::unique_ptr<ShardedStore> store = OpenStore(4);
  for (PoiId id = 1; id <= 5; ++id) {
    Poi p{id, {5.0 + id, 5.0 + id}};
    ASSERT_TRUE(store->InsertPoi(p, MakeHistory(id, 3)).ok());
  }
  KnntaQuery q;
  q.point = {90.0, 90.0};  // lands in an empty shard
  q.interval = {0, 3 * kEpochLen - 1};
  q.k = 10;  // more than the store holds
  q.alpha0 = 0.3;
  std::vector<KnntaResult> results;
  ASSERT_TRUE(store->Query(q, &results).ok());
  EXPECT_EQ(results.size(), 5u);

  // A fully empty store answers with an empty result, not an error.
  std::unique_ptr<ShardedStore> empty = OpenStore(4);
  ASSERT_TRUE(empty->Query(q, &results).ok());
  EXPECT_TRUE(results.empty());
}

TEST(ShardedStoreTest, BadBatchesMutateNoShard) {
  std::unique_ptr<ShardedStore> store = OpenStore(4);
  for (PoiId id = 1; id <= 8; ++id) {
    Poi p{id, {static_cast<double>(id * 12 % 100),
               static_cast<double>(id * 23 % 100)}};
    ASSERT_TRUE(store->InsertPoi(p, MakeHistory(id, 2)).ok());
  }
  std::vector<std::uint64_t> versions;
  for (std::size_t i = 0; i < store->num_shards(); ++i) {
    versions.push_back(store->shard(i)->version());
  }

  // Unknown POI in a batch that also touches valid POIs on other shards:
  // the whole batch must be rejected before any shard applies its part.
  std::unordered_map<PoiId, std::int64_t> bad;
  for (PoiId id = 1; id <= 8; ++id) bad[id] = 3;
  bad[99] = 1;
  EXPECT_TRUE(store->AppendEpoch(2, bad).IsInvalidArgument());
  EXPECT_TRUE(store->AppendEpoch(-1, {{1, 2}}).IsInvalidArgument());
  for (std::size_t i = 0; i < store->num_shards(); ++i) {
    EXPECT_EQ(store->shard(i)->version(), versions[i]) << "shard " << i;
  }

  // Duplicate insert is caught by the routing map even when the new
  // position would route to a different shard.
  Poi moved{1, {99.0, 99.0}};
  EXPECT_TRUE(store->InsertPoi(moved).IsAlreadyExists());

  // The valid remainder of the batch still applies afterwards.
  bad.erase(99);
  EXPECT_TRUE(store->AppendEpoch(2, bad).ok());
}

TEST(ShardedStoreTest, OpenValidatesOptions) {
  ShardedStoreOptions opt = StoreOptions(0);
  EXPECT_TRUE(ShardedStore::Open(opt).status().IsInvalidArgument());
  opt = StoreOptions(4);
  opt.tree.space = Box2();  // empty: no partition domain, no shared dmax
  EXPECT_TRUE(ShardedStore::Open(opt).status().IsInvalidArgument());
}

TEST(ShardedStoreTest, ShardOfClampsBoundaryAndOutsidePositions) {
  std::unique_ptr<ShardedStore> store = OpenStore(4);
  for (const Vec2& pos : {Vec2{0, 0}, Vec2{100, 100}, Vec2{50, 50},
                          Vec2{-10, 50}, Vec2{50, 1000}, Vec2{100, 0}}) {
    EXPECT_LT(store->ShardOf(pos), store->num_shards());
  }
  EXPECT_NE(store->ShardOf({0, 0}), store->ShardOf({100, 100}));
}

void RemoveShardFiles(const std::string& prefix, std::size_t shards) {
  for (std::size_t i = 0; i < shards; ++i) {
    const std::string base = prefix + ".shard" + std::to_string(i);
    std::remove((base + ".snapshot").c_str());
    std::remove((base + ".wal").c_str());
    std::remove((base + ".redo").c_str());
  }
}

std::unique_ptr<ShardedStore> OpenDurableStore(const std::string& prefix,
                                               std::size_t shards) {
  ShardedStoreOptions opt = StoreOptions(shards);
  opt.store_prefix = prefix;
  opt.wal.group_commit_records = 1;
  opt.fault.retry_backoff_ms = 0.1;  // keep test retries fast
  auto opened = ShardedStore::Open(opt);
  EXPECT_TRUE(opened.ok()) << opened.status().ToString();
  return opened.ok() ? std::move(opened).ValueOrDie() : nullptr;
}

// A transient stage failure (here: one injected append error, gone on the
// next hit) is absorbed by the in-place retry: no quarantine, the batch
// lands everywhere, the store stays fully healthy.
TEST(ShardedStoreTest, TransientStageFailureIsAbsorbedByRetry) {
  fail::FaultInjector& injector = fail::FaultInjector::Global();
  injector.Clear();
  const std::string prefix = ::testing::TempDir() + "/sharded_retry";
  std::unique_ptr<ShardedStore> store = OpenDurableStore(prefix, 4);
  ASSERT_NE(store, nullptr);
  const Fixture f = MakeFixture();
  for (std::size_t i = 0; i < f.pois.size(); ++i) {
    ASSERT_TRUE(store->InsertPoi(f.pois[i], f.histories[i]).ok());
  }
  std::unordered_map<PoiId, std::int64_t> batch;
  for (const Poi& p : f.pois) batch[p.id] = p.id % 7 + 1;

  // Fires on exactly the second wal.append hit. The touched shards stage
  // concurrently, so which shard takes that hit varies from run to run;
  // that shard's first stage attempt fails and its retry succeeds.
  ASSERT_TRUE(injector.Configure("wal.append=err@2").ok());
  EXPECT_TRUE(store->AppendEpoch(6, batch).ok());
  injector.Clear();
  EXPECT_TRUE(store->AllHealthy());
  EXPECT_EQ(store->fault_stats().quarantines, 0u);
  RemoveShardFiles(prefix, store->num_shards());
}

/// FNV-1a over a file's bytes (the offset basis for a missing file).
std::uint64_t FileHash(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::uint64_t hash = 14695981039346656037ull;
  for (char c; in.get(c);) {
    hash = (hash ^ static_cast<std::uint8_t>(c)) * 1099511628211ull;
  }
  return hash;
}

/// What a batch applied under injected faults left behind: the fault
/// counters' JSON and the FileHash of shards 1 and 2's redo journals.
struct FailedBatch {
  std::string fault_json;
  std::uint64_t redo1 = 0;
  std::uint64_t redo2 = 0;
};

/// Opens a durable 4-shard store over the fixture and applies epoch 6
/// with `spec` armed; shards 0 and 3 must stay healthy.
FailedBatch ApplyBatchUnderFaults(const std::string& name,
                                  const std::string& spec) {
  fail::FaultInjector& injector = fail::FaultInjector::Global();
  injector.Clear();
  const std::string prefix = ::testing::TempDir() + "/" + name;
  RemoveShardFiles(prefix, 4);
  std::unique_ptr<ShardedStore> store = OpenDurableStore(prefix, 4);
  FailedBatch out;
  if (store == nullptr) return out;
  const Fixture f = MakeFixture();
  for (std::size_t i = 0; i < f.pois.size(); ++i) {
    EXPECT_TRUE(store->InsertPoi(f.pois[i], f.histories[i]).ok());
  }
  std::unordered_map<PoiId, std::int64_t> batch;
  for (const Poi& p : f.pois) batch[p.id] = p.id % 7 + 1;
  EXPECT_TRUE(injector.Configure(spec).ok());
  EXPECT_TRUE(store->AppendEpoch(6, batch).ok());
  injector.Clear();
  for (std::size_t i : {0u, 3u}) {
    EXPECT_EQ(store->shard_health(i), ShardHealth::kHealthy) << "shard " << i;
  }
  out.fault_json = store->fault_stats().ToJson();
  out.redo1 = FileHash(prefix + ".shard1.redo");
  out.redo2 = FileHash(prefix + ".shard2.redo");
  store.reset();
  RemoveShardFiles(prefix, 4);
  return out;
}

// Two shards fail in the same batch. The shards stage concurrently, but
// quarantine and deferral follow the join in shard-index order, so the
// causes, the redo journals and the fault counters are exactly those of
// a one-shard-at-a-time apply, where every value below was taken. Once
// with torn WAL syncs (the WAL dies), once with failing page fetches
// (the standby replica dies).
TEST(ShardedStoreTest, TwoShardsFailingInOneBatchAreQuarantinedInIndexOrder) {
  struct Case {
    std::string spec;
    std::string fault_json;
    std::uint64_t redo1;
    std::uint64_t redo2;
  };
  // Shards 0 and 3 healthy, 1 and 2 quarantined with one deferred epoch.
  const std::string healthy =
      "\"health\":\"healthy\",\"quarantines\":0,\"repairs\":0,"
      "\"repair_failures\":0,\"redo_backlog\":0}";
  const std::string deferred =
      "\"health\":\"quarantined\",\"quarantines\":1,\"repairs\":0,"
      "\"repair_failures\":0,\"redo_backlog\":1,\"cause\":\"IoError: ";
  const std::string totals =
      "\"quarantines\":2,\"repairs\":0,\"repair_failures\":0,"
      "\"epochs_deferred\":2,\"read_retries\":0,\"repair_latency\":{"
      "\"count\":0,\"mean_us\":0.000,\"min_us\":0.000,\"p50_us\":0.000,"
      "\"p95_us\":0.000,\"p99_us\":0.000,\"max_us\":0.000}}";
  auto fault_json = [&](const std::string& cause1, const std::string& cause2) {
    return "{\"shards\":[{\"shard\":0," + healthy + ",{\"shard\":1," +
           deferred + cause1 + "\"},{\"shard\":2," + deferred + cause2 +
           "\"},{\"shard\":3," + healthy + "]," + totals;
  };
  const std::string torn = "injected torn write at failpoint wal.torn ";
  const std::string apply =
      "snapshot store: standby apply failed: replaying WAL AppendEpoch "
      "record at lsn ";
  const std::string fetch =
      ": injected I/O error at failpoint buffer_pool.fetch";
  const Case cases[] = {
      {"wal.torn=torn@shard:1;wal.torn=torn@shard:2",
       fault_json(torn + "(persisted 50 of 204 batch bytes)",
                  torn + "(persisted 2 of 192 batch bytes)"),
       0xd9e30c3f87ee96bfull, 0x4321f14916bb8cceull},
      {"buffer_pool.fetch=err@shard:1;buffer_pool.fetch=err@shard:2",
       fault_json(apply + "15" + fetch, apply + "14" + fetch),
       0xd9e30c3f87ee96bfull, 0x4321f14916bb8cceull},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.spec);
    const FailedBatch got = ApplyBatchUnderFaults("sharded_two_fail", c.spec);
    EXPECT_EQ(got.fault_json, c.fault_json);
    EXPECT_EQ(got.redo1, c.redo1) << std::hex << "got 0x" << got.redo1;
    EXPECT_EQ(got.redo2, c.redo2) << std::hex << "got 0x" << got.redo2;
  }
}

// The deferrals of a batch's failed stages run after every stage, in
// shard-index order: with both shards' WALs torn, the four stage attempts
// take the first four wal.append hits, so the fifth is shard 1's redo
// journal append, never shard 2's. That deferral fails, which makes shard
// 1 unrepairable; shard 2 defers normally.
TEST(ShardedStoreTest, DeferralsFollowEveryStageInShardIndexOrder) {
  const FailedBatch got = ApplyBatchUnderFaults(
      "sharded_defer_order",
      "wal.torn=torn@shard:1;wal.torn=torn@shard:2;wal.append=err@5");
  EXPECT_NE(got.fault_json.find("lost an epoch"), std::string::npos)
      << got.fault_json;
  const std::size_t shard1 = got.fault_json.find("\"shard\":1,");
  const std::size_t shard2 = got.fault_json.find("\"shard\":2,");
  ASSERT_NE(shard1, std::string::npos);
  ASSERT_NE(shard2, std::string::npos);
  const std::string one = got.fault_json.substr(shard1, shard2 - shard1);
  const std::string two = got.fault_json.substr(shard2);
  EXPECT_NE(one.find("lost an epoch"), std::string::npos) << one;
  EXPECT_NE(one.find("\"redo_backlog\":0"), std::string::npos) << one;
  EXPECT_EQ(two.find("lost an epoch"), std::string::npos) << two;
  EXPECT_NE(two.find("\"redo_backlog\":1"), std::string::npos) << two;
}

// The tentpole scenario: one shard's WAL dies mid-batch. The shard is
// quarantined with the root cause while the other shards publish the
// batch; later batches defer its sub-batches into the redo journal;
// strict reads fail fast naming the shard, partial reads degrade with a
// sound bound; background repair re-opens the shard from snapshot + WAL,
// replays the backlog, and the healed store answers bit-identically to a
// store that never saw the fault.
TEST(ShardedStoreTest, WalDeathQuarantinesShardAndRepairHealsIt) {
  fail::FaultInjector& injector = fail::FaultInjector::Global();
  injector.Clear();
  const std::string prefix = ::testing::TempDir() + "/sharded_quarantine";
  std::unique_ptr<ShardedStore> store = OpenDurableStore(prefix, 4);
  ASSERT_NE(store, nullptr);
  std::unique_ptr<ShardedStore> reference = OpenStore(4);  // fault-free twin
  const Fixture f = MakeFixture();
  for (std::size_t i = 0; i < f.pois.size(); ++i) {
    ASSERT_TRUE(store->InsertPoi(f.pois[i], f.histories[i]).ok());
    ASSERT_TRUE(reference->InsertPoi(f.pois[i], f.histories[i]).ok());
  }
  auto epoch_batch = [&](std::int64_t epoch) {
    std::unordered_map<PoiId, std::int64_t> batch;
    for (const Poi& p : f.pois) {
      if ((p.id + epoch) % 3 != 0) batch[p.id] = (p.id + epoch) % 9 + 1;
    }
    return batch;
  };

  // Tear shard 1's WAL sync: the writer dies, the bounded retry hits the
  // sticky dead gate (permanent), and the shard is quarantined while the
  // rest of the batch publishes.
  constexpr std::size_t kVictim = 1;
  ASSERT_TRUE(injector.Configure("wal.torn=torn@shard:1").ok());
  ASSERT_TRUE(store->AppendEpoch(6, epoch_batch(6)).ok());
  injector.Clear();
  ASSERT_TRUE(reference->AppendEpoch(6, epoch_batch(6)).ok());
  EXPECT_EQ(store->shard_health(kVictim), ShardHealth::kQuarantined);
  EXPECT_EQ(store->num_unhealthy(), 1u);
  {
    const ShardFaultStats stats = store->fault_stats();
    EXPECT_EQ(stats.quarantines, 1u);
    EXPECT_FALSE(stats.shards[kVictim].cause.ok());
    EXPECT_GE(stats.shards[kVictim].redo_backlog, 1u);
  }

  // Later batches keep landing: the victim's sub-batches defer.
  for (std::int64_t epoch = 7; epoch < 10; ++epoch) {
    ASSERT_TRUE(store->AppendEpoch(epoch, epoch_batch(epoch)).ok());
    ASSERT_TRUE(reference->AppendEpoch(epoch, epoch_batch(epoch)).ok());
  }
  EXPECT_GE(store->fault_stats().epochs_deferred, 4u);

  // Inserts routed to the quarantined shard are refused with the cause;
  // other shards keep accepting.
  Poi into_victim{500, {30.0, 70.0}};
  const std::size_t victim_of = store->ShardOf(into_victim.pos);
  if (victim_of == kVictim) {
    EXPECT_TRUE(store->InsertPoi(into_victim).IsUnavailable());
  }

  KnntaQuery q;
  q.point = {50.0, 50.0};
  q.interval = {0, 10 * kEpochLen - 1};
  q.k = 10;
  q.alpha0 = 0.4;
  // Strict reads fail fast, naming the shard.
  std::vector<KnntaResult> results;
  const Status strict = store->Query(q, &results);
  EXPECT_TRUE(strict.IsUnavailable()) << strict.ToString();
  EXPECT_NE(strict.ToString().find("shard 1"), std::string::npos)
      << strict.ToString();
  // Partial reads degrade: merged top-k over the healthy shards, the
  // missing shard annotated with a sound bound — every returned result
  // scoring below the bound holds its rank against the missing data.
  ShardCoverage coverage;
  ASSERT_TRUE(store->Query(q, &results, nullptr, nullptr, &coverage).ok());
  EXPECT_FALSE(coverage.complete);
  ASSERT_EQ(coverage.missing.size(), 1u);
  EXPECT_EQ(coverage.missing[0], kVictim);
  EXPECT_FALSE(coverage.cause.ok());
  EXPECT_LT(coverage.score_bound,
            std::numeric_limits<double>::infinity());
  std::vector<KnntaResult> full;
  ASSERT_TRUE(reference->Query(q, &full).ok());
  for (const KnntaResult& r : results) {
    if (r.score < coverage.score_bound) {
      // The bound certifies this rank even against the missing shard.
      bool found = false;
      for (const KnntaResult& want : full) {
        if (want.poi == r.poi) found = true;
      }
      EXPECT_TRUE(found) << "poi " << r.poi;
    }
  }

  // Repair: re-open from snapshot + WAL, replay the redo backlog, flip
  // back to HEALTHY. No restart, readers never excluded.
  ASSERT_TRUE(store->RepairShard(kVictim).ok());
  EXPECT_TRUE(store->AllHealthy());
  {
    const ShardFaultStats stats = store->fault_stats();
    EXPECT_EQ(stats.repairs, 1u);
    EXPECT_EQ(stats.shards[kVictim].redo_backlog, 0u);
    EXPECT_GT(stats.repair_latency.count, 0u);
  }

  // The healed store is bit-identical to the fault-free twin.
  for (const KnntaQuery& probe : ProbeQueries()) {
    std::vector<KnntaResult> got;
    std::vector<KnntaResult> want;
    ASSERT_TRUE(store->Query(probe, &got).ok());
    ASSERT_TRUE(reference->Query(probe, &want).ok());
    ExpectBitIdentical(got, want);
  }
  RemoveShardFiles(prefix, store->num_shards());
}

// Persistent read failures walk a shard HEALTHY -> SUSPECT -> QUARANTINED
// through the strike counter; an in-memory shard whose store never died
// repairs without a durable reopen; a success clears SUSPECT.
TEST(ShardedStoreTest, ReadFaultsSuspectThenQuarantineAndRepairClears) {
  fail::FaultInjector& injector = fail::FaultInjector::Global();
  injector.Clear();
  ShardedStoreOptions opt = StoreOptions(4);
  opt.fault.retry_backoff_ms = 0.1;
  opt.fault.suspect_threshold = 2;
  auto opened = ShardedStore::Open(opt);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  std::unique_ptr<ShardedStore> store = std::move(opened).ValueOrDie();
  const Fixture f = MakeFixture();
  for (std::size_t i = 0; i < f.pois.size(); ++i) {
    ASSERT_TRUE(store->InsertPoi(f.pois[i], f.histories[i]).ok());
  }

  KnntaQuery q;
  q.point = {50.0, 50.0};
  q.interval = {0, 6 * kEpochLen - 1};
  q.k = 10;
  q.alpha0 = 0.4;
  std::vector<KnntaResult> results;

  // Every page fetch from shard 1 fails: retries exhaust, each strict
  // query records one suspect strike, the threshold quarantines.
  ASSERT_TRUE(injector.Configure("buffer_pool.fetch=err@shard:1").ok());
  EXPECT_FALSE(store->Query(q, &results).ok());
  EXPECT_EQ(store->shard_health(1), ShardHealth::kSuspect);
  EXPECT_FALSE(store->Query(q, &results).ok());
  injector.Clear();
  EXPECT_EQ(store->shard_health(1), ShardHealth::kQuarantined);
  EXPECT_GT(store->fault_stats().read_retries, 0u);

  // The in-memory store itself never died, so repair is a plain redo
  // drain (empty here) + re-admission.
  ASSERT_TRUE(store->RepairShard(1).ok());
  EXPECT_TRUE(store->AllHealthy());
  ASSERT_TRUE(store->Query(q, &results).ok());

  // One transient failure leaves the shard SUSPECT; the next clean read
  // clears it back to HEALTHY.
  ASSERT_TRUE(injector.Configure("buffer_pool.fetch=err@shard:2").ok());
  (void)store->Query(q, &results);
  injector.Clear();
  if (store->shard_health(2) == ShardHealth::kSuspect) {
    ASSERT_TRUE(store->Query(q, &results).ok());
    EXPECT_EQ(store->shard_health(2), ShardHealth::kHealthy);
  }
}

// Regression: a reader-thread quarantine landing between AppendEpoch's
// defer phase (shard still covered: no redo entry) and its stage phase
// (shard no longer covered) must not drop the sub-batch. Coverage is
// decided once per batch, so the victim is staged anyway and the stage
// failure routes the epoch into the redo journal. A 100ms WAL delay on
// shard 0 holds the batch in its stage phase while the main thread
// quarantines shard 3 through the read path.
TEST(ShardedStoreTest, ReaderQuarantineMidBatchDoesNotDropTheSubBatch) {
  fail::FaultInjector& injector = fail::FaultInjector::Global();
  injector.Clear();
  const std::string prefix = ::testing::TempDir() + "/sharded_midbatch";
  RemoveShardFiles(prefix, 4);
  ShardedStoreOptions opt = StoreOptions(4);
  opt.store_prefix = prefix;
  opt.wal.group_commit_records = 1;
  opt.fault.retry_backoff_ms = 0.1;
  opt.fault.suspect_threshold = 1;  // one read strike quarantines
  auto opened = ShardedStore::Open(opt);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  std::unique_ptr<ShardedStore> store = std::move(opened).ValueOrDie();
  auto twin_opened = ShardedStore::Open(StoreOptions(4));
  ASSERT_TRUE(twin_opened.ok());
  std::unique_ptr<ShardedStore> twin = std::move(twin_opened).ValueOrDie();

  const Fixture f = MakeFixture();
  for (std::size_t i = 0; i < f.pois.size(); ++i) {
    ASSERT_TRUE(store->InsertPoi(f.pois[i], f.histories[i]).ok());
    ASSERT_TRUE(twin->InsertPoi(f.pois[i], f.histories[i]).ok());
  }
  std::unordered_map<PoiId, std::int64_t> batch;
  for (const Poi& p : f.pois) batch[p.id] = p.id % 7 + 1;
  ASSERT_EQ(store->ShardOf({70, 70}), 3u);  // the batch touches the victim

  ASSERT_TRUE(injector
                  .Configure(
                      "wal.append=delay@100@shard:0;"
                      "buffer_pool.fetch=err@shard:3")
                  .ok());
  std::thread appender([&] {
    EXPECT_TRUE(store->AppendEpoch(6, batch).ok());
  });
  // While the batch sits in shard 0's delayed WAL append, strict reads
  // strike shard 3 into quarantine from this thread (no writer latch).
  KnntaQuery probe;
  probe.point = {70.0, 70.0};
  probe.interval = {0, 6 * kEpochLen - 1};
  probe.k = 5;
  probe.alpha0 = 0.4;
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(80);
  std::vector<KnntaResult> results;
  while (store->shard_health(3) != ShardHealth::kQuarantined &&
         std::chrono::steady_clock::now() < give_up) {
    (void)store->Query(probe, &results);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  appender.join();
  injector.Clear();

  // However the race resolved, the epoch must be accounted on shard 3 —
  // staged directly, or deferred and replayed by repair. Lost = the
  // healed store diverges from the fault-free twin below.
  if (!store->AllHealthy()) {
    ASSERT_TRUE(store->RepairShard(3).ok());
  }
  EXPECT_TRUE(store->AllHealthy());
  ASSERT_TRUE(twin->AppendEpoch(6, batch).ok());
  for (double alpha0 : {0.3, 0.5, 0.7}) {
    for (double x : {25.0, 50.0, 70.0}) {
      KnntaQuery q;
      q.point = {x, x};
      q.interval = {0, 7 * kEpochLen - 1};  // spans the contested epoch
      q.k = 20;
      q.alpha0 = alpha0;
      std::vector<KnntaResult> got;
      std::vector<KnntaResult> want;
      ASSERT_TRUE(store->Query(q, &got).ok());
      ASSERT_TRUE(twin->Query(q, &want).ok());
      ExpectBitIdentical(got, want);
    }
  }
  RemoveShardFiles(prefix, store->num_shards());
}

// Crash-while-quarantined: deferred epochs survive in the redo journal.
// A fresh Open finds the journal, starts the shard QUARANTINED with the
// backlog, and RepairTick drains it — the final store matches the
// fault-free twin bit for bit.
TEST(ShardedStoreTest, RedoJournalSurvivesRestartAndRepairTickDrainsIt) {
  fail::FaultInjector& injector = fail::FaultInjector::Global();
  injector.Clear();
  const std::string prefix = ::testing::TempDir() + "/sharded_redo_restart";
  RemoveShardFiles(prefix, 4);
  std::unique_ptr<ShardedStore> reference = OpenStore(4);
  const Fixture f = MakeFixture();
  auto epoch_batch = [&](std::int64_t epoch) {
    std::unordered_map<PoiId, std::int64_t> batch;
    for (const Poi& p : f.pois) {
      if ((p.id + epoch) % 2 != 0) batch[p.id] = (p.id + epoch) % 5 + 1;
    }
    return batch;
  };
  {
    std::unique_ptr<ShardedStore> store = OpenDurableStore(prefix, 4);
    ASSERT_NE(store, nullptr);
    for (std::size_t i = 0; i < f.pois.size(); ++i) {
      ASSERT_TRUE(store->InsertPoi(f.pois[i], f.histories[i]).ok());
    }
    ASSERT_TRUE(injector.Configure("wal.torn=torn@shard:2").ok());
    ASSERT_TRUE(store->AppendEpoch(6, epoch_batch(6)).ok());
    injector.Clear();
    ASSERT_EQ(store->shard_health(2), ShardHealth::kQuarantined);
    for (std::int64_t epoch = 7; epoch < 9; ++epoch) {
      ASSERT_TRUE(store->AppendEpoch(epoch, epoch_batch(epoch)).ok());
    }
    // "Crash": drop the store with the backlog un-replayed.
  }
  for (std::size_t i = 0; i < f.pois.size(); ++i) {
    ASSERT_TRUE(reference->InsertPoi(f.pois[i], f.histories[i]).ok());
  }
  for (std::int64_t epoch = 6; epoch < 9; ++epoch) {
    ASSERT_TRUE(reference->AppendEpoch(epoch, epoch_batch(epoch)).ok());
  }

  std::unique_ptr<ShardedStore> store = OpenDurableStore(prefix, 4);
  ASSERT_NE(store, nullptr);
  EXPECT_EQ(store->shard_health(2), ShardHealth::kQuarantined);
  EXPECT_GE(store->fault_stats().shards[2].redo_backlog, 1u);
  // The open-time quarantine carries no breaker penalty: the first tick
  // may repair immediately.
  EXPECT_EQ(store->RepairTick(), 1u);
  EXPECT_TRUE(store->AllHealthy());
  for (const KnntaQuery& probe : ProbeQueries()) {
    std::vector<KnntaResult> got;
    std::vector<KnntaResult> want;
    ASSERT_TRUE(store->Query(probe, &got).ok());
    ASSERT_TRUE(reference->Query(probe, &want).ok());
    ExpectBitIdentical(got, want);
  }
  RemoveShardFiles(prefix, store->num_shards());
}

// TSan schedule (satellite 4): readers stay pinned on partial-coverage
// queries across repeated QUARANTINED -> RECOVERING -> HEALTHY
// transitions of one shard while the writer keeps appending. Readers
// must never fail and never observe a torn mirror-pair tie.
TEST(ShardedStoreTest, ReadersSpanQuarantineAndReadmissionTransitions) {
  fail::FaultInjector& injector = fail::FaultInjector::Global();
  injector.Clear();
  const std::string prefix = ::testing::TempDir() + "/sharded_transitions";
  RemoveShardFiles(prefix, 4);
  std::unique_ptr<ShardedStore> store = OpenDurableStore(prefix, 4);
  ASSERT_NE(store, nullptr);
  const Fixture f = MakeFixture();
  for (std::size_t i = 0; i < 8; ++i) {  // the four mirror pairs
    ASSERT_TRUE(store->InsertPoi(f.pois[i], f.histories[i]).ok());
  }

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> reads_ok{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      KnntaQuery q;
      q.point = {50.0, 50.0};
      q.interval = {0, 200 * kEpochLen - 1};
      q.k = 8;
      q.alpha0 = 0.5;
      while (!stop.load(std::memory_order_acquire)) {
        std::vector<KnntaResult> results;
        ShardCoverage coverage;
        ASSERT_TRUE(
            store->Query(q, &results, nullptr, nullptr, &coverage).ok());
        reads_ok.fetch_add(1, std::memory_order_relaxed);
        if (!coverage.complete) continue;  // mirror ties need full coverage
        for (PoiId lo = 1; lo <= 8; lo += 2) {
          double lo_score = -1.0;
          double hi_score = -2.0;
          for (const KnntaResult& r : results) {
            if (r.poi == lo) lo_score = r.score;
            if (r.poi == lo + 1) hi_score = r.score;
          }
          ASSERT_EQ(std::memcmp(&lo_score, &hi_score, sizeof(double)), 0)
              << "pair " << lo << " saw a torn cross-shard cut";
        }
      }
    });
  }

  std::int64_t epoch = 6;
  for (int cycle = 0; cycle < 4; ++cycle) {
    auto batch = [&](std::int64_t e) {
      std::unordered_map<PoiId, std::int64_t> aggs;
      for (PoiId id = 1; id <= 8; ++id) {
        aggs[id] = ((id + 1) / 2 + e) % 9 + 1;  // equal within a pair
      }
      return aggs;
    };
    // Kill shard 1's WAL mid-batch, append a few more (deferring), then
    // repair it — all while the readers hammer the fan-out.
    ASSERT_TRUE(injector.Configure("wal.torn=torn@shard:1").ok());
    ASSERT_TRUE(store->AppendEpoch(epoch, batch(epoch)).ok());
    ++epoch;
    injector.Clear();
    ASSERT_EQ(store->shard_health(1), ShardHealth::kQuarantined);
    for (int extra = 0; extra < 3; ++extra, ++epoch) {
      ASSERT_TRUE(store->AppendEpoch(epoch, batch(epoch)).ok());
    }
    ASSERT_TRUE(store->RepairShard(1).ok());
    ASSERT_TRUE(store->AllHealthy());
    for (int extra = 0; extra < 3; ++extra, ++epoch) {
      ASSERT_TRUE(store->AppendEpoch(epoch, batch(epoch)).ok());
    }
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  EXPECT_GT(reads_ok.load(), 0u);
  EXPECT_EQ(store->fault_stats().quarantines, 4u);
  EXPECT_EQ(store->fault_stats().repairs, 4u);
  RemoveShardFiles(prefix, store->num_shards());
}

// Epoch batches split across shards must become visible all-or-nothing.
// Mirror-pair POIs live in different shards and always receive identical
// aggregates, so every query must score a pair bit-identically; a torn
// cut (epoch applied in shard i, not yet shard j) breaks the tie.
TEST(ShardedStoreTest, ConcurrentQueriesSeeCrossShardBatchesAllOrNothing) {
  std::unique_ptr<ShardedStore> store = OpenStore(4);
  const Fixture f = MakeFixture();
  for (std::size_t i = 0; i < 8; ++i) {  // the four mirror pairs
    ASSERT_TRUE(store->InsertPoi(f.pois[i], f.histories[i]).ok());
  }
  ASSERT_NE(store->ShardOf({30, 30}), store->ShardOf({70, 70}));

  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      KnntaQuery q;
      q.point = {50.0, 50.0};
      q.interval = {0, 200 * kEpochLen - 1};
      q.k = 8;
      q.alpha0 = 0.5;
      while (!stop.load(std::memory_order_acquire)) {
        std::vector<KnntaResult> results;
        ASSERT_TRUE(store->Query(q, &results).ok());
        ASSERT_EQ(results.size(), 8u);
        for (PoiId lo = 1; lo <= 8; lo += 2) {
          double lo_score = -1.0;
          double hi_score = -2.0;
          for (const KnntaResult& r : results) {
            if (r.poi == lo) lo_score = r.score;
            if (r.poi == lo + 1) hi_score = r.score;
          }
          ASSERT_EQ(std::memcmp(&lo_score, &hi_score, sizeof(double)), 0)
              << "pair " << lo << " saw a torn cross-shard cut";
        }
      }
    });
  }
  for (std::int64_t epoch = 6; epoch < 160; ++epoch) {
    std::unordered_map<PoiId, std::int64_t> aggs;
    for (PoiId id = 1; id <= 8; ++id) {
      aggs[id] = ((id + 1) / 2 + epoch) % 9 + 1;  // equal within a pair
    }
    ASSERT_TRUE(store->AppendEpoch(epoch, aggs).ok());
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
}

// TSan schedule: concurrent readers fan out across all shards while the
// writer appends batches touching every shard and periodically
// checkpoints them. Readers must keep completing throughout.
TEST(ShardedStoreTest, ConcurrentReadersDuringCrossShardAppends) {
  const std::string prefix = ::testing::TempDir() + "/sharded_tsan";
  ShardedStoreOptions opt = StoreOptions(4);
  opt.store_prefix = prefix;
  opt.wal.group_commit_records = 1;
  auto opened = ShardedStore::Open(opt);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  std::unique_ptr<ShardedStore> store = std::move(opened).ValueOrDie();
  const Fixture f = MakeFixture();
  for (std::size_t i = 0; i < f.pois.size(); ++i) {
    ASSERT_TRUE(store->InsertPoi(f.pois[i], f.histories[i]).ok());
  }

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> reads{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      const std::vector<KnntaQuery> queries = ProbeQueries();
      std::size_t i = t;
      while (!stop.load(std::memory_order_acquire)) {
        std::vector<KnntaResult> results;
        ASSERT_TRUE(
            store->Query(queries[i++ % queries.size()], &results).ok());
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  for (std::int64_t epoch = 6; epoch < 22; ++epoch) {
    std::unordered_map<PoiId, std::int64_t> aggs;
    for (const Poi& p : f.pois) {
      if ((p.id + epoch) % 2 == 0) aggs[p.id] = (p.id + epoch) % 9 + 1;
    }
    ASSERT_TRUE(store->AppendEpoch(epoch, aggs).ok());
    if (epoch % 6 == 0) {
      ASSERT_TRUE(store->Checkpoint().ok());
    }
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  EXPECT_GT(reads.load(), 0u);

  // Cleanup the shard files.
  for (std::size_t i = 0; i < store->num_shards(); ++i) {
    std::remove((prefix + ".shard" + std::to_string(i) + ".snapshot").c_str());
    std::remove((prefix + ".shard" + std::to_string(i) + ".wal").c_str());
  }
}

}  // namespace
}  // namespace tar
