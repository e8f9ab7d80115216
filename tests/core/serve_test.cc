// ShardedServer: admission control with machine-readable retry hints,
// asynchronous ingestion that never excludes readers (the
// reads_during_write evidence), failure isolation of the ingest queue,
// and the drain-on-Stop contract.
#include "core/serve.h"

#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/failpoint.h"

namespace tar {
namespace {

constexpr Timestamp kEpochLen = 7 * kSecondsPerDay;

ShardedStoreOptions StoreOptions(std::size_t shards = 4) {
  ShardedStoreOptions opt;
  opt.num_shards = shards;
  opt.tree.node_size_bytes = 512;
  opt.tree.grid = EpochGrid(0, kEpochLen);
  opt.tree.space =
      Box2::Union(Box2::FromPoint({0, 0}), Box2::FromPoint({100, 100}));
  return opt;
}

std::unique_ptr<ShardedStore> MakeStore(std::size_t pois = 48) {
  auto opened = ShardedStore::Open(StoreOptions());
  EXPECT_TRUE(opened.ok()) << opened.status().ToString();
  std::unique_ptr<ShardedStore> store = std::move(opened).ValueOrDie();
  for (PoiId id = 1; id <= pois; ++id) {
    Poi p{id, {static_cast<double>((id * 37) % 100),
               static_cast<double>((id * 61) % 100)}};
    std::vector<std::int32_t> h(4);
    for (int e = 0; e < 4; ++e) {
      h[e] = static_cast<std::int32_t>((id + e) % 15 + 1);
    }
    EXPECT_TRUE(store->InsertPoi(p, h).ok());
  }
  return store;
}

KnntaQuery ProbeQuery(int i = 0) {
  KnntaQuery q;
  q.point = {static_cast<double>((i * 31) % 100),
             static_cast<double>((i * 17) % 100)};
  q.interval = {0, 4 * kEpochLen - 1};
  q.k = 5;
  q.alpha0 = 0.3;
  return q;
}

std::unordered_map<PoiId, std::int64_t> EpochBatch(std::int64_t epoch,
                                                   std::size_t pois = 48) {
  std::unordered_map<PoiId, std::int64_t> aggs;
  for (PoiId id = 1; id <= pois; ++id) {
    if ((id + epoch) % 3 != 0) aggs[id] = (id + epoch) % 9 + 1;
  }
  return aggs;
}

TEST(ServeTest, QueriesSucceedAndAreCounted) {
  std::unique_ptr<ShardedStore> store = MakeStore();
  ShardedServer server(store.get(), ServeOptions{});
  server.Start();
  std::vector<KnntaResult> results;
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(server.Query(ProbeQuery(i), &results).ok());
    EXPECT_FALSE(results.empty());
  }
  server.Stop();
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.queries_ok, 10u);
  EXPECT_EQ(stats.queries_shed, 0u);
  EXPECT_EQ(stats.queries_failed, 0u);
  EXPECT_EQ(stats.latency.count, 10u);
}

TEST(ServeTest, OverloadShedsWithRetryAfterHint) {
  std::unique_ptr<ShardedStore> store = MakeStore();
  ServeOptions opt;
  opt.max_inflight = 1;
  ShardedServer server(store.get(), opt);
  server.Start();

  // Two threads hammer a single-slot server; collisions shed with the
  // machine-readable backoff hint.
  std::atomic<bool> stop{false};
  std::string hint;
  Mutex hint_mu{LockRank::kParallelMerge, "test.hint"};
  auto hammer = [&] {
    std::vector<KnntaResult> results;
    int i = 0;
    while (!stop.load(std::memory_order_acquire)) {
      Status st = server.Query(ProbeQuery(i++), &results);
      if (!st.ok()) {
        ASSERT_TRUE(st.IsUnavailable()) << st.ToString();
        EXPECT_TRUE(results.empty());
        MutexLock lock(&hint_mu);
        if (hint.empty()) hint = st.message();
      }
    }
  };
  std::thread a(hammer);
  std::thread b(hammer);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < deadline &&
         server.stats().queries_shed == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop.store(true, std::memory_order_release);
  a.join();
  b.join();
  server.Stop();

  const ServerStats stats = server.stats();
  ASSERT_GT(stats.queries_shed, 0u);
  EXPECT_GT(stats.queries_ok, 0u);
  const std::size_t at = hint.find("retry-after-ms=");
  ASSERT_NE(at, std::string::npos) << hint;
  // The degenerate-estimate fix: the hint is never zero, even when the
  // latency histogram was empty at shed time.
  EXPECT_GT(std::atof(hint.c_str() + at + 15), 0.0) << hint;
  // Shed queries never enter the latency histogram.
  EXPECT_EQ(stats.latency.count, stats.queries_ok);
}

TEST(ServeTest, ReadsCompleteWhileEpochsAreApplied) {
  std::unique_ptr<ShardedStore> store = MakeStore();
  ShardedServer server(store.get(), ServeOptions{});
  server.Start();

  MixedLoadOptions mopt;
  mopt.reader_threads = 2;
  mopt.duration_ms = 400.0;
  mopt.write_interval_ms = 0.5;
  mopt.first_epoch = 4;
  for (std::int64_t e = 0; e < 4; ++e) {
    mopt.epoch_batches.push_back(EpochBatch(e));
  }
  for (int i = 0; i < 8; ++i) mopt.queries.push_back(ProbeQuery(i));

  MixedLoadReport report;
  ASSERT_TRUE(RunMixedLoad(&server, mopt, &report).ok());
  server.Stop();

  EXPECT_GT(report.reads_ok, 0u);
  EXPECT_GT(report.writes, 0u);
  EXPECT_EQ(report.reads_failed, 0u);
  // The acceptance criterion of the snapshot design: reads completing
  // while an epoch batch is mid-apply. A reader-excluding writer would
  // pin this to zero.
  EXPECT_GT(report.reads_during_write, 0u);
  EXPECT_EQ(report.read_latency.count, report.reads_ok);
  // The JSON payload carries every headline field.
  const std::string json = report.ToJson("test", 4, 2);
  for (const char* field :
       {"\"reads_ok\":", "\"writes\":", "\"reads_during_write\":",
        "\"read_qps\":", "\"read_latency\":"}) {
    EXPECT_NE(json.find(field), std::string::npos) << json;
  }
}

TEST(ServeTest, IngestFailureStopsWriterButNotReaders) {
  std::unique_ptr<ShardedStore> store = MakeStore();
  ShardedServer server(store.get(), ServeOptions{});
  server.Start();

  // Epoch 4 applies; the unknown-POI batch fails inside the ingest
  // thread; the batch after it must not be applied.
  ASSERT_TRUE(server.SubmitEpoch(4, EpochBatch(4)).ok());
  ASSERT_TRUE(server.SubmitEpoch(5, {{9999, 3}}).ok());
  Status late = server.SubmitEpoch(6, EpochBatch(6));
  server.WaitForIngest();

  EXPECT_FALSE(server.ingest_status().ok());
  // Submissions after the failure are rejected with the root cause.
  if (late.ok()) {
    EXPECT_FALSE(server.SubmitEpoch(7, EpochBatch(7)).ok());
  }
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.epochs_ingested, 1u);

  // Reads keep serving the last published version.
  std::vector<KnntaResult> results;
  ASSERT_TRUE(server.Query(ProbeQuery(), &results).ok());
  EXPECT_FALSE(results.empty());
  server.Stop();
}

TEST(ServeTest, StopDrainsTheIngestQueue) {
  std::unique_ptr<ShardedStore> store = MakeStore();
  auto server = std::make_unique<ShardedServer>(store.get(), ServeOptions{});
  server->Start();
  for (std::int64_t e = 4; e < 12; ++e) {
    ASSERT_TRUE(server->SubmitEpoch(e, EpochBatch(e)).ok());
  }
  server->Stop();
  EXPECT_EQ(server->stats().epochs_ingested, 8u);
  EXPECT_TRUE(server->ingest_status().ok());
  // Stop is idempotent, and the destructor tolerates a stopped server.
  server->Stop();
  server.reset();

  // All eight epochs are visible after the drain.
  KnntaQuery q = ProbeQuery();
  q.interval = {0, 12 * kEpochLen - 1};
  std::vector<KnntaResult> results;
  ASSERT_TRUE(store->Query(q, &results).ok());
  EXPECT_FALSE(results.empty());
}

TEST(ServeTest, SubmitEpochRejectedOnceStopBegins) {
  std::unique_ptr<ShardedStore> store = MakeStore();
  ShardedServer server(store.get(), ServeOptions{});
  server.Start();
  ASSERT_TRUE(server.SubmitEpoch(4, EpochBatch(4)).ok());
  server.Stop();

  // The door closes when Stop begins, so a looping submitter can no
  // longer extend the drain indefinitely (Stop used to wait first and
  // accept submissions throughout).
  const Status rejected = server.SubmitEpoch(5, EpochBatch(5));
  EXPECT_TRUE(rejected.IsUnavailable()) << rejected.ToString();
  EXPECT_EQ(server.stats().epochs_ingested, 1u);

  // Start re-opens submission.
  server.Start();
  ASSERT_TRUE(server.SubmitEpoch(5, EpochBatch(5)).ok());
  server.Stop();
  EXPECT_EQ(server.stats().epochs_ingested, 2u);
  EXPECT_TRUE(server.ingest_status().ok());
}

std::unique_ptr<ShardedStore> MakeDurableStore(const std::string& prefix,
                                               std::size_t pois = 48) {
  for (std::size_t i = 0; i < 4; ++i) {
    const std::string base = prefix + ".shard" + std::to_string(i);
    std::remove((base + ".snapshot").c_str());
    std::remove((base + ".wal").c_str());
    std::remove((base + ".redo").c_str());
  }
  ShardedStoreOptions opt = StoreOptions();
  opt.store_prefix = prefix;
  opt.wal.group_commit_records = 1;
  opt.fault.retry_backoff_ms = 0.1;
  opt.fault.repair_backoff_ms = 2.0;
  opt.fault.repair_backoff_max_ms = 20.0;
  auto opened = ShardedStore::Open(opt);
  EXPECT_TRUE(opened.ok()) << opened.status().ToString();
  if (!opened.ok()) return nullptr;
  std::unique_ptr<ShardedStore> store = std::move(opened).ValueOrDie();
  for (PoiId id = 1; id <= pois; ++id) {
    Poi p{id, {static_cast<double>((id * 37) % 100),
               static_cast<double>((id * 61) % 100)}};
    std::vector<std::int32_t> h(4);
    for (int e = 0; e < 4; ++e) {
      h[e] = static_cast<std::int32_t>((id + e) % 15 + 1);
    }
    EXPECT_TRUE(store->InsertPoi(p, h).ok());
  }
  return store;
}

// The rates count the reader window only. Here every batch waits 25 ms in
// shard 0's WAL append while the writer submits one every 2 ms, so the
// drain after the readers stop outlasts the window; dividing by the wall
// time would report a fraction of the real read rate.
TEST(ServeTest, MixedLoadRatesDoNotDependOnTheDrain) {
  fail::FaultInjector& injector = fail::FaultInjector::Global();
  injector.Clear();
  const std::string prefix = ::testing::TempDir() + "/serve_slow_ingest";
  std::unique_ptr<ShardedStore> store = MakeDurableStore(prefix);
  ASSERT_NE(store, nullptr);
  ShardedServer server(store.get(), ServeOptions{});
  server.Start();

  MixedLoadOptions mopt;
  mopt.reader_threads = 1;
  mopt.duration_ms = 50.0;
  mopt.write_interval_ms = 2.0;
  mopt.first_epoch = 4;
  for (std::int64_t e = 0; e < 4; ++e) {
    mopt.epoch_batches.push_back(EpochBatch(e));
  }
  for (int i = 0; i < 8; ++i) mopt.queries.push_back(ProbeQuery(i));
  ASSERT_TRUE(injector.Configure("wal.append=delay@25@shard:0").ok());
  MixedLoadReport report;
  const Status st = RunMixedLoad(&server, mopt, &report);
  injector.Clear();
  server.Stop();
  ASSERT_TRUE(st.ok()) << st.ToString();

  ASSERT_GT(report.reads_ok, 0u);
  EXPECT_GE(report.window_ms, mopt.duration_ms);
  EXPECT_GT(report.wall_ms, 2.0 * report.window_ms)
      << "the drain should outlast the reader window";
  EXPECT_DOUBLE_EQ(report.read_qps, 1e3 * static_cast<double>(report.reads_ok) /
                                        report.window_ms);
  // Batches applied during the drain do not count toward the rate.
  EXPECT_LT(report.write_qps * report.window_ms / 1e3,
            static_cast<double>(report.writes));
  const std::string json = report.ToJson("test", 4, 1);
  EXPECT_NE(json.find("\"window_ms\":"), std::string::npos) << json;
}

// The availability headline: a shard's WAL dies under live traffic, the
// server keeps answering from the healthy shards in partial-coverage
// mode, and the background repair worker heals the shard without a
// restart — reads_during_quarantine and reads_partial are the direct
// evidence that a single-shard fault never took the service down.
TEST(ServeTest, HealthyShardsServeThroughQuarantineAndAutoRepairHeals) {
  fail::FaultInjector& injector = fail::FaultInjector::Global();
  injector.Clear();
  const std::string prefix = ::testing::TempDir() + "/serve_heal";
  std::unique_ptr<ShardedStore> store = MakeDurableStore(prefix);
  ASSERT_NE(store, nullptr);
  ServeOptions opt;
  opt.partial_coverage = true;
  opt.auto_repair = true;
  opt.repair_poll_ms = 1.0;
  ShardedServer server(store.get(), opt);
  server.Start();

  // Kill shard 1's WAL mid-batch: the batch still lands (deferral), the
  // shard is quarantined.
  ASSERT_TRUE(injector.Configure("wal.torn=torn@shard:1").ok());
  ASSERT_TRUE(server.SubmitEpoch(4, EpochBatch(4)).ok());
  server.WaitForIngest();
  // The repair worker (1ms poll) may already have claimed the shard
  // into a doomed repair attempt; either way it is down, not healthy.
  {
    const ShardHealth h = store->shard_health(1);
    ASSERT_TRUE(h == ShardHealth::kQuarantined ||
                h == ShardHealth::kRecovering)
        << ToString(h);
  }

  // While the fault persists (repair attempts keep failing and the
  // breaker backs off), the healthy shards answer every query.
  std::vector<KnntaResult> results;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(server.Query(ProbeQuery(i), &results).ok());
    EXPECT_FALSE(results.empty());
  }
  {
    const ServerStats stats = server.stats();
    EXPECT_GE(stats.reads_partial, 5u);
    EXPECT_GE(stats.reads_during_quarantine, 5u);
    EXPECT_EQ(stats.reads_unavailable, 0u);
  }

  // Clear the fault: the repair worker heals the shard in the
  // background; later batches flow normally.
  injector.Clear();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (std::chrono::steady_clock::now() < deadline &&
         !store->AllHealthy()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_TRUE(store->AllHealthy()) << "auto repair never healed shard 1";
  ASSERT_TRUE(server.SubmitEpoch(5, EpochBatch(5)).ok());
  server.WaitForIngest();
  EXPECT_TRUE(server.ingest_status().ok());
  server.Stop();

  const ServerStats stats = server.stats();
  EXPECT_GE(stats.fault.quarantines, 1u);
  EXPECT_GE(stats.fault.repairs, 1u);
  EXPECT_GT(stats.fault.repair_latency.count, 0u);
  ASSERT_EQ(stats.fault.shards.size(), 4u);
  for (const ShardHealthSnapshot& shard : stats.fault.shards) {
    EXPECT_EQ(shard.health, ShardHealth::kHealthy);
    EXPECT_EQ(shard.redo_backlog, 0u);
  }
  // Full coverage again: a fresh query is complete, not partial.
  const std::uint64_t partial_before = stats.reads_partial;
  ASSERT_TRUE(server.Query(ProbeQuery(), &results).ok());
  EXPECT_EQ(server.stats().reads_partial, partial_before);
}

// Shutdown during repair: Stop() joins the repair worker even while a
// shard is quarantined with a still-failing fault, and no repair — and
// no re-admission — can land after Stop returns.
TEST(ServeTest, StopJoinsRepairWorkerWithoutLateReadmission) {
  fail::FaultInjector& injector = fail::FaultInjector::Global();
  injector.Clear();
  const std::string prefix = ::testing::TempDir() + "/serve_stop_repair";
  std::unique_ptr<ShardedStore> store = MakeDurableStore(prefix);
  ASSERT_NE(store, nullptr);
  ServeOptions opt;
  opt.partial_coverage = true;
  opt.auto_repair = true;
  opt.repair_poll_ms = 1.0;
  ShardedServer server(store.get(), opt);
  server.Start();

  ASSERT_TRUE(injector.Configure("wal.torn=torn@shard:1").ok());
  ASSERT_TRUE(server.SubmitEpoch(4, EpochBatch(4)).ok());
  server.WaitForIngest();
  // kRecovering is fine here: the worker may already be mid-attempt.
  {
    const ShardHealth h = store->shard_health(1);
    ASSERT_TRUE(h == ShardHealth::kQuarantined ||
                h == ShardHealth::kRecovering)
        << ToString(h);
  }

  // Stop with the fault still armed: the repair worker may be mid-
  // attempt; Stop must join it cleanly.
  server.Stop();
  injector.Clear();

  // After Stop, nothing flips the shard back: the health and the repair
  // counter hold still (a late re-admission would move them).
  EXPECT_EQ(store->shard_health(1), ShardHealth::kQuarantined);
  const std::uint64_t repairs_at_stop = store->fault_stats().repairs;
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(store->shard_health(1), ShardHealth::kQuarantined);
  EXPECT_EQ(store->fault_stats().repairs, repairs_at_stop);

  // An explicit operator repair still works after shutdown.
  ASSERT_TRUE(store->RepairShard(1).ok());
  EXPECT_TRUE(store->AllHealthy());
}

TEST(ServeTest, MixedLoadValidatesItsOptions) {
  std::unique_ptr<ShardedStore> store = MakeStore(4);
  ShardedServer server(store.get(), ServeOptions{});
  server.Start();
  MixedLoadOptions mopt;
  MixedLoadReport report;
  EXPECT_TRUE(RunMixedLoad(&server, mopt, &report).IsInvalidArgument());
  mopt.queries.push_back(ProbeQuery());
  mopt.reader_threads = 0;
  EXPECT_TRUE(RunMixedLoad(&server, mopt, &report).IsInvalidArgument());
  server.Stop();
}

}  // namespace
}  // namespace tar
