// Self-tests of the serving benchmark: the statistics it reports, its
// window accounting, the traced replay and the repeatability of its
// counts. A wrong benchmark is a correctness bug too.
//
//   python3 perfbench/run.py --selftest
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "harness.h"

namespace perfbench {
namespace {

TEST(PercentileRuleTest, NeedsTenSamplesBeyondThePercentile) {
  EXPECT_TRUE(PercentileSupported(1000, 0.99));
  EXPECT_FALSE(PercentileSupported(999, 0.99));
  EXPECT_TRUE(PercentileSupported(200, 0.95));
  EXPECT_FALSE(PercentileSupported(199, 0.95));
  EXPECT_TRUE(PercentileSupported(20, 0.5));
  EXPECT_FALSE(PercentileSupported(10, 0.0));
  EXPECT_FALSE(PercentileSupported(0, 0.5));
  EXPECT_DOUBLE_EQ(HighestSupportedQuantile(1000), 0.99);
  EXPECT_DOUBLE_EQ(HighestSupportedQuantile(10), 0.0);
  // The highest supported quantile is itself supported, and nothing
  // above it is.
  for (std::size_t n : {11u, 57u, 200u, 2557u}) {
    const double q = HighestSupportedQuantile(n);
    EXPECT_TRUE(PercentileSupported(n, q)) << n;
    EXPECT_FALSE(PercentileSupported(n, q + 1.0 / static_cast<double>(n)))
        << n;
  }
}

TEST(PercentileRuleTest, NearestRankQuantiles) {
  std::vector<double> v;
  for (int i = 1000; i >= 1; --i) v.push_back(i);  // unsorted input
  EXPECT_EQ(Quantile(v, 0.50), 500.0);
  EXPECT_EQ(Quantile(v, 0.99), 990.0);
  EXPECT_EQ(Quantile(v, 1.0), 1000.0);
  EXPECT_EQ(Quantile(v, 0.0), 1.0);
  EXPECT_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(Quantile({}, 0.5), 0.0);
  // Exactly ten samples lie above the reported p99 of 1000 samples.
  const double p99 = Quantile(v, 0.99);
  int beyond = 0;
  for (double x : v) beyond += x > p99 ? 1 : 0;
  EXPECT_EQ(beyond, 10);
}

TEST(FloorTest, KeepsEachKeysFastestValueInKeyOrder) {
  // Query 2 ran three times, one of them during a burst of host noise;
  // query 0 twice; query 5 once.
  const std::vector<std::size_t> keys = {2, 0, 2, 5, 0, 2};
  const std::vector<double> values = {310.0, 95.0, 900.0, 40.0, 120.0, 300.0};
  const std::vector<double> floors = FloorsByKey(keys, values);
  ASSERT_EQ(floors.size(), 3u);
  EXPECT_EQ(floors[0], 95.0);
  EXPECT_EQ(floors[1], 300.0);
  EXPECT_EQ(floors[2], 40.0);
  EXPECT_TRUE(FloorsByKey({}, {}).empty());
}

TEST(WindowTest, SlowDrainLeavesRatesUnchanged) {
  // A 10 s window: reads every 10 ms, a 5.4k-record batch every 40 ms.
  std::vector<double> reads;
  std::vector<TimedBatch> batches;
  for (int i = 0; i < 1000; ++i) reads.push_back(0.005 + 0.01 * i);
  for (int i = 0; i < 249; ++i) {
    batches.push_back(TimedBatch{0.04 * i, 0.04 * i + 0.035, 5400});
  }
  const WindowCounts fast = CountWindow(0.0, 10.0, reads, batches);

  // The same window followed by a drain twenty times its length: the
  // batch in flight at the end takes 200 s to apply, and reads completing
  // during the drain are logged too. None of it may count.
  std::vector<double> slow_reads = reads;
  std::vector<TimedBatch> slow_batches = batches;
  slow_batches.push_back(TimedBatch{9.98, 210.0, 5400});
  for (int i = 0; i < 500; ++i) slow_reads.push_back(10.5 + 0.4 * i);
  const WindowCounts slow = CountWindow(0.0, 10.0, slow_reads, slow_batches);

  EXPECT_EQ(slow.reads, fast.reads);
  EXPECT_EQ(slow.batches, fast.batches);
  EXPECT_EQ(std::memcmp(&slow.query_qps, &fast.query_qps, sizeof(double)), 0);
  EXPECT_EQ(std::memcmp(&slow.ingest_rps, &fast.ingest_rps, sizeof(double)),
            0);
  EXPECT_DOUBLE_EQ(fast.query_qps, 100.0);
  EXPECT_DOUBLE_EQ(fast.ingest_rps, 249 * 5400 / 10.0);
}

TEST(WindowTest, BatchStraddlingTheWindowIsNotCounted) {
  const std::vector<TimedBatch> batches = {{0.5, 0.9, 10}, {0.9, 1.2, 20}};
  const WindowCounts c = CountWindow(0.0, 1.0, {}, batches);
  EXPECT_EQ(c.batches, 1u);
  EXPECT_EQ(c.records, 10u);
  EXPECT_DOUBLE_EQ(c.ingest_rps, 10.0);
}

/// Small inputs so the store-level tests stay fast.
Inputs SmallInputs() {
  InputOptions io;
  io.seed = 5;
  io.scale = 0.01;
  io.num_queries = 96;
  return MakeInputs(io);
}

TEST(ReplayTest, TracedReplayIsBitIdenticalToShardedStoreQuery) {
  const Inputs in = SmallInputs();
  ASSERT_FALSE(in.effective.empty());
  const auto ref = BuildReferenceTree(in);
  for (std::size_t shards : {1u, 4u, 16u}) {
    auto opened = OpenStore(in, shards, "");
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    const auto& store = opened.ValueOrDie();
    LayerTotals totals;
    std::vector<tar::KnntaResult> want;
    std::vector<tar::KnntaResult> got;
    std::vector<tar::KnntaResult> replayed;
    for (std::size_t i = 0; i < in.queries.size(); ++i) {
      const tar::KnntaQuery& q = in.queries[i];
      ASSERT_TRUE(ref->Query(q, &want).ok());
      ASSERT_TRUE(store->Query(q, &got).ok());
      ASSERT_TRUE(ReplayQuery(*store, q, i % 2 == 1, &replayed, &totals).ok());
      ASSERT_FALSE(replayed.empty());
      EXPECT_TRUE(SameResults(replayed, got)) << shards << " shards";
      EXPECT_TRUE(SameResults(got, want)) << shards << " shards";
    }
    EXPECT_EQ(totals.queries, in.queries.size());
    EXPECT_GT(totals.stats.aggregate_calls, 0u);
    EXPECT_GT(totals.heap_pushes, 0u);
    EXPECT_GT(totals.direct_tia_calls, 0u);
  }
}

TEST(ReplayTest, SameResultsComparesScoreBits) {
  tar::KnntaResult a{7, 0.25, 1.0, 3};
  tar::KnntaResult b = a;
  EXPECT_TRUE(SameResults({a}, {b}));
  b.score = std::nextafter(a.score, 1.0);
  EXPECT_FALSE(SameResults({a}, {b}));
  b = a;
  b.poi = 8;
  EXPECT_FALSE(SameResults({a}, {b}));
  EXPECT_FALSE(SameResults({a}, {}));
}

RunReport TracedRun(const std::string& workload) {
  RunOptions o;
  o.workload = workload;
  o.seed = 3;
  o.trace = true;
  o.scale = 0.01;
  o.num_queries = 64;
  o.traced_queries = 64;
  o.warm_up_s = 0.0;
  o.work_dir = "selftest-" + workload;
  RunReport report;
  const tar::Status st = RunWorkload(o, &report);
  EXPECT_TRUE(st.ok()) << st.ToString();
  EXPECT_TRUE(report.correct) << report.detail_json;
  return report;
}

TEST(RepeatabilityTest, NamedCountsRepeatExactlyAcrossSingleClientRuns) {
  for (const char* workload : {"read-1shard", "read-16shard"}) {
    const RunReport a = TracedRun(workload);
    const RunReport b = TracedRun(workload);
    for (const char* name : {"knnta.rtree_node_reads", "tia.aggregate_calls",
                             "buffer_pool.fetches_per_query"}) {
      ASSERT_EQ(a.metrics.count(name), 1u) << name;
      ASSERT_EQ(b.metrics.count(name), 1u) << name;
      const double x = a.metrics.at(name).value;
      const double y = b.metrics.at(name).value;
      EXPECT_GT(x, 0.0) << workload << " " << name;
      EXPECT_EQ(std::memcmp(&x, &y, sizeof(double)), 0)
          << workload << " " << name << ": " << x << " vs " << y;
    }
  }
}

TEST(RunTest, TracedIngestRunReportsEveryLayerMetric) {
  // Reads replayed against a store a writer thread appends to, durable
  // twins through the staged phases: every per-layer metric appears.
  const RunReport report = TracedRun("ingest-4shard");
  for (const char* name :
       {"tia.aggregate_us", "knnta.search_us", "sharded_store.append_ms",
        "snapshot_store.stage_ms", "snapshot_store.publish_us",
        "snapshot_store.catch_up_ms", "wal.bytes_per_record",
        "serve.self_us", "snapshot_store.pin_us", "bench.gen_late_p99_us",
        "bench.trace_overhead_pct"}) {
    EXPECT_EQ(report.metrics.count(name), 1u) << name;
  }
  EXPECT_GT(report.metrics.at("wal.bytes_per_record").value, 0.0);
  EXPECT_GT(report.metrics.at("sharded_store.append_ms").value, 0.0);
}

TEST(RunTest, UntracedRunReportsEveryEndToEndMetric) {
  RunOptions o;
  o.workload = "read-1shard";
  o.seed = 4;
  o.seconds = 1.0;
  o.scale = 0.01;
  o.num_queries = 64;
  o.rounds = 2;
  o.warm_up_s = 0.0;
  o.work_dir = "selftest-untraced";
  RunReport report;
  const tar::Status st = RunWorkload(o, &report);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_TRUE(report.correct) << report.detail_json;
  EXPECT_EQ(report.failed, 0u);
  for (const char* name :
       {"setup_s", "rss_mb", "query_p50_us", "query_p99_us", "query_qps",
        "query_cpu_us", "ingest_rps", "ingest_epoch_p50_ms",
        "ingest_epoch_p95_ms"}) {
    ASSERT_EQ(report.metrics.count(name), 1u) << name;
    EXPECT_GT(report.metrics.at(name).value, 0.0) << name;
  }
  EXPECT_FALSE(std::filesystem::exists(o.work_dir));
}

}  // namespace
}  // namespace perfbench
