// The TIA contract must hold identically on both backends (MVBT and
// flat); the TAR-tree query results must not depend on the backend.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>

#include "common/deadline.h"
#include "common/random.h"
#include "core/scan_baseline.h"
#include "core/tar_tree.h"
#include "temporal/tia.h"

namespace tar {

/// Test-only access to a flat TIA's prefix sums (friend of Tia).
class TiaTestPeer {
 public:
  static std::vector<std::int64_t>& FlatPrefix(Tia* tia) {
    return tia->flat_->prefix;
  }
};

namespace {

constexpr Timestamp kEpochLen = 7 * kSecondsPerDay;

TimeInterval Epoch(std::int64_t i) {
  return {i * kEpochLen, (i + 1) * kEpochLen - 1};
}

class TiaBackendTest : public ::testing::TestWithParam<TiaBackend> {
 protected:
  TiaBackendTest() : file_(1024), pool_(&file_, 10) {}

  Tia MakeTia() { return Tia(&file_, &pool_, next_owner_++, GetParam()); }

  PageFile file_;
  BufferPool pool_;
  OwnerId next_owner_ = 1;
};

TEST_P(TiaBackendTest, AppendAggregateContract) {
  Tia tia = MakeTia();
  ASSERT_TRUE(tia.Append(Epoch(0), 3).ok());
  ASSERT_TRUE(tia.Append(Epoch(1), 5).ok());
  ASSERT_TRUE(tia.Append(Epoch(3), 4).ok());
  EXPECT_EQ(tia.Aggregate({Epoch(0).start, Epoch(3).end}).ValueOrDie(), 12);
  EXPECT_EQ(tia.Aggregate(Epoch(1)).ValueOrDie(), 5);
  EXPECT_EQ(
      tia.Aggregate({Epoch(1).start + 1, Epoch(3).end}).ValueOrDie(), 4);
  // A record that ends after iq.end is not contained either.
  EXPECT_EQ(tia.Aggregate({Epoch(0).start, Epoch(3).end - 1}).ValueOrDie(),
            8);
  EXPECT_EQ(tia.total(), 12);
  EXPECT_EQ(tia.num_records(), 3u);
  // Duplicate epochs are rejected on both backends.
  EXPECT_FALSE(tia.Append(Epoch(1), 9).ok());
}

TEST_P(TiaBackendTest, RaiseToContract) {
  Tia tia = MakeTia();
  ASSERT_TRUE(tia.RaiseTo(Epoch(2), 4).ok());
  ASSERT_TRUE(tia.RaiseTo(Epoch(2), 2).ok());
  EXPECT_EQ(tia.Aggregate(Epoch(2)).ValueOrDie(), 4);
  ASSERT_TRUE(tia.RaiseTo(Epoch(2), 9).ok());
  EXPECT_EQ(tia.Aggregate(Epoch(2)).ValueOrDie(), 9);
  EXPECT_EQ(tia.total(), 9);
  EXPECT_EQ(tia.num_records(), 1u);
}

TEST_P(TiaBackendTest, LongHistoryMatchesNaiveSum) {
  Tia tia = MakeTia();
  Rng rng(31);
  std::vector<std::int64_t> per_epoch(300, 0);
  for (int i = 0; i < 300; ++i) {
    if (rng.Uniform() < 0.7) {
      per_epoch[i] = rng.UniformInt(1, 40);
      ASSERT_TRUE(tia.Append(Epoch(i), per_epoch[i]).ok());
    }
  }
  for (int trial = 0; trial < 40; ++trial) {
    std::int64_t a = rng.UniformInt(0, 299);
    std::int64_t b = rng.UniformInt(a, 299);
    std::int64_t naive = 0;
    for (std::int64_t i = a; i <= b; ++i) naive += per_epoch[i];
    EXPECT_EQ(tia.Aggregate({Epoch(a).start, Epoch(b).end}).ValueOrDie(),
              naive);
  }
  std::vector<TiaRecord> records;
  ASSERT_TRUE(tia.Records(&records).ok());
  for (std::size_t i = 1; i < records.size(); ++i) {
    EXPECT_LT(records[i - 1].extent.start, records[i].extent.start);
  }
}

TEST_P(TiaBackendTest, RejectsUnpackableRecordsOnBothPaths) {
  Tia tia = MakeTia();
  // The packed representation holds the aggregate in 32 bits and the
  // epoch duration in 31 bits; anything larger must be rejected by both
  // Append and RaiseTo (RaiseTo used to skip these checks and silently
  // corrupt the duration bits — regression).
  const std::int64_t big_agg = std::int64_t{1} << 32;
  const TimeInterval long_epoch{0, (std::int64_t{1} << 31) - 1};  // 2^31 s
  EXPECT_TRUE(tia.Append(Epoch(0), big_agg).IsInvalidArgument());
  EXPECT_TRUE(tia.RaiseTo(Epoch(0), big_agg).IsInvalidArgument());
  EXPECT_TRUE(tia.Append(long_epoch, 1).IsInvalidArgument());
  EXPECT_TRUE(tia.RaiseTo(long_epoch, 1).IsInvalidArgument());
  EXPECT_TRUE(tia.RaiseTo({100, 50}, 1).IsInvalidArgument());
  EXPECT_EQ(tia.num_records(), 0u);
  EXPECT_EQ(tia.total(), 0);
  // Raise-to-nothing on a valid extent stays a no-op.
  EXPECT_TRUE(tia.RaiseTo(Epoch(0), 0).ok());
  EXPECT_EQ(tia.num_records(), 0u);

  // The largest packable record round-trips exactly.
  const std::int64_t max_agg = (std::int64_t{1} << 32) - 1;
  const TimeInterval max_epoch{0, (std::int64_t{1} << 31) - 2};
  ASSERT_TRUE(tia.Append(max_epoch, max_agg).ok());
  std::vector<TiaRecord> records;
  ASSERT_TRUE(tia.Records(&records).ok());
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0], (TiaRecord{max_epoch, max_agg}));
}

TEST_P(TiaBackendTest, RaiseToValidationProtectsExistingRecord) {
  Tia tia = MakeTia();
  ASSERT_TRUE(tia.Append(Epoch(1), 5).ok());
  // Before validation, this packed garbage over the stored duration bits.
  EXPECT_TRUE(
      tia.RaiseTo(Epoch(1), std::int64_t{1} << 32).IsInvalidArgument());
  EXPECT_EQ(tia.Aggregate(Epoch(1)).ValueOrDie(), 5);
  EXPECT_EQ(tia.total(), 5);
  std::vector<TiaRecord> records;
  ASSERT_TRUE(tia.Records(&records).ok());
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0], (TiaRecord{Epoch(1), 5}));
}

TEST_P(TiaBackendTest, RecordsIncludesMaxStorableKey) {
  Tia tia = MakeTia();
  // INT64_MAX itself is the backends' reserved sentinel key, so the
  // highest storable epoch start is INT64_MAX - 1. The full-history scan
  // is closed at both ends (regression: an exclusive-looking upper bound
  // dropped the record at the maximum key).
  const std::int64_t max_start =
      std::numeric_limits<std::int64_t>::max() - 1;
  const TimeInterval last_second{max_start, max_start};
  ASSERT_TRUE(tia.Append(Epoch(0), 3).ok());
  ASSERT_TRUE(tia.Append(last_second, 7).ok());
  std::vector<TiaRecord> records;
  ASSERT_TRUE(tia.Records(&records).ok());
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[1], (TiaRecord{last_second, 7}));
  EXPECT_EQ(tia.Aggregate({max_start,
                           std::numeric_limits<std::int64_t>::max()})
                .ValueOrDie(),
            7);
  // CheckBackend exercises the same full-range scan on the MVBT side
  // (CountAlive had the same off-by-one bound).
  EXPECT_TRUE(tia.CheckBackend().ok());
  // The sentinel key itself is rejected, not silently dropped.
  const std::int64_t sentinel = std::numeric_limits<std::int64_t>::max();
  EXPECT_FALSE(tia.Append({sentinel, sentinel}, 1).ok());
}

INSTANTIATE_TEST_SUITE_P(Backends, TiaBackendTest,
                         ::testing::Values(TiaBackend::kMvbt,
                                           TiaBackend::kFlat),
                         [](const ::testing::TestParamInfo<TiaBackend>& i) {
                           return i.param == TiaBackend::kMvbt ? "Mvbt"
                                                               : "Flat";
                         });

TEST(TarTreeBackendTest, QueryResultsIndependentOfTiaBackend) {
  Rng rng(47);
  const std::size_t kPois = 300;
  const std::size_t kEpochs = 20;

  TarTreeOptions base;
  base.strategy = GroupingStrategy::kIntegral3D;
  base.node_size_bytes = 512;
  base.grid = EpochGrid(0, kEpochLen);
  base.space = Box2::Union(Box2::FromPoint({0, 0}),
                           Box2::FromPoint({100, 100}));
  TarTreeOptions flat = base;
  flat.tia_backend = TiaBackend::kFlat;

  TarTree on_mvbt(base);
  TarTree on_flat(flat);
  ScanBaseline scan(base.grid, base.space);

  for (std::size_t i = 0; i < kPois; ++i) {
    Poi p{static_cast<PoiId>(i),
          {rng.Uniform(0, 100), rng.Uniform(0, 100)}};
    std::vector<std::int32_t> hist(kEpochs, 0);
    std::int64_t total =
        static_cast<std::int64_t>(std::pow(10.0, rng.Uniform(0.0, 2.0)));
    for (std::int64_t c = 0; c < total; ++c) {
      ++hist[rng.UniformInt(0, kEpochs - 1)];
    }
    ASSERT_TRUE(on_mvbt.InsertPoi(p, hist).ok());
    ASSERT_TRUE(on_flat.InsertPoi(p, hist).ok());
    ASSERT_TRUE(scan.AddPoi(p, hist).ok());
  }
  ASSERT_TRUE(on_flat.CheckInvariants().ok());

  for (int trial = 0; trial < 25; ++trial) {
    KnntaQuery q;
    q.point = {rng.Uniform(0, 100), rng.Uniform(0, 100)};
    std::int64_t e0 = rng.UniformInt(0, kEpochs - 1);
    std::int64_t e1 = rng.UniformInt(e0, kEpochs - 1);
    q.interval = {e0 * kEpochLen, (e1 + 1) * kEpochLen - 1};
    q.k = 1 + trial % 15;
    q.alpha0 = rng.Uniform(0.1, 0.9);

    std::vector<KnntaResult> a, b, want;
    ASSERT_TRUE(on_mvbt.Query(q, &a).ok());
    ASSERT_TRUE(on_flat.Query(q, &b).ok());
    ASSERT_TRUE(scan.Query(q, &want).ok());
    ASSERT_EQ(a.size(), want.size());
    ASSERT_EQ(b.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(a[i].poi, b[i].poi) << "trial " << trial << " rank " << i;
      EXPECT_NEAR(a[i].score, want[i].score, 1e-12);
      EXPECT_NEAR(b[i].score, want[i].score, 1e-12);
    }
  }
}

// ---------------------------------------------------------------------------
// Flat backend specifics: out-of-order maintenance, overlap refusal, the
// prefix-sum invariant and the no-page read path.

TEST(FlatTiaTest, OutOfOrderRaiseToKeepsPrefixSumsExact) {
  PageFile file(1024);
  BufferPool pool(&file, 10);
  Tia tia(&file, &pool, /*owner=*/1, TiaBackend::kFlat);
  Rng rng(53);
  std::map<std::int64_t, std::int64_t> oracle;  // epoch -> aggregate
  for (int op = 0; op < 400; ++op) {
    // Epochs land before, between and after the stored ones, the way a
    // bulk build raises internal TIAs out of epoch order.
    const std::int64_t e = rng.UniformInt(0, 120);
    const std::int64_t agg = rng.UniformInt(1, 500);
    ASSERT_TRUE(tia.RaiseTo(Epoch(e), agg).ok()) << "op " << op;
    oracle[e] = std::max(oracle[e], agg);

    ASSERT_TRUE(tia.CheckBackend().ok()) << "op " << op;
    const std::vector<std::int64_t>& prefix = TiaTestPeer::FlatPrefix(&tia);
    ASSERT_EQ(prefix.size(), oracle.size() + 1);
    std::int64_t running = 0;
    std::size_t i = 0;
    for (const auto& [epoch, value] : oracle) {
      ASSERT_EQ(prefix[i], running) << "op " << op << " slot " << i;
      running += value;
      ++i;
    }
    ASSERT_EQ(prefix.back(), running);
    ASSERT_EQ(tia.total(), running);
    const std::int64_t a = rng.UniformInt(0, 120);
    const std::int64_t b = rng.UniformInt(a, 120);
    std::int64_t want = 0;
    for (auto it = oracle.lower_bound(a); it != oracle.end() && it->first <= b;
         ++it) {
      want += it->second;
    }
    ASSERT_EQ(tia.Aggregate({Epoch(a).start, Epoch(b).end}).ValueOrDie(),
              want)
        << "op " << op;
  }
  EXPECT_EQ(tia.num_records(), oracle.size());
}

TEST(FlatTiaTest, OverlappingExtentIsRefusedAndNothingStored) {
  PageFile file(1024);
  BufferPool pool(&file, 10);
  Tia tia(&file, &pool, /*owner=*/1, TiaBackend::kFlat);
  ASSERT_TRUE(tia.Append(Epoch(2), 5).ok());
  ASSERT_TRUE(tia.Append(Epoch(4), 7).ok());
  const std::vector<TimeInterval> overlapping = {
      {Epoch(1).start, Epoch(2).start},       // ends inside epoch 2
      {Epoch(2).start + 1, Epoch(3).end},     // starts inside epoch 2
      {Epoch(3).start, Epoch(4).start + 10},  // runs into epoch 4
      {Epoch(1).start, Epoch(5).end},         // covers both
  };
  for (const TimeInterval& extent : overlapping) {
    SCOPED_TRACE(std::to_string(extent.start) + ".." +
                 std::to_string(extent.end));
    EXPECT_TRUE(tia.Append(extent, 9).IsInvalidArgument());
    EXPECT_TRUE(tia.RaiseTo(extent, 9).IsInvalidArgument());
  }
  // A stored start with another end: Append sees a duplicate epoch, as on
  // the MVBT, and RaiseTo an extent that overlaps the stored one.
  const TimeInterval shorter{Epoch(2).start, Epoch(2).end - 1};
  EXPECT_TRUE(tia.Append(shorter, 9).IsAlreadyExists());
  EXPECT_TRUE(tia.RaiseTo(shorter, 9).IsInvalidArgument());
  EXPECT_TRUE(tia.Append(Epoch(2), 9).IsAlreadyExists());
  // Nothing was stored or raised by any refused call.
  std::vector<TiaRecord> records;
  ASSERT_TRUE(tia.Records(&records).ok());
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0], (TiaRecord{Epoch(2), 5}));
  EXPECT_EQ(records[1], (TiaRecord{Epoch(4), 7}));
  EXPECT_EQ(tia.total(), 12);
  EXPECT_EQ(tia.num_records(), 2u);
  EXPECT_TRUE(tia.CheckBackend().ok());
  // The gap between the stored epochs still takes a record.
  EXPECT_TRUE(tia.Append(Epoch(3), 1).ok());
  EXPECT_EQ(tia.Aggregate({Epoch(2).start, Epoch(4).end}).ValueOrDie(), 13);
}

TEST(FlatTiaTest, CheckBackendReportsDamagedPrefixEntry) {
  PageFile file(1024);
  BufferPool pool(&file, 10);
  Tia tia(&file, &pool, /*owner=*/1, TiaBackend::kFlat);
  for (std::int64_t e = 0; e < 6; ++e) {
    ASSERT_TRUE(tia.Append(Epoch(2 * e), e + 1).ok());
  }
  ASSERT_TRUE(tia.CheckBackend().ok());
  std::vector<std::int64_t>& prefix = TiaTestPeer::FlatPrefix(&tia);
  for (std::size_t i = 0; i < prefix.size(); ++i) {
    SCOPED_TRACE("prefix slot " + std::to_string(i));
    ++prefix[i];
    EXPECT_TRUE(tia.CheckBackend().IsCorruption());
    --prefix[i];
  }
  prefix.push_back(prefix.back());
  EXPECT_TRUE(tia.CheckBackend().IsCorruption());
  prefix.pop_back();
  EXPECT_TRUE(tia.CheckBackend().ok());
}

TEST(FlatTiaTest, FlatTreeReadsNoPage) {
  TarTreeOptions opt;
  opt.node_size_bytes = 512;
  opt.tia_backend = TiaBackend::kFlat;
  opt.grid = EpochGrid(0, kEpochLen);
  opt.space = Box2::Union(Box2::FromPoint({0, 0}),
                          Box2::FromPoint({100, 100}));
  TarTree tree(opt);
  Rng rng(59);
  for (PoiId id = 0; id < 120; ++id) {
    std::vector<std::int32_t> hist(12, 0);
    for (int c = 0; c < 20; ++c) ++hist[rng.UniformInt(0, 11)];
    ASSERT_TRUE(
        tree.InsertPoi({id, {rng.Uniform(0, 100), rng.Uniform(0, 100)}}, hist)
            .ok());
  }
  EXPECT_EQ(tree.tia_buffer_pool()->file()->num_pages(), 0u);

  // A one-page TIA budget would trip on the first MVBT scan; on flat TIAs
  // it never does, because nothing is charged.
  QueryBudget budget;
  budget.max_tia_page_reads = 1;
  QueryDeadline deadline(budget);
  KnntaQuery q;
  q.point = {50, 50};
  q.interval = {0, 12 * kEpochLen - 1};
  q.k = 5;
  q.alpha0 = 0.3;
  std::vector<KnntaResult> results;
  AccessStats stats;
  ASSERT_TRUE(tree.Query(q, &results, &stats, nullptr, &deadline).ok());
  EXPECT_EQ(results.size(), 5u);
  EXPECT_GT(stats.aggregate_calls, 0u);
  EXPECT_EQ(stats.tia_page_reads, 0u);
  EXPECT_EQ(stats.tia_buffer_hits, 0u);
  EXPECT_EQ(deadline.tia_page_reads(), 0u);
}

}  // namespace
}  // namespace tar
