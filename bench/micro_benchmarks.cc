// Micro-benchmarks (google-benchmark) for the core operations: MVBT
// insert/lookup/scan, TIA append/aggregate, TAR-tree insert and kNNTA
// query per grouping strategy. Benchmarks that build a fresh structure per
// iteration build and destroy it with timing paused, so they time only
// the operations they name.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "bench/bench_common.h"
#include "common/random.h"
#include "temporal/mvbt.h"
#include "temporal/tia.h"

namespace tar {
namespace {

constexpr std::int64_t kWeek = 7 * kSecondsPerDay;

/// A page file with its buffer pool (1 KiB pages, the paper's 10 slots per
/// owner), which a TIA or an MVBT pages through.
struct Storage {
  PageFile file{1024};
  BufferPool pool{&file, 10};
};

/// One MVBT over its own storage.
struct MvbtStore : Storage {
  mvbt::Mvbt tree{&file, &pool, 1};
};

/// One MVBT TIA over its own storage.
struct TiaStore : Storage {
  Tia tia{&file, &pool, 1};
};

void BM_MvbtInsert(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    auto store = std::make_unique<MvbtStore>();
    state.ResumeTiming();
    for (int i = 0; i < state.range(0); ++i) {
      benchmark::DoNotOptimize(
          store->tree.Insert(i / 8, (i * 2654435761u) % 1000000, i));
    }
    state.PauseTiming();
    store.reset();  // unmapping the page blocks is not an insert
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MvbtInsert)->Arg(1000)->Arg(10000);

void BM_MvbtLookup(benchmark::State& state) {
  PageFile file(1024);
  BufferPool pool(&file, 10);
  mvbt::Mvbt tree(&file, &pool, 1);
  const int n = static_cast<int>(state.range(0));
  for (int i = 0; i < n; ++i) {
    (void)tree.Insert(i / 8, (i * 2654435761u) % 1000000, i);
  }
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        tree.Lookup(tree.last_version(), (i++ * 2654435761u) % 1000000));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MvbtLookup)->Arg(10000);

// One TIA read over and over: its object, pool slab and pages stay in L1,
// so this times the scan itself.
void BM_TiaAggregate(benchmark::State& state) {
  Storage storage;
  Tia tia(&storage.file, &storage.pool, 1);
  for (std::int64_t e = 0; e < state.range(0); ++e) {
    (void)tia.Append({e * kWeek, (e + 1) * kWeek - 1}, 1 + e % 9);
  }
  Rng rng(3);
  for (auto _ : state) {
    std::int64_t a = rng.UniformInt(0, state.range(0) - 1);
    std::int64_t b = rng.UniformInt(a, state.range(0) - 1);
    benchmark::DoNotOptimize(tia.Aggregate({a * kWeek, (b + 1) * kWeek - 1}));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TiaAggregate)->Arg(64)->Arg(512);

// TIAs read in turn, as a query reads them: range(0) MVBT TIAs of 86
// weekly epochs (perfbench's history) share one file and one pool, their
// epochs appended one epoch at a time across all of them as ingest does,
// so each TIA's pages lie far apart. Each iteration aggregates the next
// TIA, round-robin, over the next of a fixed set of random epoch-aligned
// intervals. Every page is resident after the warm-up pass, so every
// fetch is a pool hit; what the iterations wait on is getting each TIA
// object, pool slab and page into cache.
void BM_TiaAggregateAcrossTias(benchmark::State& state) {
  constexpr std::int64_t kEpochs = 86;
  const auto num_tias = static_cast<std::size_t>(state.range(0));
  Storage storage;
  std::vector<std::unique_ptr<Tia>> tias;
  for (std::size_t t = 0; t < num_tias; ++t) {
    tias.push_back(std::make_unique<Tia>(&storage.file, &storage.pool,
                                         static_cast<OwnerId>(t + 1)));
  }
  Rng rng(5);
  for (std::int64_t e = 0; e < kEpochs; ++e) {
    for (const std::unique_ptr<Tia>& tia : tias) {
      if (rng.UniformInt(0, 4) == 0) continue;  // no check-in this epoch
      (void)tia->Append({e * kWeek, (e + 1) * kWeek - 1},
                        rng.UniformInt(1, 40));
    }
  }
  std::vector<TimeInterval> intervals(1024);
  for (TimeInterval& iq : intervals) {
    const std::int64_t a = rng.UniformInt(0, kEpochs - 1);
    const std::int64_t b = rng.UniformInt(a, kEpochs - 1);
    iq = {a * kWeek, (b + 1) * kWeek - 1};
  }
  for (const std::unique_ptr<Tia>& tia : tias) {
    benchmark::DoNotOptimize(tia->Aggregate({0, kEpochs * kWeek - 1}));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        tias[i % num_tias]->Aggregate(intervals[i % intervals.size()]));
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TiaAggregateAcrossTias)->Arg(4096);

// The serving write pattern: one MVBT TIA appended its epochs in order,
// one record each (86 weekly epochs is perfbench's history length).
void BM_TiaAppend(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    auto store = std::make_unique<TiaStore>();
    state.ResumeTiming();
    for (std::int64_t e = 0; e < state.range(0); ++e) {
      benchmark::DoNotOptimize(
          store->tia.Append({e * kWeek, (e + 1) * kWeek - 1}, 1 + e % 9));
    }
    state.PauseTiming();
    store.reset();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TiaAppend)->Arg(86);

void BM_TarTreeInsert(benchmark::State& state) {
  Rng rng(7);
  const int epochs = 40;
  for (auto _ : state) {
    state.PauseTiming();
    TarTreeOptions opt;
    opt.grid = EpochGrid(0, 7 * kSecondsPerDay);
    opt.space =
        Box2::Union(Box2::FromPoint({0, 0}), Box2::FromPoint({100, 100}));
    auto tree = std::make_unique<TarTree>(opt);
    state.ResumeTiming();
    for (int i = 0; i < state.range(0); ++i) {
      std::vector<std::int32_t> hist(epochs, 0);
      hist[i % epochs] = 1 + i % 13;
      (void)tree->InsertPoi(
          {static_cast<PoiId>(i),
           {rng.Uniform(0, 100), rng.Uniform(0, 100)}},
          hist);
    }
    state.PauseTiming();
    tree.reset();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TarTreeInsert)->Arg(1000);

void QueryBenchmark(benchmark::State& state, GroupingStrategy strategy) {
  using namespace tar::bench;
  GeneratorConfig cfg = GwConfig(0.005, /*seed=*/5);
  cfg.tail_fraction = 0.08;
  BenchData bd = Prepare(cfg);
  auto tree = BuildTree(bd, strategy);
  std::vector<KnntaQuery> queries = PaperQueries(bd, 64);
  std::vector<KnntaResult> results;
  std::size_t qi = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        tree->Query(queries[qi++ % queries.size()], &results));
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_QueryTarTree(benchmark::State& state) {
  QueryBenchmark(state, GroupingStrategy::kIntegral3D);
}
void BM_QueryIndSpa(benchmark::State& state) {
  QueryBenchmark(state, GroupingStrategy::kSpatial);
}
void BM_QueryIndAgg(benchmark::State& state) {
  QueryBenchmark(state, GroupingStrategy::kAggregate);
}
BENCHMARK(BM_QueryTarTree);
BENCHMARK(BM_QueryIndSpa);
BENCHMARK(BM_QueryIndAgg);

}  // namespace
}  // namespace tar

BENCHMARK_MAIN();
