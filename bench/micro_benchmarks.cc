// Micro-benchmarks (google-benchmark) for the core operations: MVBT
// insert/lookup/scan, TIA append/aggregate, TAR-tree insert and kNNTA
// query per grouping strategy.
#include <benchmark/benchmark.h>

#include "bench/bench_common.h"
#include "common/random.h"
#include "temporal/mvbt.h"
#include "temporal/tia.h"

namespace tar {
namespace {

void BM_MvbtInsert(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    PageFile file(1024);
    BufferPool pool(&file, 10);
    mvbt::Mvbt tree(&file, &pool, 1);
    state.ResumeTiming();
    for (int i = 0; i < state.range(0); ++i) {
      benchmark::DoNotOptimize(
          tree.Insert(i / 8, (i * 2654435761u) % 1000000, i));
    }
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

void BM_TiaAggregate(benchmark::State& state) {
  PageFile file(1024);
  BufferPool pool(&file, 10);
  Tia tia(&file, &pool, 1);
  const std::int64_t len = 7 * kSecondsPerDay;
  for (std::int64_t e = 0; e < state.range(0); ++e) {
    (void)tia.Append({e * len, (e + 1) * len - 1}, 1 + e % 9);
  }
  Rng rng(3);
  for (auto _ : state) {
    std::int64_t a = rng.UniformInt(0, state.range(0) - 1);
    std::int64_t b = rng.UniformInt(a, state.range(0) - 1);
    benchmark::DoNotOptimize(tia.Aggregate({a * len, (b + 1) * len - 1}));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TiaAggregate)->Arg(64)->Arg(512);

// The serving write pattern: one MVBT TIA appended its epochs in order,
// one record each (86 weekly epochs is perfbench's history length).
void BM_TiaAppend(benchmark::State& state) {
  const std::int64_t len = 7 * kSecondsPerDay;
  for (auto _ : state) {
    state.PauseTiming();
    PageFile file(1024);
    BufferPool pool(&file, 10);
    Tia tia(&file, &pool, 1);
    state.ResumeTiming();
    for (std::int64_t e = 0; e < state.range(0); ++e) {
      benchmark::DoNotOptimize(
          tia.Append({e * len, (e + 1) * len - 1}, 1 + e % 9));
    }
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
    TarTree tree(opt);
    state.ResumeTiming();
    for (int i = 0; i < state.range(0); ++i) {
      std::vector<std::int32_t> hist(epochs, 0);
      hist[i % epochs] = 1 + i % 13;
      (void)tree.InsertPoi(
          {static_cast<PoiId>(i),
           {rng.Uniform(0, 100), rng.Uniform(0, 100)}},
          hist);
    }
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
