// The paper's evaluation (Section 8) plus three ablations:
//
//   paper_figures --fig <id> [--fig <id> ...]   (ids: see kFigures)
//   paper_figures --all
//
// Each figure prints the series the paper plots and writes one CSV per
// table under bench_results/ (environment knobs: see bench_common.h).
// Figures of one shape share a runner, so a figure's entry says only what
// its sweep changes.
#include <algorithm>
#include <cstdio>
#include <iterator>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench/bench_common.h"
#include "common/powerlaw.h"
#include "common/random.h"
#include "core/collective.h"
#include "core/cost_model.h"
#include "core/mwa.h"

using namespace tar;
using namespace tar::bench;

namespace {

struct DataSet {
  const char* name;
  BenchData (*prepare)(int epoch_days);
};
constexpr DataSet kDataSets[] = {{"GW", PrepareGw}, {"GS", PrepareGs}};

/// Runs `fn` on GW, then on GS, both with the paper's 7-day epochs.
template <typename Fn>
void ForEachDataSet(Fn fn) {
  for (const DataSet& ds : kDataSets) fn(ds.prepare(7));
}

// Table 2: power-law fit of the per-POI aggregate values on the four data
// sets (n, beta-hat, xmin-hat, bootstrap p-value). The paper rules out the
// power-law hypothesis when p <= 0.1; all four data sets pass.

struct PaperRow {
  double beta;
  std::int64_t xmin;
  double p;
};

void FitOne(Table* table, const GeneratorConfig& cfg, const PaperRow& paper) {
  Dataset data = GenerateLbsn(cfg);
  std::vector<std::int64_t> totals(data.pois.size(), 0);
  for (const CheckIn& c : data.checkins) ++totals[c.poi];

  PowerLawFit fit = FitPowerLaw(totals);
  Rng rng(99);
  double p = PowerLawPValue(totals, fit, /*num_reps=*/50, rng);
  table->AddRow({cfg.name, std::to_string(totals.size()),
                 Table::Num(fit.beta, 2), std::to_string(fit.xmin),
                 Table::Num(p, 2), Table::Num(paper.beta, 2),
                 std::to_string(paper.xmin), Table::Num(paper.p, 2)});
}

void Table2() {
  double scale = ScaleFromEnv(0.03);
  std::printf("Table 2: power-law fitting (scale %.3f; p-value from 50 "
              "bootstrap replicates, power law ruled out iff p <= 0.1)\n",
              scale);
  Table table("Table 2 power-law fitting",
              {"Data", "n", "beta", "xmin", "p-value", "paper_beta",
               "paper_xmin", "paper_p"});
  // NYC and LA are the small data sets: give the fitter a few
  // hundred tail samples to lock onto.
  FitOne(&table, NycConfig(scale * 4.0), {3.20, 31, 0.68});
  FitOne(&table, LaConfig(scale * 6.0), {3.07, 16, 0.18});
  FitOne(&table, GwConfig(scale), {2.82, 85, 0.29});
  FitOne(&table, GsConfig(scale * 3.0), {2.19, 59, 0.21});
  table.Print();
}

// Query-parameter sweeps (figures 6, 7, 9, 10, 13, 14): k varies with
// alpha0 = 0.3, or alpha0 varies with k = 10 — the paper's defaults, which
// PaperQueries also uses.

struct QueryPoint {
  std::string label;
  std::size_t k;
  double alpha0;
};

struct QuerySweep {
  const char* column;
  std::vector<QueryPoint> points;
};

QuerySweep VaryK(std::initializer_list<std::size_t> ks) {
  QuerySweep sweep{"k", {}};
  for (std::size_t k : ks) sweep.points.push_back({std::to_string(k), k, 0.3});
  return sweep;
}

QuerySweep VaryAlpha0() {
  QuerySweep sweep{"alpha0", {}};
  for (double alpha0 : {0.1, 0.3, 0.5, 0.7, 0.9}) {
    sweep.points.push_back({Table::Num(alpha0, 1), 10, alpha0});
  }
  return sweep;
}

// Figures 6-7: validation of the cost analysis — measured vs estimated
// f(pk) and leaf node accesses of the TAR-tree. The model is parameterized
// by the power-law fit of the aggregates over the reference interval;
// queries here use the full history interval so a single fit describes
// every query (see EXPERIMENTS.md).

void CostModelFigure(const std::string& title, std::uint64_t seed,
                     const QuerySweep& sweep) {
  ForEachDataSet([&](const BenchData& bd) {
    auto tree = BuildTree(bd, GroupingStrategy::kIntegral3D);
    std::vector<std::int64_t> aggs;
    for (PoiId id : bd.effective) aggs.push_back(bd.counts.Total(id));
    CostModelParams params = FitCostModel(aggs, tree->capacity());
    CostModel model(params);
    std::printf("%s: N=%zu beta=%.2f xmin=%lld xmax=%lld capacity=%zu\n",
                bd.name.c_str(), params.num_pois, params.beta,
                static_cast<long long>(params.xmin),
                static_cast<long long>(params.xmax), params.node_capacity);

    Rng rng(seed);
    std::size_t num_queries = QueriesFromEnv();
    Table table(title + " " + bd.name,
                {sweep.column, "f(pk)_measured", "f(pk)_estimated",
                 "leafNA_measured", "leafNA_estimated"});
    for (const QueryPoint& pt : sweep.points) {
      AccessStats stats;
      double fpk_sum = 0.0;
      std::size_t counted = 0;
      for (std::size_t qi = 0; qi < num_queries; ++qi) {
        const Poi& p = bd.data.pois[static_cast<std::size_t>(
            rng.UniformInt(0, (std::int64_t)bd.data.pois.size() - 1))];
        KnntaQuery q{p.pos, {0, bd.data.t_end}, pt.k, pt.alpha0};
        std::vector<KnntaResult> results;
        Status st = tree->Query(q, &results, &stats);
        if (!st.ok() || results.empty()) continue;
        fpk_sum += results.back().score;
        ++counted;
      }
      double measured_fpk = counted > 0 ? fpk_sum / counted : 0.0;
      double measured_na =
          static_cast<double>(stats.rtree_leaf_reads) / num_queries;
      table.AddRow({pt.label, Table::Num(measured_fpk),
                    Table::Num(model.EstimateFpk(pt.alpha0, pt.k)),
                    Table::Num(measured_na, 1),
                    Table::Num(model.EstimateNodeAccesses(pt.alpha0, pt.k),
                               1)});
    }
    table.Print();
  });
}

// Figures 8-12: the four approaches of Section 8.2 (sequential scan,
// IND-agg, IND-spa, TAR-tree) — mean CPU time and node accesses per query
// at each sweep value.

/// What a four-approach sweep carries from one point to the next. A
/// figure's step replaces only what its sweep changes; the rest carries
/// over, including the trees' TIA buffer-pool state.
struct ApproachPoint {
  ApproachSet set;
  std::vector<KnntaQuery> queries;
  /// Set when the sweep changes neither the data nor the queries: the
  /// scan is then timed once, not at every point.
  std::optional<ApproachCost> scan;
};

/// `step(value, &point)` prepares one point and returns its row label.
template <typename Values, typename Step>
void ApproachTables(const std::string& figure, const std::string& data,
                    const char* column, const Values& values,
                    ApproachPoint point, Step step) {
  Table cpu(figure + " CPU time (ms) " + data,
            {column, "baseline", "IND-agg", "IND-spa", "TAR-tree"});
  Table na(figure + " node accesses " + data,
           {column, "IND-agg", "IND-spa", "TAR-tree"});
  for (const auto& value : values) {
    const std::string label = step(value, &point);
    ApproachCost scan =
        point.scan ? *point.scan : RunScan(*point.set.scan, point.queries);
    ApproachCost agg = RunQueries(*point.set.ind_agg, point.queries);
    ApproachCost spa = RunQueries(*point.set.ind_spa, point.queries);
    ApproachCost tar = RunQueries(*point.set.tar, point.queries);
    cpu.AddRow({label, Table::Num(scan.cpu_ms), Table::Num(agg.cpu_ms),
                Table::Num(spa.cpu_ms), Table::Num(tar.cpu_ms)});
    na.AddRow({label, Table::Num(agg.node_accesses, 1),
               Table::Num(spa.node_accesses, 1),
               Table::Num(tar.node_accesses, 1)});
  }
  cpu.Print();
  na.Print();
}

/// Figure 8: the LBSN as it grows, as of 20%..100% of its observed period.
void Figure8() {
  ForEachDataSet([](const BenchData& full) {
    ApproachTables(
        "Figure 8", full.name, "time", std::vector{20, 40, 60, 80, 100}, {},
        [&](int pct, ApproachPoint* p) {
          BenchData snap = PrepareSnapshot(full, pct / 100.0);
          p->set = BuildAll(snap);
          p->queries = PaperQueries(snap, QueriesFromEnv(), 100 + pct);
          return std::to_string(pct) + "%";
        });
  });
}

/// Figures 9-10: one set of trees answers the paper workload at each k or
/// alpha0.
void QueryFigure(const std::string& figure, const QuerySweep& sweep) {
  ForEachDataSet([&](const BenchData& bd) {
    ApproachPoint point{BuildAll(bd), PaperQueries(bd, QueriesFromEnv()),
                        std::nullopt};
    ApproachTables(figure, bd.name, sweep.column, sweep.points,
                   std::move(point),
                   [](const QueryPoint& pt, ApproachPoint* p) {
                     for (KnntaQuery& q : p->queries) {
                       q.k = pt.k;
                       q.alpha0 = pt.alpha0;
                     }
                     return pt.label;
                   });
  });
}

/// Figure 11: epochs of 1 to 28 days. A longer epoch strengthens the
/// TAR-tree's pruning (a parent TIA is closer to its children's maxima)
/// and every approach sums fewer values.
void Figure11() {
  for (const DataSet& ds : kDataSets) {
    ApproachTables(
        "Figure 11", ds.name, "epoch_days", std::vector{1, 3, 7, 14, 28}, {},
        [&](int days, ApproachPoint* p) {
          BenchData bd = ds.prepare(days);
          p->set = BuildAll(bd);
          p->queries = PaperQueries(bd, QueriesFromEnv());
          return std::to_string(days);
        });
  }
}

/// Figure 12: R-tree nodes of 512 to 8192 bytes (node capacities scale
/// linearly with the size).
void Figure12() {
  ForEachDataSet([](const BenchData& bd) {
    ApproachPoint point;
    point.queries = PaperQueries(bd, QueriesFromEnv());
    point.scan = RunScan(*BuildScan(bd), point.queries);
    ApproachTables("Figure 12", bd.name, "node_bytes",
                   std::vector<std::size_t>{512, 1024, 2048, 4096, 8192},
                   std::move(point), [&](std::size_t bytes, ApproachPoint* p) {
                     p->set = BuildAll(bd, bytes);
                     return std::to_string(bytes);
                   });
  });
}

// Figures 13-14: the minimum weight adjustment, enumerating vs pruning —
// mean CPU time and node accesses per query. The enumerating baseline
// traverses the tree once per top-k POI, so the workload is 1/`divisor` of
// the query budget (the paper averages 1000 queries on a server).
void MwaFigure(const std::string& figure, std::uint64_t seed,
               std::size_t divisor, const QuerySweep& sweep) {
  ForEachDataSet([&](const BenchData& bd) {
    auto tree = BuildTree(bd, GroupingStrategy::kIntegral3D);
    std::size_t num_queries =
        std::max<std::size_t>(5, QueriesFromEnv() / divisor);
    std::vector<KnntaQuery> base = PaperQueries(bd, num_queries, seed);
    Table cpu(figure + " MWA CPU time (ms) " + bd.name,
              {sweep.column, "enumerating", "pruning"});
    Table na(figure + " MWA node accesses " + bd.name,
             {sweep.column, "enumerating", "pruning"});
    for (const QueryPoint& pt : sweep.points) {
      MwaResult mwa;
      auto run = [&](bool prune, AccessStats* stats) {
        return MeasureMs([&] {
          for (KnntaQuery q : base) {
            q.k = pt.k;
            q.alpha0 = pt.alpha0;
            Status st = prune ? ComputeMwaPruning(*tree, q, &mwa, stats)
                              : ComputeMwaEnumerating(*tree, q, &mwa, stats);
            if (!st.ok()) std::abort();
          }
        });
      };
      AccessStats enum_stats, prune_stats;
      double enum_ms = run(/*prune=*/false, &enum_stats);
      double prune_ms = run(/*prune=*/true, &prune_stats);
      double n = static_cast<double>(base.size());
      cpu.AddRow({pt.label, Table::Num(enum_ms / n), Table::Num(prune_ms / n)});
      na.AddRow({pt.label, Table::Num(enum_stats.NodeAccesses() / n, 1),
                 Table::Num(prune_stats.NodeAccesses() / n, 1)});
    }
    cpu.Print();
    na.Print();
  });
}

// Figures 15-16: collective vs individual processing of a query batch —
// mean CPU time and node accesses per query. As in the paper's setup, the
// TIAs get no buffer slots so the sharing comes from the algorithm, not
// the cache.
struct Batch {
  std::size_t queries;
  std::size_t types;
  std::uint64_t seed;
};

/// Figure 15 varies the batch size, figure 16 the number of interval types.
Batch Batch15(std::size_t n) { return {n, /*types=*/5, 41 + n}; }
Batch Batch16(std::size_t types) { return {1000, types, 59 + types}; }

void CollectiveFigure(const std::string& figure, const char* column,
                      std::initializer_list<std::size_t> values,
                      Batch (*batch_at)(std::size_t value)) {
  ForEachDataSet([&](const BenchData& bd) {
    auto tree = BuildTree(bd, GroupingStrategy::kIntegral3D,
                          /*node_size_bytes=*/1024, /*tia_buffer_slots=*/0);
    Table cpu(figure + " collective CPU time (ms) " + bd.name,
              {column, "individual", "collective"});
    Table na(figure + " collective node accesses " + bd.name,
             {column, "individual", "collective"});
    for (std::size_t value : values) {
      const Batch b = batch_at(value);
      WorkloadConfig wl;
      wl.seed = b.seed;
      std::vector<KnntaQuery> batch =
          MakeBatchQueries(bd.data, b.queries, b.types, wl);
      std::vector<std::vector<KnntaResult>> out;
      AccessStats ind_stats, col_stats;
      double ind_ms = MeasureMs([&] {
        Status st = ProcessIndividually(*tree, batch, &out, &ind_stats);
        if (!st.ok()) std::abort();
      });
      double col_ms = MeasureMs([&] {
        Status st = ProcessCollectively(*tree, batch, &out, &col_stats);
        if (!st.ok()) std::abort();
      });
      double d = static_cast<double>(b.queries);
      cpu.AddRow({std::to_string(value), Table::Num(ind_ms / d),
                  Table::Num(col_ms / d)});
      na.AddRow({std::to_string(value),
                 Table::Num(ind_stats.NodeAccesses() / d, 1),
                 Table::Num(col_stats.NodeAccesses() / d, 1)});
    }
    cpu.Print();
    na.Print();
  });
}

// Ablation: the TIA buffer quota. The paper fixes 10 slots per TIA (and 0
// in the collective experiments); this sweep shows how the buffer converts
// TIA page reads into hits and where it saturates.

void AblationTiaBuffer() {
  ForEachDataSet([](const BenchData& bd) {
    std::vector<KnntaQuery> queries = PaperQueries(bd, QueriesFromEnv());
    Table table("Ablation TIA buffer slots " + bd.name,
                {"slots", "node_accesses", "tia_reads", "tia_hits", "cpu_ms"});
    for (std::size_t slots : {0u, 1u, 2u, 5u, 10u, 50u}) {
      auto tree = BuildTree(bd, GroupingStrategy::kIntegral3D, 1024, slots);
      ApproachCost cost = RunQueries(*tree, queries);
      table.AddRow({std::to_string(slots), Table::Num(cost.node_accesses, 1),
                    Table::Num(cost.tia_reads, 1), Table::Num(cost.tia_hits, 1),
                    Table::Num(cost.cpu_ms)});
    }
    table.Print();
  });
}

// Ablation: freshness of the integral-3D z coordinates.
//
// The z coordinate of a POI depends on the global maximum check-in total,
// so grouping quality depends on *when* z was computed. This quantifies
// the effect the paper's Figure 8 discussion attributes to the TAR-tree
// "not adjusting promptly": (a) bulk build with z computed against the
// running maximum (stale), (b) bulk build with the maximum seeded up
// front, (c) grown epoch-by-epoch, (d) grown then Rebuild().

std::unique_ptr<TarTree> BuildStale(const BenchData& bd) {
  TarTreeOptions opt;
  opt.strategy = GroupingStrategy::kIntegral3D;
  opt.grid = bd.grid;
  opt.space = bd.data.bounds;
  auto tree = std::make_unique<TarTree>(opt);  // no SeedMaxTotal
  for (PoiId id : bd.effective) {
    if (!tree->InsertPoi(bd.data.pois[id], bd.counts.counts[id]).ok()) {
      std::abort();
    }
  }
  return tree;
}

std::unique_ptr<TarTree> BuildGrown(const BenchData& bd) {
  TarTreeOptions opt;
  opt.strategy = GroupingStrategy::kIntegral3D;
  opt.grid = bd.grid;
  opt.space = bd.data.bounds;
  auto tree = std::make_unique<TarTree>(opt);
  for (PoiId id : bd.effective) {
    if (!tree->InsertPoi(bd.data.pois[id], {}).ok()) std::abort();
  }
  for (std::int64_t e = 0; e < bd.counts.num_epochs; ++e) {
    std::unordered_map<PoiId, std::int64_t> batch;
    for (PoiId id : bd.effective) {
      const auto& h = bd.counts.counts[id];
      if (e < (std::int64_t)h.size() && h[e] > 0) batch[id] = h[e];
    }
    if (!tree->AppendEpoch(e, batch).ok()) std::abort();
  }
  return tree;
}

void AblationZFreshness() {
  ForEachDataSet([](const BenchData& bd) {
    std::vector<KnntaQuery> queries = PaperQueries(bd, QueriesFromEnv());
    Table table("Ablation z freshness " + bd.name,
                {"variant", "node_accesses", "cpu_ms"});

    auto report = [&](const char* label, TarTree& tree) {
      ApproachCost cost = RunQueries(tree, queries);
      table.AddRow({label, Table::Num(cost.node_accesses, 1),
                    Table::Num(cost.cpu_ms)});
    };

    auto stale = BuildStale(bd);
    report("bulk, running max (stale z)", *stale);
    auto seeded = BuildTree(bd, GroupingStrategy::kIntegral3D);
    report("bulk, seeded max", *seeded);
    auto grown = BuildGrown(bd);
    report("grown epoch-by-epoch", *grown);
    if (!grown->Rebuild().ok()) std::abort();
    report("grown + Rebuild()", *grown);

    table.Print();
  });
}

// Ablation: the TIA backend — the multiversion B-tree the paper uses vs
// flat in-memory prefix sums. Both answer identically (verified in tests);
// the comparison here is page accesses and CPU per query, plus the
// build-side cost. A flat TIA reads and allocates no page.

void AblationTiaBackend() {
  ForEachDataSet([](const BenchData& bd) {
    std::vector<KnntaQuery> queries = PaperQueries(bd, QueriesFromEnv());
    Table table("Ablation TIA backend " + bd.name,
                {"backend", "node_accesses", "tia_reads", "cpu_ms",
                 "build_ms", "tia_pages"});
    for (TiaBackend backend : {TiaBackend::kMvbt, TiaBackend::kFlat}) {
      std::unique_ptr<TarTree> tree;
      double build_ms = MeasureMs([&] {
        tree = BuildTree(bd, GroupingStrategy::kIntegral3D, 1024, 10, backend);
      });
      ApproachCost cost = RunQueries(*tree, queries);
      table.AddRow({ToString(backend), Table::Num(cost.node_accesses, 1),
                    Table::Num(cost.tia_reads, 1), Table::Num(cost.cpu_ms),
                    Table::Num(build_ms, 0),
                    std::to_string(
                        tree->tia_buffer_pool()->file()->num_pages())});
    }
    table.Print();
  });
}

struct Figure {
  const char* id;
  void (*run)();
};

/// Every figure, in --all order.
const Figure kFigures[] = {
    {"table2", Table2},
    {"6", [] { CostModelFigure("Figure 6 cost analysis vs k", 31,
                               VaryK({1, 5, 10, 50, 100})); }},
    {"7", [] { CostModelFigure("Figure 7 cost analysis vs alpha0", 37,
                               VaryAlpha0()); }},
    {"8", Figure8},
    {"9", [] { QueryFigure("Figure 9", VaryK({1, 5, 10, 50, 100})); }},
    {"10", [] { QueryFigure("Figure 10", VaryAlpha0()); }},
    {"11", Figure11},
    {"12", Figure12},
    {"13", [] { MwaFigure("Figure 13", 23, /*divisor=*/20,
                          VaryK({10, 50, 100, 500, 1000})); }},
    {"14", [] { MwaFigure("Figure 14", 29, /*divisor=*/10, VaryAlpha0()); }},
    {"15", [] { CollectiveFigure("Figure 15", "num_queries",
                                 {100, 500, 1000, 5000, 10000}, Batch15); }},
    {"16", [] { CollectiveFigure("Figure 16", "types", {1, 5, 10, 50, 100},
                                 Batch16); }},
    {"tia_buffer", AblationTiaBuffer},
    {"z_freshness", AblationZFreshness},
    {"tia_backend", AblationTiaBackend},
};

int Usage() {
  std::fprintf(stderr, "usage: paper_figures --fig <id> ... | --all\nids:");
  for (const Figure& f : kFigures) std::fprintf(stderr, " %s", f.id);
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<const Figure*> run;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--all") {
      for (const Figure& f : kFigures) run.push_back(&f);
      continue;
    }
    if (arg != "--fig" || i + 1 == argc) return Usage();
    const std::string id = argv[++i];
    auto it = std::find_if(std::begin(kFigures), std::end(kFigures),
                           [&](const Figure& f) { return id == f.id; });
    if (it == std::end(kFigures)) return Usage();
    run.push_back(it);
  }
  if (run.empty()) return Usage();
  for (const Figure* f : run) f->run();
  return 0;
}
