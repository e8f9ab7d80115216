#include "bench/bench_common.h"

#include <sys/stat.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>

#include "data/loader.h"

namespace tar::bench {

double ScaleFromEnv(double def) {
  const char* s = std::getenv("TAR_BENCH_SCALE");
  if (s == nullptr) return def;
  double v = std::atof(s);
  return v > 0.0 ? v : def;
}

std::size_t QueriesFromEnv(std::size_t def) {
  const char* s = std::getenv("TAR_BENCH_QUERIES");
  if (s == nullptr) return def;
  long v = std::atol(s);
  return v > 0 ? static_cast<std::size_t>(v) : def;
}

namespace {

/// Buckets `data` into the epochs of `grid` and keeps the POIs with at
/// least `threshold` check-ins.
BenchData Bucket(std::string name, Dataset data, const EpochGrid& grid,
                 std::int64_t threshold) {
  BenchData bd;
  bd.name = std::move(name);
  bd.data = std::move(data);
  bd.grid = grid;
  bd.counts = BuildEpochCounts(bd.data, bd.grid);
  bd.effective = EffectivePois(bd.counts, threshold);
  bd.effective_threshold = threshold;
  return bd;
}

/// RFC 4180: a cell holding a comma, quote or line break is quoted, with
/// its quotes doubled.
std::string CsvCell(const std::string& cell) {
  if (cell.find_first_of(",\"\r\n") == std::string::npos) return cell;
  std::string quoted = "\"";
  for (char ch : cell) {
    if (ch == '"') quoted += '"';
    quoted += ch;
  }
  return quoted + "\"";
}

}  // namespace

BenchData Prepare(const GeneratorConfig& config, int epoch_days) {
  return Bucket(config.name, GenerateLbsn(config),
                EpochGrid(0, epoch_days * kSecondsPerDay),
                config.effective_threshold);
}

BenchData PrepareGw(int epoch_days) {
  if (const char* path = std::getenv("TAR_GOWALLA_FILE")) {
    auto res = LoadSnapCheckinsFile(path);
    if (res.ok()) {
      return Bucket("GW(file)", std::move(res).ValueOrDie(),
                    EpochGrid(0, epoch_days * kSecondsPerDay), 100);
    }
    std::fprintf(stderr, "warning: cannot load %s (%s); using synthetic\n",
                 path, res.status().ToString().c_str());
  }
  GeneratorConfig cfg = GwConfig(ScaleFromEnv());
  // At laptop scale the paper's threshold of 100 check-ins would leave too
  // few effective POIs with the real 2% tail; boost the tail so a few
  // thousand POIs qualify (see EXPERIMENTS.md, "scaling").
  cfg.tail_fraction = 0.08;
  return Prepare(cfg, epoch_days);
}

BenchData PrepareGs(int epoch_days) {
  GeneratorConfig cfg = GsConfig(ScaleFromEnv() * 3.0);
  cfg.tail_fraction = 0.12;
  return Prepare(cfg, epoch_days);
}

std::unique_ptr<TarTree> BuildTree(const BenchData& bd,
                                   GroupingStrategy strategy,
                                   std::size_t node_size_bytes,
                                   std::size_t tia_buffer_slots,
                                   TiaBackend backend) {
  TarTreeOptions opt;
  opt.strategy = strategy;
  opt.node_size_bytes = node_size_bytes;
  opt.tia_buffer_slots = tia_buffer_slots;
  opt.tia_backend = backend;
  opt.grid = bd.grid;
  opt.space = bd.data.bounds;
  auto tree = std::make_unique<TarTree>(opt);
  std::int64_t max_total = 0;
  for (PoiId id : bd.effective) {
    max_total = std::max(max_total, bd.counts.Total(id));
  }
  tree->SeedMaxTotal(max_total);
  for (PoiId id : bd.effective) {
    Status st = tree->InsertPoi(bd.data.pois[id], bd.counts.counts[id]);
    if (!st.ok()) {
      std::fprintf(stderr, "InsertPoi failed: %s\n", st.ToString().c_str());
      std::abort();
    }
  }
  return tree;
}

std::unique_ptr<ScanBaseline> BuildScan(const BenchData& bd) {
  auto scan = std::make_unique<ScanBaseline>(bd.grid, bd.data.bounds);
  for (PoiId id : bd.effective) {
    Status st = scan->AddPoi(bd.data.pois[id], bd.counts.counts[id]);
    if (!st.ok()) {
      std::fprintf(stderr, "AddPoi failed: %s\n", st.ToString().c_str());
      std::abort();
    }
  }
  return scan;
}

std::vector<KnntaQuery> PaperQueries(const BenchData& bd, std::size_t n,
                                     std::uint64_t seed) {
  WorkloadConfig wl;
  wl.num_queries = n;
  wl.seed = seed;
  return MakeQueries(bd.data, wl);
}

BenchData PrepareSnapshot(const BenchData& bd, double fraction) {
  return Bucket(bd.name,
                bd.data.SnapshotUntil(
                    static_cast<Timestamp>(bd.data.t_end * fraction)),
                bd.grid, bd.effective_threshold);
}

ApproachSet BuildAll(const BenchData& bd, std::size_t node_size_bytes) {
  ApproachSet set;
  set.ind_agg = BuildTree(bd, GroupingStrategy::kAggregate, node_size_bytes);
  set.ind_spa = BuildTree(bd, GroupingStrategy::kSpatial, node_size_bytes);
  set.tar = BuildTree(bd, GroupingStrategy::kIntegral3D, node_size_bytes);
  set.scan = BuildScan(bd);
  return set;
}

ApproachCost RunQueries(const TarTree& tree,
                        const std::vector<KnntaQuery>& queries) {
  ApproachCost cost;
  if (queries.empty()) return cost;
  AccessStats stats;
  std::vector<KnntaResult> results;
  cost.cpu_ms = MeasureMs([&] {
    for (const KnntaQuery& q : queries) {
      Status st = tree.Query(q, &results, &stats);
      if (!st.ok()) {
        std::fprintf(stderr, "query failed: %s\n", st.ToString().c_str());
        std::abort();
      }
    }
  });
  const auto n = static_cast<double>(queries.size());
  cost.cpu_ms /= n;
  cost.node_accesses = static_cast<double>(stats.NodeAccesses()) / n;
  cost.tia_reads = static_cast<double>(stats.tia_page_reads) / n;
  cost.tia_hits = static_cast<double>(stats.tia_buffer_hits) / n;
  return cost;
}

ApproachCost RunScan(const ScanBaseline& scan,
                     const std::vector<KnntaQuery>& queries) {
  ApproachCost cost;
  if (queries.empty()) return cost;
  std::vector<KnntaResult> results;
  cost.cpu_ms = MeasureMs([&] {
    for (const KnntaQuery& q : queries) {
      Status st = scan.Query(q, &results);
      if (!st.ok()) {
        std::fprintf(stderr, "scan failed: %s\n", st.ToString().c_str());
        std::abort();
      }
    }
  });
  cost.cpu_ms /= static_cast<double>(queries.size());
  return cost;
}

double MeasureMs(const std::function<void()>& fn) {
  auto start = std::chrono::steady_clock::now();
  fn();
  auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(end - start).count();
}

Table::Table(const std::string& title, const std::vector<std::string>& cols)
    : title_(title), columns_(cols) {}

void Table::AddRow(const std::vector<std::string>& cells) {
  rows_.push_back(cells);
}

std::string Table::Num(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

void Table::Print() const {
  std::vector<std::size_t> widths(columns_.size());
  for (std::size_t c = 0; c < columns_.size(); ++c) {
    widths[c] = columns_[c].size();
    for (const auto& row : rows_) {
      if (c < row.size()) widths[c] = std::max(widths[c], row[c].size());
    }
  }
  std::printf("\n== %s ==\n", title_.c_str());
  for (std::size_t c = 0; c < columns_.size(); ++c) {
    std::printf("%-*s  ", static_cast<int>(widths[c]), columns_[c].c_str());
  }
  std::printf("\n");
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      std::printf("%-*s  ", static_cast<int>(widths[c]), row[c].c_str());
    }
    std::printf("\n");
  }
  std::fflush(stdout);

  // CSV alongside, for plotting; a CSV that cannot be written fails the run.
  ::mkdir("bench_results", 0755);
  std::string slug = title_;
  for (char& ch : slug) {
    if (!isalnum(static_cast<unsigned char>(ch))) ch = '_';
  }
  const std::string path = "bench_results/" + slug + ".csv";
  std::ofstream csv(path);
  auto write_line = [&csv](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      csv << CsvCell(cells[c]) << (c + 1 < cells.size() ? "," : "\n");
    }
  };
  write_line(columns_);
  for (const auto& row : rows_) write_line(row);
  csv.close();
  if (!csv) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    std::exit(1);
  }
}

}  // namespace tar::bench
