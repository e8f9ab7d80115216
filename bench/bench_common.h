// Shared scaffolding for the figure/table reproduction benches: dataset
// preparation (synthetic presets or a real SNAP check-in file), index
// construction for each grouping strategy, timing and table printing.
//
// Environment knobs:
//   TAR_BENCH_SCALE    dataset scale factor (default 0.08, Table 2 0.03;
//                      1.0 = paper size)
//   TAR_BENCH_QUERIES  queries per measurement point (default 200)
//   TAR_GOWALLA_FILE   path to a SNAP-format check-in file; when set, the
//                      GW dataset is loaded from it instead of synthesized
#pragma once

#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/scan_baseline.h"
#include "core/tar_tree.h"
#include "data/generator.h"
#include "data/workload.h"

namespace tar::bench {

double ScaleFromEnv(double def = 0.08);
std::size_t QueriesFromEnv(std::size_t def = 200);

/// \brief A prepared data set: check-ins bucketed into epochs, effective
/// POIs selected by the per-data-set threshold.
struct BenchData {
  std::string name;
  Dataset data;
  EpochGrid grid;
  EpochCounts counts;
  std::vector<PoiId> effective;
  std::int64_t effective_threshold = 0;
};

/// Generates (or loads) and buckets one data set. `epoch_days` defaults to
/// the paper's 7-day epochs.
BenchData Prepare(const GeneratorConfig& config, int epoch_days = 7);

/// GW / GS bench presets: Table 4 configs at the bench scale, with the
/// power-law tail boosted so a few thousand POIs clear the effective-POI
/// thresholds at laptop scale (documented in EXPERIMENTS.md). GW honours
/// TAR_GOWALLA_FILE.
BenchData PrepareGw(int epoch_days = 7);
BenchData PrepareGs(int epoch_days = 7);

/// Builds a TAR-tree over the effective POIs with full histories.
std::unique_ptr<TarTree> BuildTree(const BenchData& bd,
                                   GroupingStrategy strategy,
                                   std::size_t node_size_bytes = 1024,
                                   std::size_t tia_buffer_slots = 10,
                                   TiaBackend backend = TiaBackend::kMvbt);

/// Builds the sequential-scan baseline over the same POIs.
std::unique_ptr<ScanBaseline> BuildScan(const BenchData& bd);

/// Paper workload: `n` queries, points sampled from the POIs, interval
/// lengths 2^0..2^9 days, k = 10, alpha0 = 0.3 (override after the call).
std::vector<KnntaQuery> PaperQueries(const BenchData& bd, std::size_t n,
                                     std::uint64_t seed = 7);

/// Re-buckets a prefix of the check-in stream: the LBSN as of
/// `fraction` of the observed period (Figure 8's growth snapshots).
BenchData PrepareSnapshot(const BenchData& bd, double fraction);

/// The four approaches of Section 8.2 built over one data set.
struct ApproachSet {
  std::unique_ptr<TarTree> ind_agg;
  std::unique_ptr<TarTree> ind_spa;
  std::unique_ptr<TarTree> tar;
  std::unique_ptr<ScanBaseline> scan;
};

ApproachSet BuildAll(const BenchData& bd, std::size_t node_size_bytes = 1024);

/// Mean per-query cost of one approach over a workload.
struct ApproachCost {
  double cpu_ms = 0.0;
  double node_accesses = 0.0;
  double tia_reads = 0.0;  ///< TIA page reads that missed the buffer
  double tia_hits = 0.0;   ///< TIA page reads the buffer served
};

ApproachCost RunQueries(const TarTree& tree,
                        const std::vector<KnntaQuery>& queries);
ApproachCost RunScan(const ScanBaseline& scan,
                     const std::vector<KnntaQuery>& queries);

/// Wall-clock milliseconds of `fn`.
double MeasureMs(const std::function<void()>& fn);

/// \brief Fixed-width results table writer (stdout + CSV under
/// bench_results/).
class Table {
 public:
  Table(const std::string& title, const std::vector<std::string>& columns);
  void AddRow(const std::vector<std::string>& cells);
  /// Prints the table and writes bench_results/<slug>.csv, quoting cells
  /// per RFC 4180. Exits the process if the CSV cannot be written.
  void Print() const;

  static std::string Num(double v, int precision = 3);

 private:
  std::string title_;
  std::vector<std::string> columns_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace tar::bench
