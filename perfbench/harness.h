// Serving benchmark harness: inputs generated from one seed, store set-up,
// the measured windows of the three workloads, the traced per-layer replay
// of ShardedStore::Query, and the statistics every run reports.
//
// The harness drives only public library calls. End-to-end numbers come
// from ShardedServer (Query, SubmitEpoch, WaitForIngest) on an untraced
// run; the per-layer split comes from a separate traced run that replays
// each query through the calls ShardedStore::Query is made of and feeds
// per-shard SnapshotStore twins through the staged write phases.
// perfbench/README.md lists the workloads and metrics.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/dataset.h"
#include "core/sharded_store.h"
#include "core/tar_tree.h"

namespace perfbench {

using Batch = std::unordered_map<tar::PoiId, std::int64_t>;

// --- Statistics ---

/// Samples a percentile needs beyond it before it is reported.
constexpr std::size_t kTailSamples = 10;

/// True when `n` samples leave at least kTailSamples above quantile `q`.
bool PercentileSupported(std::size_t n, double q);

/// The highest quantile that `n` samples support (0 when none does).
double HighestSupportedQuantile(std::size_t n);

/// Nearest-rank quantile `q` in [0, 1] of `values` (0 when empty).
double Quantile(std::vector<double> values, double q);

inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// The smallest of the values given for each key, one per key that
/// occurs, in ascending key order. A run that repeats the same work (one
/// query, one batch) keeps that work's fastest time: the time it takes
/// when nothing else on the host slows it.
std::vector<double> FloorsByKey(const std::vector<std::size_t>& keys,
                                const std::vector<double>& values);

// --- Window accounting ---

/// One epoch batch of a closed-loop writer, in seconds on one clock.
struct TimedBatch {
  double submit_s = 0.0;
  double done_s = 0.0;
  std::uint64_t records = 0;
};

/// What completed inside one measured window.
struct WindowCounts {
  std::uint64_t reads = 0;
  std::uint64_t batches = 0;
  std::uint64_t records = 0;
  double query_qps = 0.0;
  double ingest_rps = 0.0;
};

/// Counts only the reads that returned and the batches that were applied
/// inside [start_s, end_s], and divides by the window's length, so work
/// that drains after the window never dilutes or inflates a rate.
WindowCounts CountWindow(double start_s, double end_s,
                         const std::vector<double>& read_done_s,
                         const std::vector<TimedBatch>& batches);

// --- Workloads and inputs ---

struct WorkloadSpec {
  const char* name;
  std::size_t shards;
  bool durable;         ///< WAL-backed store (default group commit)
  bool ingest;          ///< writes run inside the measured window
  double read_rate_qps; ///< open-loop read rate; 0 = one closed-loop client
};

/// nullptr for an unknown name.
const WorkloadSpec* FindWorkload(const std::string& name);

struct InputOptions {
  std::uint64_t seed = 1;        ///< drives the query mix and write order
  double scale = 0.08;          ///< GW preset scale (the default bench scale)
  std::size_t num_queries = 256;
  bool preload_full = true;     ///< false: preload the first half only
};

/// Everything the store sees: the fixed GW data set, plus the query mix
/// and write order generated from one seed.
struct Inputs {
  tar::Dataset data;
  tar::EpochGrid grid;
  tar::EpochCounts counts;
  std::vector<tar::PoiId> effective;
  std::int64_t preload_epochs = 0;    ///< epochs each POI history holds
  std::uint64_t preload_records = 0;  ///< non-zero (POI, epoch) counts
  /// The paper query mix, placed inside the preloaded epochs.
  std::vector<tar::KnntaQuery> queries;
  /// Batches of the second half of the history, cycled by every writer
  /// from stream_offset on, with fresh epoch indices starting at
  /// first_stream_epoch.
  std::vector<Batch> stream;
  std::size_t stream_offset = 0;
  std::int64_t first_stream_epoch = 0;
};

Inputs MakeInputs(const InputOptions& options);

tar::TarTreeOptions TreeOptions(const Inputs& in);

/// Opens a store (durable when `prefix` is non-empty) and preloads it.
tar::Result<std::unique_ptr<tar::ShardedStore>> OpenStore(
    const Inputs& in, std::size_t shards, const std::string& prefix);

/// An unsharded tree over the same POIs and preloaded histories.
std::unique_ptr<tar::TarTree> BuildReferenceTree(const Inputs& in);

/// Bit-exact comparison: POI ids and aggregates, memcmp on score and
/// distance.
bool SameResults(const std::vector<tar::KnntaResult>& a,
                 const std::vector<tar::KnntaResult>& b);

// --- Traced replay ---

/// Per-layer totals accumulated over replayed queries.
struct LayerTotals {
  std::uint64_t queries = 0;
  std::uint64_t results = 0;
  double serve_us = 0.0;   ///< ShardedServer::Query
  double store_us = 0.0;   ///< ShardedStore::Query
  double pin_us = 0.0;     ///< SnapshotStore::Acquire over all shards
  double gmax_us = 0.0;    ///< per-shard MaxAggregate
  double search_us = 0.0;  ///< per-shard QueryWithContext
  double merge_us = 0.0;   ///< (score, poi_id) sort + truncate
  double traced_us = 0.0;         ///< gmax + search again, with a QueryTrace
  double traced_tia_us = 0.0;     ///< QueryTrace time inside TIA aggregation
  std::uint64_t heap_pushes = 0;  ///< from the QueryTrace phases
  tar::AccessStats stats;         ///< gmax + search, from the QueryTrace
  double direct_tia_us = 0.0;     ///< Tia::Aggregate timed by the harness
  std::uint64_t direct_tia_calls = 0;
};

/// Replays `query` through SnapshotStore::Acquire, TarTree::MaxAggregate,
/// TarTree::QueryWithContext and the merge, exactly as
/// ShardedStore::Query composes them, adding span times and counts to
/// `totals`. Gmax and search also run with a QueryTrace (TIA time, heap
/// pushes), before the untraced replay when `traced_first`, else after.
/// Then times Tia::Aggregate directly on the entries of the nodes along
/// each shard's best-first path. `results` receives the merged answer of
/// the untraced replay.
tar::Status ReplayQuery(const tar::ShardedStore& store,
                        const tar::KnntaQuery& query, bool traced_first,
                        std::vector<tar::KnntaResult>* results,
                        LayerTotals* totals);

// --- Process probes ---

double NowSeconds();
double ThreadCpuSeconds();
std::uint64_t RssBytes();
/// Returns freed heap to the system so RSS readings track live data.
void TrimHeap();

/// Spins 4 threads for `seconds`, so a host that slows idle virtual CPUs
/// has ramped them up before anything is measured.
void WarmUpHost(double seconds);

/// Effective cores at 1, 2 and 4 spinning threads (equal work per thread).
struct HostCalibration {
  double spin_ms_1 = 0.0;
  double effective_cores[3] = {0.0, 0.0, 0.0};
  std::string ToJson() const;
};
HostCalibration CalibrateHost();

// --- Runs ---

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;  ///< scratch space for durable stores
  /// Overrides (self-tests use small inputs): 0 / negative = default.
  double scale = 0.0;
  std::size_t num_queries = 0;
  int rounds = 0;
  std::size_t traced_queries = 0;
  double warm_up_s = -1.0;  ///< negative = kWarmUpSeconds
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct RunReport {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  std::string detail_json;  ///< sample counts, host block, checks
};

/// Runs one workload end to end (trace=false) or its traced replay
/// (trace=true). A non-OK status means the run could not be carried out;
/// wrong answers are reported through `report->correct`.
tar::Status RunWorkload(const RunOptions& options, RunReport* report);

}  // namespace perfbench
