// Long-running sharded kNNTA server: the promotion of examples/
// batch_server from a one-shot batch harness to a service loop.
//
// A ShardedServer front-ends a ShardedStore with the PR-8 production
// concerns: admission control (an in-flight cap that sheds with a
// "retry-after-ms" hint sized from the rolling observed latency), a
// per-query deadline/work budget, and an asynchronous single-writer
// ingestion queue (epoch batches are applied by a background thread
// while readers keep querying — snapshot isolation makes the overlap
// safe, and the server counts how many reads completed while a write
// was in flight as direct evidence that readers are not excluded).
//
// RunMixedLoad drives a server with N reader threads plus the paced
// write stream for a fixed duration and reports throughput; the report's
// ToJson feeds BENCH_serve.json (bench/bench_serve.cc) and the CI smoke
// job.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/deadline.h"
#include "common/metrics.h"
#include "common/mutex.h"
#include "common/status.h"
#include "core/sharded_store.h"

namespace tar {

/// \brief Service knobs for a ShardedServer.
struct ServeOptions {
  /// Admission control: at most this many queries in flight; excess is
  /// shed with kUnavailable + "retry-after-ms". 0 = unbounded.
  std::size_t max_inflight = 0;

  /// Per-query budget (deadline, node-visit and TIA-page ceilings).
  QueryBudget budget;

  /// Checkpoint every N ingested epoch batches (durable stores only).
  /// 0 = never checkpoint during serving.
  std::size_t checkpoint_every = 0;

  /// Coverage mode while shards are quarantined (docs/internals.md,
  /// "Shard fault containment"). Strict (false): queries overlapping a
  /// quarantined shard fail fast with kUnavailable naming the shard and
  /// its root cause. Partial (true): queries degrade to the top-k
  /// over the available shards, annotated with the missing shards and a
  /// sound score bound (the PR-8 degradation contract).
  bool partial_coverage = false;

  /// Run the background repair worker: a thread that polls the store and
  /// calls RepairTick so quarantined shards self-heal under live traffic
  /// (each attempt paced by the per-shard circuit breaker).
  bool auto_repair = true;

  /// Poll cadence of the repair worker while any shard is unhealthy.
  double repair_poll_ms = 10.0;
};

/// \brief A copy of the server's service counters.
///
/// Each counter is read once, without a latch, so while queries run two
/// counters may be a few events apart; once the server is idle they agree.
struct ServerStats {
  std::uint64_t queries_ok = 0;
  std::uint64_t queries_shed = 0;
  std::uint64_t queries_failed = 0;
  /// Queries that completed while an epoch batch was being applied —
  /// nonzero proves readers are not excluded by the writer.
  std::uint64_t reads_during_write = 0;
  std::uint64_t epochs_ingested = 0;
  std::uint64_t checkpoints = 0;
  /// Queries answered with partial coverage (some shard quarantined) and
  /// queries refused because of a quarantined shard (strict mode).
  std::uint64_t reads_partial = 0;
  std::uint64_t reads_unavailable = 0;
  /// Queries that completed while at least one shard was quarantined or
  /// recovering — nonzero proves healthy shards keep serving through a
  /// shard fault.
  std::uint64_t reads_during_quarantine = 0;
  LatencySnapshot latency;  ///< completed queries, micros
  /// Per-shard health and quarantine/repair counters (from the store).
  ShardFaultStats fault;
};

/// \brief The server; see the file comment.
///
/// Thread safety: Query may be called from any number of threads;
/// SubmitEpoch from any thread (applied in submission order by one
/// background writer). Start/Stop are not thread-safe with each other.
class ShardedServer {
 public:
  /// `store` outlives the server; not owned.
  ShardedServer(ShardedStore* store, const ServeOptions& options);
  ~ShardedServer();

  ShardedServer(const ShardedServer&) = delete;
  ShardedServer& operator=(const ShardedServer&) = delete;

  /// Launches the ingestion thread. Idempotent.
  void Start();

  /// Stops accepting new batches, drains the ingestion queue, then stops
  /// the thread (new SubmitEpoch calls are rejected with kUnavailable as
  /// soon as Stop begins, so the drain terminates even with concurrent
  /// submitters; Start re-opens submission). Idempotent.
  void Stop();

  /// Client-facing query: admission check, deadline arm, sharded
  /// forest search. Shed queries return kUnavailable with a retry hint.
  Status Query(const KnntaQuery& query, std::vector<KnntaResult>* results);

  /// Enqueues an epoch batch for asynchronous ingestion. Rejected with
  /// kUnavailable once Stop has begun (until the next Start), and with
  /// the root-cause failure after an ingest error.
  Status SubmitEpoch(std::int64_t epoch,
                     std::unordered_map<PoiId, std::int64_t> aggs);

  /// Blocks until every submitted batch has been applied.
  void WaitForIngest();

  ServerStats stats() const;

  /// First ingestion failure, if any (OK while healthy). A failed batch
  /// stops the writer; reads continue on the last published version.
  Status ingest_status() const;

  ShardedStore* store() { return store_; }

 private:
  struct EpochBatch {
    std::int64_t epoch = 0;
    std::unordered_map<PoiId, std::int64_t> aggs;
    /// Times this batch bounced off a full redo buffer (kUnavailable)
    /// and was requeued to wait for repair to drain the backlog.
    int requeues = 0;
  };

  void IngestLoop();
  void RepairLoop();

  // tar-lint: allow(guarded-by) const pointer, bound for the server's life
  ShardedStore* const store_;
  const ServeOptions options_;

  std::atomic<std::int64_t> inflight_{0};
  /// True while the ingest thread is inside AppendEpoch/Checkpoint.
  std::atomic<bool> write_in_flight_{false};
  std::atomic<bool> stop_{false};
  /// The ingest thread handle; touched only by Start/Stop (see class
  /// comment), queue handoff goes through queue_mu_.
  // tar-lint: allow(guarded-by) owned by Start/Stop per the API contract
  std::thread ingest_thread_;
  /// The background repair worker (options_.auto_repair); same ownership
  /// contract as ingest_thread_. Stop() joins it before returning, so no
  /// repair — and no shard re-admission — can land after Stop.
  // tar-lint: allow(guarded-by) owned by Start/Stop per the API contract
  std::thread repair_thread_;
  std::atomic<bool> started_{false};

  mutable Mutex queue_mu_{LockRank::kServeIngestQueue, "serve.ingest_queue"};
  std::deque<EpochBatch> queue_ TAR_GUARDED_BY(queue_mu_);
  std::size_t queued_or_applying_ TAR_GUARDED_BY(queue_mu_) = 0;
  Status ingest_status_ TAR_GUARDED_BY(queue_mu_) = Status::OK();
  /// Set at the start of Stop (cleared by Start): rejects new
  /// submissions so the drain is bounded by the queue depth at Stop
  /// time, not racing submitters.
  bool stopping_ TAR_GUARDED_BY(queue_mu_) = false;

  // Service counters, bumped with relaxed atomic adds so a read takes no
  // latch; stats() assembles the snapshot.
  std::atomic<std::uint64_t> queries_ok_{0};
  std::atomic<std::uint64_t> queries_shed_{0};
  std::atomic<std::uint64_t> queries_failed_{0};
  std::atomic<std::uint64_t> reads_during_write_{0};
  std::atomic<std::uint64_t> epochs_ingested_{0};
  std::atomic<std::uint64_t> checkpoints_{0};
  std::atomic<std::uint64_t> reads_partial_{0};
  std::atomic<std::uint64_t> reads_unavailable_{0};
  std::atomic<std::uint64_t> reads_during_quarantine_{0};
  /// Completed queries, micros.
  // tar-lint: allow(guarded-by) LatencyHistogram records with atomics
  LatencyHistogram latency_;
};

/// \brief Load-shape knobs for RunMixedLoad.
struct MixedLoadOptions {
  std::size_t reader_threads = 4;
  double duration_ms = 1000.0;

  /// Query mix, cycled by every reader thread.
  std::vector<KnntaQuery> queries;

  /// Per-epoch aggregate batches, cycled by the write stream with
  /// strictly increasing epoch indices starting at `first_epoch`.
  std::vector<std::unordered_map<PoiId, std::int64_t>> epoch_batches;
  std::int64_t first_epoch = 0;

  /// Pause between epoch submissions (the ingestion pacing).
  double write_interval_ms = 5.0;
};

/// \brief What a mixed read/write run measured.
///
/// Counts cover the whole run, including the ingest drain after the
/// readers stop; the rates cover the reader window only.
struct MixedLoadReport {
  /// The reader window: start until the last reader (and the paced
  /// writer) stopped.
  double window_ms = 0.0;
  /// The reader window plus the drain of the batches still queued.
  double wall_ms = 0.0;
  std::uint64_t reads_ok = 0;
  std::uint64_t reads_shed = 0;
  std::uint64_t reads_failed = 0;
  std::uint64_t writes = 0;
  std::uint64_t reads_during_write = 0;
  std::uint64_t checkpoints = 0;
  std::uint64_t reads_partial = 0;
  std::uint64_t reads_unavailable = 0;
  std::uint64_t reads_during_quarantine = 0;
  std::uint64_t quarantines = 0;
  std::uint64_t repairs = 0;
  /// Reads completed and epoch batches applied inside the reader window,
  /// per second of it.
  double read_qps = 0.0;
  double write_qps = 0.0;
  LatencySnapshot read_latency;
  LatencySnapshot repair_latency;

  /// One JSON object (the BENCH_serve.json payload), labeled with the
  /// run's shape: {"name": <label>, "shards": N, ...}.
  std::string ToJson(const std::string& label, std::size_t shards,
                     std::size_t reader_threads) const;
};

/// Runs readers + the paced write stream against `server` for
/// `options.duration_ms`, then drains ingestion and fills `report`; the
/// rates are computed over the reader window, so they do not depend on
/// how long the drain takes. The server must be Start()ed.
Status RunMixedLoad(ShardedServer* server, const MixedLoadOptions& options,
                    MixedLoadReport* report);

}  // namespace tar
