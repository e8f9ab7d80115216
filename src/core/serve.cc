#include "core/serve.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <sstream>

#include "core/parallel_query.h"

namespace tar {

namespace {

using Clock = std::chrono::steady_clock;

double MillisSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

void SleepMs(double ms) {
  if (ms <= 0.0) return;
  std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
}

/// Requeue budget for a batch bounced off a full redo buffer: repair
/// should drain the backlog well within this many poll cycles; past it
/// the fault is treated as permanent and ingestion parks.
constexpr int kMaxBatchRequeues = 256;

void Bump(std::atomic<std::uint64_t>* counter) {
  counter->fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t Read(const std::atomic<std::uint64_t>& counter) {
  return counter.load(std::memory_order_relaxed);
}

}  // namespace

ShardedServer::ShardedServer(ShardedStore* store, const ServeOptions& options)
    : store_(store), options_(options) {}

ShardedServer::~ShardedServer() { Stop(); }

void ShardedServer::Start() {
  if (started_.exchange(true)) return;
  {
    MutexLock lock(&queue_mu_);
    stopping_ = false;  // re-open submission after a previous Stop
  }
  stop_.store(false, std::memory_order_release);
  ingest_thread_ = std::thread([this] { IngestLoop(); });
  if (options_.auto_repair) {
    repair_thread_ = std::thread([this] { RepairLoop(); });
  }
}

void ShardedServer::Stop() {
  if (!started_.load(std::memory_order_acquire)) return;
  // Close the door before draining: without this, a thread that keeps
  // calling SubmitEpoch would extend the drain forever.
  {
    MutexLock lock(&queue_mu_);
    stopping_ = true;
  }
  WaitForIngest();
  stop_.store(true, std::memory_order_release);
  if (ingest_thread_.joinable()) ingest_thread_.join();
  // Join the repair worker after the ingest drain: a repair in flight
  // finishes (or fails) before Stop returns, so no re-admission can land
  // on a server the caller believes is down.
  if (repair_thread_.joinable()) repair_thread_.join();
  started_.store(false, std::memory_order_release);
}

Status ShardedServer::Query(const KnntaQuery& query,
                            std::vector<KnntaResult>* results) {
  // Admission: claim a slot before doing any work; over the cap, shed
  // with a drain estimate from the rolling observed latency (the PR-8
  // contract — kUnavailable means "back off retry-after-ms, then retry").
  const std::int64_t inflight =
      inflight_.fetch_add(1, std::memory_order_acq_rel) + 1;
  if (options_.max_inflight > 0 &&
      inflight > static_cast<std::int64_t>(options_.max_inflight)) {
    inflight_.fetch_sub(1, std::memory_order_acq_rel);
    Bump(&queries_shed_);
    const double observed_ms = latency_.Snapshot().Mean() / 1000.0;
    const double retry_ms = EstimateRetryAfterMs(
        /*backlog=*/options_.max_inflight, /*num_threads=*/
        options_.max_inflight, observed_ms, options_.budget.deadline_ms);
    char hint[96];
    std::snprintf(hint, sizeof(hint),
                  "server at max-inflight (%zu); retry-after-ms=%.0f",
                  options_.max_inflight, retry_ms);
    results->clear();
    return Status::Unavailable(hint);
  }

  const auto start = Clock::now();
  QueryDeadline deadline(options_.budget, /*cancel=*/nullptr);
  QueryDeadline* dptr = deadline.armed() ? &deadline : nullptr;
  // Strict mode passes no coverage (a quarantined shard fails the query
  // fast); partial mode degrades and annotates instead.
  ShardCoverage coverage;
  ShardCoverage* cptr = options_.partial_coverage ? &coverage : nullptr;
  const bool shard_down = store_->num_unhealthy() > 0;
  Status st = store_->Query(query, results, /*stats=*/nullptr, dptr, cptr);
  const bool overlapped = write_in_flight_.load(std::memory_order_acquire);
  const double micros = MillisSince(start) * 1000.0;
  inflight_.fetch_sub(1, std::memory_order_acq_rel);

  if (st.ok()) {
    Bump(&queries_ok_);
    latency_.Record(micros);
    if (overlapped) Bump(&reads_during_write_);
    if (shard_down) Bump(&reads_during_quarantine_);
    if (cptr != nullptr && !coverage.complete) Bump(&reads_partial_);
  } else {
    Bump(&queries_failed_);
    if (st.IsUnavailable()) Bump(&reads_unavailable_);
  }
  return st;
}

Status ShardedServer::SubmitEpoch(
    std::int64_t epoch, std::unordered_map<PoiId, std::int64_t> aggs) {
  MutexLock lock(&queue_mu_);
  TAR_RETURN_NOT_OK(ingest_status_);
  if (stopping_) {
    return Status::Unavailable("server stopping; epoch batch rejected");
  }
  queue_.push_back(EpochBatch{epoch, std::move(aggs)});
  ++queued_or_applying_;
  return Status::OK();
}

void ShardedServer::WaitForIngest() {
  int spins = 0;
  for (;;) {
    {
      MutexLock lock(&queue_mu_);
      if (queued_or_applying_ == 0 || !ingest_status_.ok()) return;
    }
    // Applying a batch takes WAL syncs and reader drains; after a brief
    // optimistic phase, poll at the ingest loop's idle cadence instead
    // of burning a core for the whole drain.
    if (++spins <= 64) {
      std::this_thread::yield();
    } else {
      SleepMs(0.2);
    }
  }
}

void ShardedServer::IngestLoop() {
  std::uint64_t since_checkpoint = 0;
  while (true) {
    EpochBatch batch;
    bool have = false;
    {
      MutexLock lock(&queue_mu_);
      if (!queue_.empty() && ingest_status_.ok()) {
        batch = std::move(queue_.front());
        queue_.pop_front();
        have = true;
      }
    }
    if (!have) {
      if (stop_.load(std::memory_order_acquire)) return;
      SleepMs(0.2);
      continue;
    }
    // Apply outside the queue latch: AppendEpoch takes the cross-shard
    // writer latch and can block on reader drain.
    write_in_flight_.store(true, std::memory_order_release);
    Status st = store_->AppendEpoch(batch.epoch, batch.aggs);
    if (st.ok()) {
      ++since_checkpoint;
      if (options_.checkpoint_every > 0 &&
          since_checkpoint >= options_.checkpoint_every &&
          !store_->options().store_prefix.empty()) {
        st = store_->Checkpoint();
        if (st.ok()) {
          since_checkpoint = 0;
          Bump(&checkpoints_);
        }
      }
    }
    write_in_flight_.store(false, std::memory_order_release);
    if (st.ok()) Bump(&epochs_ingested_);
    // kUnavailable means the batch was refused without mutating anything
    // (a quarantined shard's redo buffer is full): requeue it at the
    // front and let the repair worker drain the backlog, instead of
    // killing ingestion over a fault the server can heal. The budget
    // bounds the wait so an unrepairable shard still parks the writer
    // with the root cause.
    if (st.IsUnavailable() && batch.requeues < kMaxBatchRequeues) {
      ++batch.requeues;
      {
        MutexLock lock(&queue_mu_);
        queue_.push_front(std::move(batch));
      }
      SleepMs(options_.repair_poll_ms);
      continue;
    }
    MutexLock lock(&queue_mu_);
    --queued_or_applying_;
    if (!st.ok() && ingest_status_.ok()) ingest_status_ = st;
  }
}

void ShardedServer::RepairLoop() {
  while (!stop_.load(std::memory_order_acquire)) {
    if (store_->num_unhealthy() > 0) {
      // RepairTick honors each shard's circuit breaker, so polling fast
      // here never hot-spins a failing repair.
      (void)store_->RepairTick();
    }
    SleepMs(options_.repair_poll_ms);
  }
}

ServerStats ShardedServer::stats() const {
  ServerStats out;
  out.queries_ok = Read(queries_ok_);
  out.queries_shed = Read(queries_shed_);
  out.queries_failed = Read(queries_failed_);
  out.reads_during_write = Read(reads_during_write_);
  out.epochs_ingested = Read(epochs_ingested_);
  out.checkpoints = Read(checkpoints_);
  out.reads_partial = Read(reads_partial_);
  out.reads_unavailable = Read(reads_unavailable_);
  out.reads_during_quarantine = Read(reads_during_quarantine_);
  out.latency = latency_.Snapshot();
  out.fault = store_->fault_stats();
  return out;
}

Status ShardedServer::ingest_status() const {
  MutexLock lock(&queue_mu_);
  return ingest_status_;
}

std::string MixedLoadReport::ToJson(const std::string& label,
                                    std::size_t shards,
                                    std::size_t reader_threads) const {
  std::ostringstream out;
  out << "{\"name\":\"" << label << "\""
      << ",\"shards\":" << shards
      << ",\"reader_threads\":" << reader_threads
      << ",\"window_ms\":" << window_ms
      << ",\"wall_ms\":" << wall_ms
      << ",\"reads_ok\":" << reads_ok
      << ",\"reads_shed\":" << reads_shed
      << ",\"reads_failed\":" << reads_failed
      << ",\"writes\":" << writes
      << ",\"reads_during_write\":" << reads_during_write
      << ",\"checkpoints\":" << checkpoints
      << ",\"reads_partial\":" << reads_partial
      << ",\"reads_unavailable\":" << reads_unavailable
      << ",\"reads_during_quarantine\":" << reads_during_quarantine
      << ",\"quarantines\":" << quarantines
      << ",\"repairs\":" << repairs
      << ",\"read_qps\":" << read_qps
      << ",\"write_qps\":" << write_qps
      << ",\"read_latency\":" << read_latency.ToJson()
      << ",\"repair_latency\":" << repair_latency.ToJson() << "}";
  return out.str();
}

Status RunMixedLoad(ShardedServer* server, const MixedLoadOptions& options,
                    MixedLoadReport* report) {
  *report = MixedLoadReport{};
  if (options.queries.empty()) {
    return Status::InvalidArgument("mixed load needs at least one query");
  }
  if (options.reader_threads == 0) {
    return Status::InvalidArgument("reader_threads must be >= 1");
  }
  const ServerStats before = server->stats();
  const auto start = Clock::now();
  std::atomic<bool> done{false};

  // The paced write stream: cycle the batches with strictly increasing
  // epoch indices so every submission digests a fresh epoch.
  std::thread writer([&] {
    std::int64_t epoch = options.first_epoch;
    std::size_t i = 0;
    while (!done.load(std::memory_order_acquire) &&
           !options.epoch_batches.empty()) {
      Status st = server->SubmitEpoch(
          epoch++, options.epoch_batches[i % options.epoch_batches.size()]);
      if (!st.ok()) break;  // ingestion died; readers keep going
      ++i;
      SleepMs(options.write_interval_ms);
    }
  });

  std::vector<std::thread> readers;
  readers.reserve(options.reader_threads);
  for (std::size_t t = 0; t < options.reader_threads; ++t) {
    readers.emplace_back([&, t] {
      std::vector<KnntaResult> results;
      std::size_t i = t;  // stagger the starting query per thread
      while (MillisSince(start) < options.duration_ms) {
        (void)server->Query(options.queries[i % options.queries.size()],
                            &results);
        ++i;
      }
    });
  }
  for (std::thread& t : readers) t.join();
  done.store(true, std::memory_order_release);
  writer.join();
  // Rates count the reader window only: the drain below can outlast it
  // many times over when the write stream outpaces ingestion.
  report->window_ms = MillisSince(start);
  const ServerStats window = server->stats();
  server->WaitForIngest();
  report->wall_ms = MillisSince(start);

  const ServerStats after = server->stats();
  report->reads_ok = after.queries_ok - before.queries_ok;
  report->reads_shed = after.queries_shed - before.queries_shed;
  report->reads_failed = after.queries_failed - before.queries_failed;
  report->writes = after.epochs_ingested - before.epochs_ingested;
  report->reads_during_write =
      after.reads_during_write - before.reads_during_write;
  report->checkpoints = after.checkpoints - before.checkpoints;
  report->reads_partial = after.reads_partial - before.reads_partial;
  report->reads_unavailable =
      after.reads_unavailable - before.reads_unavailable;
  report->reads_during_quarantine =
      after.reads_during_quarantine - before.reads_during_quarantine;
  report->quarantines = after.fault.quarantines - before.fault.quarantines;
  report->repairs = after.fault.repairs - before.fault.repairs;
  report->read_latency = after.latency;
  report->repair_latency = after.fault.repair_latency;
  if (report->window_ms > 0.0) {
    report->read_qps =
        1e3 * static_cast<double>(window.queries_ok - before.queries_ok) /
        report->window_ms;
    report->write_qps =
        1e3 * static_cast<double>(window.epochs_ingested -
                                  before.epochs_ingested) /
        report->window_ms;
  }
  return server->ingest_status();
}

}  // namespace tar
