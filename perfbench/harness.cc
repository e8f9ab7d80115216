#include "harness.h"

#include <malloc.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <thread>

#include "common/random.h"
#include "core/ranking.h"
#include "core/serve.h"
#include "data/generator.h"
#include "storage/snapshot_store.h"
#include "temporal/tia.h"

namespace perfbench {

using namespace tar;

namespace {

constexpr WorkloadSpec kWorkloads[] = {
    {"read-1shard", 1, false, false, 0.0},
    {"read-16shard", 16, false, false, 0.0},
    {"ingest-4shard", 4, true, true, 200.0},
};

/// Rounds of an untraced run. Each round sets the store up afresh and
/// measures seconds / kRounds of the workload. The rounds spread each
/// query's and each batch's repeats over the whole run, so their floors
/// (FloorsByKey) come from the quietest moments the host had.
constexpr int kRounds = 6;
/// Epoch batches of the post-window ingest probe on the read workloads,
/// split over the rounds: enough for p95 to keep kTailSamples beyond it.
constexpr std::size_t kProbeBatches = 210;
/// Queries replayed by the traced run (a fixed count, so its counts
/// repeat exactly).
constexpr std::size_t kTracedQueries = 256;
/// Open-loop read rate of the traced ingest run, below the untraced rate
/// because each traced read runs the query five times over and times
/// TIA aggregation on top.
constexpr double kTracedReadRate = 30.0;

/// All-CPU spin before anything is measured: an idle sandbox host runs
/// its virtual CPUs at about half speed until they have been busy for a
/// few seconds.
constexpr double kWarmUpSeconds = 2.0;

using Expected = std::vector<std::vector<KnntaResult>>;

double Micros(double seconds) { return seconds * 1e6; }

/// Waits for `t_s` by yielding, not sleeping: on a shared host a sleeping
/// thread often wakes several milliseconds late, which an open loop would
/// charge to the reads as if the system had stalled.
void WaitUntil(double t_s) {
  while (NowSeconds() < t_s) std::this_thread::yield();
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// A flat JSON object writer for the detail line.
class JsonObject {
 public:
  JsonObject& Add(const std::string& key, double v) {
    return Raw(key, Num(v));
  }
  JsonObject& Add(const std::string& key, std::uint64_t v) {
    return Raw(key, std::to_string(v));
  }
  JsonObject& Add(const std::string& key, bool v) {
    return Raw(key, v ? "true" : "false");
  }
  JsonObject& Add(const std::string& key, const std::string& v) {
    return Raw(key, "\"" + v + "\"");
  }
  JsonObject& Raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "" : ",") + ("\"" + key + "\":" + json);
    return *this;
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

std::vector<std::int32_t> PreloadHistory(const Inputs& in, PoiId id) {
  std::vector<std::int32_t> h = in.counts.counts[id];
  if (h.size() > static_cast<std::size_t>(in.preload_epochs)) {
    h.resize(static_cast<std::size_t>(in.preload_epochs));
  }
  return h;
}

/// Everything a read loop observed.
struct ReadLog {
  std::vector<double> latency_us;
  std::vector<double> cpu_us;  ///< reader-thread CPU inside each Query
  std::vector<std::size_t> query;  ///< index into Inputs::queries
  std::vector<double> done_s;
  std::vector<double> late_us;  ///< open loop: issue time minus due time
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t wrong = 0;
  double end_s = 0.0;  ///< when the last read issued in the window returned
};

/// One timed ShardedServer::Query of query `qi`, checked against its
/// expected answer. Latency runs from `from_s` (the issue or due time).
void TimedRead(ShardedServer* server, const Inputs& in,
               const Expected& expected, std::size_t qi, double from_s,
               std::vector<KnntaResult>* got, ReadLog* log) {
  const double cpu0 = ThreadCpuSeconds();
  const Status st = server->Query(in.queries[qi], got);
  const double done_s = NowSeconds();
  const double cpu_us = Micros(ThreadCpuSeconds() - cpu0);
  log->end_s = done_s;
  ++log->attempted;
  if (!st.ok()) {
    ++log->failed;
    return;
  }
  log->latency_us.push_back(Micros(done_s - from_s));
  log->cpu_us.push_back(cpu_us);
  log->query.push_back(qi);
  log->done_s.push_back(done_s);
  if (!SameResults(*got, expected[qi])) ++log->wrong;
}

/// One closed-loop client: each read is issued when the previous returns.
/// Query indices continue from `*cursor`, so successive rounds cycle the
/// whole mix instead of repeating its start.
void ClosedLoopReads(ShardedServer* server, const Inputs& in,
                     const Expected& expected, double end_s,
                     std::size_t* cursor, ReadLog* log) {
  std::vector<KnntaResult> got;
  for (;; ++*cursor) {
    const double t0 = NowSeconds();
    if (t0 >= end_s) break;
    TimedRead(server, in, expected, *cursor % in.queries.size(), t0, &got,
              log);
  }
}

/// Reads due at a fixed rate from start_s; each read's latency runs from
/// its due time, so a stall also charges the reads queued behind it.
/// Query indices continue from `*cursor`, as in ClosedLoopReads.
void OpenLoopReads(ShardedServer* server, const Inputs& in,
                   const Expected& expected, double start_s, double end_s,
                   double rate, std::size_t* cursor, ReadLog* log) {
  std::vector<KnntaResult> got;
  for (std::size_t i = 0;; ++i, ++*cursor) {
    const double due = start_s + static_cast<double>(i) / rate;
    if (due >= end_s) break;
    WaitUntil(due);
    log->late_us.push_back(Micros(NowSeconds() - due));
    TimedRead(server, in, expected, *cursor % in.queries.size(), due, &got,
              log);
  }
}

/// The write cycle: batch k digests stream[(stream_offset + k) % n] as
/// epoch first_stream_epoch + k.
struct WriteLog {
  std::vector<TimedBatch> batches;  ///< applied inside the window
  std::size_t stored = 0;           ///< applied, inside or after it
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

std::int64_t EpochOfBatch(const Inputs& in, std::size_t k) {
  return in.first_stream_epoch + static_cast<std::int64_t>(k);
}

const Batch& BatchAt(const Inputs& in, std::size_t k) {
  return in.stream[(in.stream_offset + k) % in.stream.size()];
}

/// Closed-loop writer through the server: SubmitEpoch, then
/// WaitForIngest. Stops at end_s or after max_batches; a batch still
/// applying at end_s is waited for but not logged.
void ClosedLoopWrites(ShardedServer* server, const Inputs& in, double end_s,
                      std::size_t max_batches, WriteLog* log) {
  while (log->stored < max_batches && NowSeconds() < end_s) {
    const std::size_t k = log->stored;
    Batch batch = BatchAt(in, k);
    const std::uint64_t records = batch.size();
    ++log->attempted;
    const double submit = NowSeconds();
    if (!server->SubmitEpoch(EpochOfBatch(in, k), std::move(batch)).ok()) {
      ++log->failed;
      return;
    }
    server->WaitForIngest();
    const double done = NowSeconds();
    if (!server->ingest_status().ok()) {
      ++log->failed;
      return;
    }
    ++log->stored;
    if (done > end_s) return;  // drained after the window: not counted
    log->batches.push_back(TimedBatch{submit, done, records});
  }
}

std::string Prefix(const std::string& dir) {
  std::filesystem::create_directories(dir);
  return dir + "/store";
}

/// One query over every epoch the store holds, checked against a fresh
/// reference tree fed the same batches.
Status CheckStreamed(const Inputs& in, const ShardedStore& store,
                     std::size_t applied, bool* ok) {
  std::unique_ptr<TarTree> ref = BuildReferenceTree(in);
  for (std::size_t k = 0; k < applied; ++k) {
    TAR_RETURN_NOT_OK(ref->AppendEpoch(EpochOfBatch(in, k), BatchAt(in, k)));
  }
  KnntaQuery q = in.queries.front();
  q.interval = {in.grid.EpochStart(0),
                in.grid.EpochEnd(EpochOfBatch(in, applied) - 1)};
  std::vector<KnntaResult> want;
  std::vector<KnntaResult> got;
  TAR_RETURN_NOT_OK(ref->Query(q, &want));
  TAR_RETURN_NOT_OK(store.Query(q, &got));
  *ok = SameResults(got, want);
  return Status::OK();
}

std::uint64_t WalBytes(const std::string& prefix, std::size_t shards) {
  std::uint64_t total = 0;
  if (prefix.empty()) return 0;
  for (std::size_t i = 0; i < shards; ++i) {
    std::error_code ec;
    const auto size = std::filesystem::file_size(
        prefix + ".shard" + std::to_string(i) + ".wal", ec);
    if (!ec) total += size;
  }
  return total;
}

/// Direct ShardedStore::AppendEpoch calls (the traced write path), with
/// the log and memory growth they cause.
struct AppendLog {
  std::vector<double> append_ms;
  std::uint64_t records = 0;
  std::uint64_t failed = 0;
  std::int64_t rss_growth = 0;
  std::uint64_t wal_growth = 0;
};

void DirectAppends(ShardedStore* store, const Inputs& in,
                   const std::string& prefix, std::size_t max_batches,
                   const std::atomic<bool>& stop, AppendLog* log) {
  (void)store->Flush();
  const std::uint64_t wal0 = WalBytes(prefix, store->num_shards());
  const std::uint64_t rss0 = RssBytes();
  for (std::size_t k = 0;
       k < max_batches && !stop.load(std::memory_order_acquire); ++k) {
    const double t0 = NowSeconds();
    if (!store->AppendEpoch(EpochOfBatch(in, k), BatchAt(in, k)).ok()) {
      ++log->failed;
      break;
    }
    log->append_ms.push_back((NowSeconds() - t0) * 1e3);
    log->records += BatchAt(in, k).size();
  }
  (void)store->Flush();
  log->rss_growth = static_cast<std::int64_t>(RssBytes()) -
                    static_cast<std::int64_t>(rss0);
  log->wal_growth = WalBytes(prefix, store->num_shards()) - wal0;
}

/// Per-batch sums over shards of the three staged write phases.
struct TwinLog {
  std::size_t batches = 0;
  double stage_ms = 0.0;
  double publish_us = 0.0;
  double catch_up_ms = 0.0;
};

/// Builds one SnapshotStore twin per shard, preloads each with the POIs
/// ShardOf routes to it, then feeds `batches` stream batches split by
/// ShardOf through StageEpoch / PublishStaged / CatchUpStaged.
Status FeedTwins(const Inputs& in, const ShardedStore& store,
                 const std::string& prefix, std::size_t batches,
                 TwinLog* log) {
  const std::size_t n = store.num_shards();
  std::vector<std::unique_ptr<SnapshotStore>> twins;
  for (std::size_t i = 0; i < n; ++i) {
    SnapshotStoreOptions so;
    so.tree = TreeOptions(in);
    if (!prefix.empty()) {
      const std::string base = prefix + ".twin" + std::to_string(i);
      so.snapshot_path = base + ".snapshot";
      so.wal_path = base + ".wal";
    }
    TAR_ASSIGN_OR_RETURN(std::unique_ptr<SnapshotStore> twin,
                         SnapshotStore::Open(so));
    twins.push_back(std::move(twin));
  }
  for (PoiId id : in.effective) {
    const Poi& poi = in.data.pois[id];
    TAR_RETURN_NOT_OK(
        twins[store.ShardOf(poi.pos)]->InsertPoi(poi, PreloadHistory(in, id)));
  }
  for (std::size_t k = 0; k < batches; ++k) {
    std::vector<Batch> split(n);
    for (const auto& [poi, agg] : BatchAt(in, k)) {
      split[store.ShardOf(in.data.pois[poi].pos)][poi] = agg;
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (split[i].empty()) continue;
      const double t0 = NowSeconds();
      TAR_RETURN_NOT_OK(twins[i]->StageEpoch(EpochOfBatch(in, k), split[i]));
      const double t1 = NowSeconds();
      TAR_RETURN_NOT_OK(twins[i]->PublishStaged());
      const double t2 = NowSeconds();
      TAR_RETURN_NOT_OK(twins[i]->CatchUpStaged());
      const double t3 = NowSeconds();
      log->stage_ms += (t1 - t0) * 1e3;
      log->publish_us += Micros(t2 - t1);
      log->catch_up_ms += (t3 - t2) * 1e3;
    }
    ++log->batches;
  }
  return Status::OK();
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// The tail percentile a sample supports: `q`, or the highest quantile
/// that keeps kTailSamples beyond it when the sample is too small for `q`.
double TailQuantileOf(std::size_t n, double q) {
  return PercentileSupported(n, q) ? q : HighestSupportedQuantile(n);
}

std::string InputsJson(const Inputs& in) {
  return JsonObject()
      .Add("effective_pois", static_cast<std::uint64_t>(in.effective.size()))
      .Add("epochs", static_cast<std::uint64_t>(in.counts.num_epochs))
      .Add("preload_epochs", static_cast<std::uint64_t>(in.preload_epochs))
      .Add("preload_records", in.preload_records)
      .Add("queries", static_cast<std::uint64_t>(in.queries.size()))
      .Add("stream_batches", static_cast<std::uint64_t>(in.stream.size()))
      .str();
}

struct Shared {
  const WorkloadSpec* spec = nullptr;
  const RunOptions* options = nullptr;
  Inputs in;
  Expected expected;
  HostCalibration host;
};

/// What one round of an untraced run measured: a fresh set-up, then a
/// window of reads (and writes).
struct Round {
  double setup_s = 0.0;
  std::uint64_t rss = 0;
  ReadLog reads;
  WriteLog writes;
  double read_start = 0.0;
  double write_start = 0.0;
  double write_end = 0.0;
};

/// Opens and preloads a store in `dir`, then measures `seconds` of the
/// workload on it, reading the query mix from `*cursor` on. Read
/// workloads follow their read window with a probe of `probe` closed-loop
/// batches. The store is gone when this returns.
Status RunRound(const Shared& s, double seconds, std::size_t probe,
                const std::string& dir, bool check_streamed,
                std::size_t* cursor, Round* round, bool* streamed_ok) {
  const WorkloadSpec& spec = *s.spec;
  const Inputs& in = s.in;
  const std::string prefix = spec.durable ? Prefix(dir) : "";
  const double t0 = NowSeconds();
  TAR_ASSIGN_OR_RETURN(std::unique_ptr<ShardedStore> store,
                       OpenStore(in, spec.shards, prefix));
  round->setup_s = NowSeconds() - t0;
  TrimHeap();
  round->rss = RssBytes();

  ShardedServer server(store.get(), ServeOptions{});
  server.Start();
  round->read_start = NowSeconds();
  const double end = round->read_start + seconds;
  if (spec.ingest) {
    std::thread reader([&] {
      OpenLoopReads(&server, in, s.expected, round->read_start, end,
                    spec.read_rate_qps, cursor, &round->reads);
    });
    ClosedLoopWrites(&server, in, end, std::numeric_limits<std::size_t>::max(),
                     &round->writes);
    reader.join();
    round->write_start = round->read_start;
    round->write_end = end;
  } else {
    ClosedLoopReads(&server, in, s.expected, end, cursor, &round->reads);
    // The probe runs after the read window, so it cannot disturb the
    // reads; its own window is first submit to last applied.
    ClosedLoopWrites(&server, in, std::numeric_limits<double>::infinity(),
                     probe, &round->writes);
    if (!round->writes.batches.empty()) {
      round->write_start = round->writes.batches.front().submit_s;
      round->write_end = round->writes.batches.back().done_s;
    }
  }
  server.Stop();
  if (check_streamed) {
    TAR_RETURN_NOT_OK(
        CheckStreamed(in, *store, round->writes.stored, streamed_ok));
  }
  return Status::OK();
}

Status RunUntraced(const Shared& s, RunReport* report) {
  const WorkloadSpec& spec = *s.spec;
  const int rounds =
      s.options->rounds > 0 ? s.options->rounds : kRounds;
  const std::size_t probe = (kProbeBatches + rounds - 1) / rounds;

  std::vector<Round> runs(static_cast<std::size_t>(rounds));
  bool streamed_ok = false;
  std::size_t cursor = 0;
  for (int r = 0; r < rounds; ++r) {
    const std::string dir = s.options->work_dir + "/round" + std::to_string(r);
    TAR_RETURN_NOT_OK(RunRound(s, s.options->seconds / rounds, probe, dir,
                               r + 1 == rounds, &cursor, &runs[r],
                               &streamed_ok));
    std::filesystem::remove_all(dir);
    TrimHeap();
  }

  // Batch k of every round applies the same records to the same preloaded
  // store, so the first `common` batches have one floor each.
  std::size_t common = std::numeric_limits<std::size_t>::max();
  for (const Round& r : runs) common = std::min(common, r.writes.batches.size());

  std::vector<double> setup_s, rss_mb, window_qps, window_rps;
  std::vector<double> latency_us, cpu_us, epoch_ms, late_us;
  std::vector<std::size_t> read_key;
  std::vector<double> common_ms;
  std::vector<std::size_t> common_key;
  std::uint64_t wrong = 0;
  for (const Round& r : runs) {
    setup_s.push_back(r.setup_s);
    rss_mb.push_back(static_cast<double>(r.rss) / (1 << 20));
    // A read window runs until the last read issued inside it returned.
    window_qps.push_back(
        CountWindow(r.read_start, r.reads.end_s, r.reads.done_s, {}).query_qps);
    window_rps.push_back(
        CountWindow(r.write_start, r.write_end, {}, r.writes.batches).ingest_rps);
    latency_us.insert(latency_us.end(), r.reads.latency_us.begin(),
                      r.reads.latency_us.end());
    cpu_us.insert(cpu_us.end(), r.reads.cpu_us.begin(), r.reads.cpu_us.end());
    read_key.insert(read_key.end(), r.reads.query.begin(), r.reads.query.end());
    for (std::size_t k = 0; k < r.writes.batches.size(); ++k) {
      const TimedBatch& b = r.writes.batches[k];
      epoch_ms.push_back((b.done_s - b.submit_s) * 1e3);
      if (k < common) {
        common_ms.push_back(epoch_ms.back());
        common_key.push_back(k);
      }
    }
    late_us.insert(late_us.end(), r.reads.late_us.begin(),
                   r.reads.late_us.end());
    wrong += r.reads.wrong;
    report->attempted += r.reads.attempted + r.writes.attempted;
    report->failed += r.reads.failed + r.writes.failed;
  }
  // A closed-loop client is alone on the host, so what varies between the
  // repeats of one query is host noise, and its floor is its cost.
  // Open-loop reads share the store with the writer, which grows it and
  // stalls them; that is what the workload measures, so they count as
  // they ran.
  const bool open_loop = spec.read_rate_qps > 0.0;
  const std::vector<double> latency_floor = FloorsByKey(read_key, latency_us);
  const std::vector<double> cpu_floor = FloorsByKey(read_key, cpu_us);
  double floor_pass_s = 0.0;
  for (double us : latency_floor) floor_pass_s += us / 1e6;
  const std::vector<double> epoch_floor = FloorsByKey(common_key, common_ms);
  double floor_epoch_s = 0.0;
  for (double ms : epoch_floor) floor_epoch_s += ms / 1e3;
  double floor_records = 0.0;
  for (std::size_t k = 0; k < common; ++k) {
    floor_records += static_cast<double>(BatchAt(s.in, k).size());
  }
  // The sizes keep p99 and p95 supported on the sandbox host; a host too
  // slow for that gets the highest supported percentile, named in the
  // detail line.
  const double read_tail = TailQuantileOf(latency_us.size(), 0.99);
  const double epoch_tail = TailQuantileOf(epoch_ms.size(), 0.95);

  report->correct = wrong == 0 && streamed_ok && report->failed == 0;
  auto& m = report->metrics;
  m["setup_s"] = {Median(setup_s), "s"};
  m["rss_mb"] = {Median(rss_mb), "MB"};
  if (open_loop) {
    m["query_p50_us"] = {Median(latency_us), "us"};
    m["query_qps"] = {Median(window_qps), "1/s"};
    m["query_cpu_us"] = {Mean(cpu_us), "us"};
  } else {
    // One pass over the mix takes the sum of the floors.
    m["query_p50_us"] = {Median(latency_floor), "us"};
    m["query_qps"] = {
        Ratio(static_cast<double>(latency_floor.size()), floor_pass_s), "1/s"};
    m["query_cpu_us"] = {Mean(cpu_floor), "us"};
  }
  m["query_p99_us"] = {Quantile(latency_us, read_tail), "us"};
  m["ingest_rps"] = {Ratio(floor_records, floor_epoch_s), "1/s"};
  m["ingest_epoch_p50_ms"] = {Median(epoch_floor), "ms"};
  m["ingest_epoch_p95_ms"] = {Quantile(epoch_ms, epoch_tail), "ms"};

  auto list = [](const std::vector<double>& v) {
    std::string out = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
      out += (i > 0 ? "," : "") + Num(v[i]);
    }
    return out + "]";
  };
  report->detail_json =
      JsonObject()
          .Add("workload", std::string(spec.name))
          .Add("trace", false)
          .Raw("host", s.host.ToJson())
          .Raw("host_after", CalibrateHost().ToJson())
          .Raw("inputs", InputsJson(s.in))
          .Add("rounds", static_cast<std::uint64_t>(rounds))
          .Raw("round_setup_s", list(setup_s))
          .Raw("round_window_query_qps", list(window_qps))
          .Raw("round_window_ingest_rps", list(window_rps))
          .Add("read_samples", static_cast<std::uint64_t>(latency_us.size()))
          .Add("queries_timed", static_cast<std::uint64_t>(latency_floor.size()))
          .Add("batches_with_floor", static_cast<std::uint64_t>(common))
          .Add("query_p99_us_quantile", read_tail)
          .Add("epoch_samples", static_cast<std::uint64_t>(epoch_ms.size()))
          .Add("ingest_epoch_p95_ms_quantile", epoch_tail)
          .Add("write_phase", std::string(spec.ingest ? "in-window"
                                                      : "post-window probe"))
          .Add("failed_op_share",
               Ratio(static_cast<double>(report->failed),
                     static_cast<double>(report->attempted)))
          .Add("wrong_answers", wrong)
          .Add("streamed_check", streamed_ok)
          .Add("gen_late_p99_us", Quantile(late_us, 0.99))
          .str();
  return Status::OK();
}

Status RunTraced(const Shared& s, RunReport* report) {
  const WorkloadSpec& spec = *s.spec;
  const Inputs& in = s.in;
  const std::string prefix =
      spec.durable ? Prefix(s.options->work_dir + "/trace") : "";
  TAR_ASSIGN_OR_RETURN(std::unique_ptr<ShardedStore> store,
                       OpenStore(in, spec.shards, prefix));
  ShardedServer server(store.get(), ServeOptions{});
  server.Start();

  const std::size_t traced =
      std::min(in.queries.size(), s.options->traced_queries > 0
                                      ? s.options->traced_queries
                                      : kTracedQueries);
  // On the ingest workload the store takes direct appends while the
  // reads are replayed; on the read workloads the appends follow them.
  AppendLog appends;
  std::atomic<bool> stop{false};
  std::thread writer;
  if (spec.ingest) {
    writer = std::thread([&] {
      DirectAppends(store.get(), in, prefix,
                    std::numeric_limits<std::size_t>::max(), stop, &appends);
    });
  }
  LayerTotals lt;
  std::uint64_t wrong = 0;
  std::uint64_t replay_mismatches = 0;
  std::uint64_t read_failures = 0;
  std::vector<double> late_us;
  std::vector<KnntaResult> via_server;
  std::vector<KnntaResult> via_store;
  std::vector<KnntaResult> via_replay;
  const double start = NowSeconds();
  Status read_status;
  for (std::size_t i = 0; i < traced; ++i) {
    if (spec.ingest) {
      const double due = start + static_cast<double>(i) / kTracedReadRate;
      WaitUntil(due);
      late_us.push_back(Micros(NowSeconds() - due));
    }
    const KnntaQuery& q = in.queries[i];
    // One untimed execution first, so every timed execution below finds
    // the query's nodes and pages equally warm.
    if (!store->Query(q, &via_store).ok()) {
      ++read_failures;
      break;
    }
    Status a;
    Status b;
    auto time_server = [&] {
      const double t0 = NowSeconds();
      a = server.Query(q, &via_server);
      lt.serve_us += Micros(NowSeconds() - t0);
    };
    auto time_store = [&] {
      const double t0 = NowSeconds();
      b = store->Query(q, &via_store);
      lt.store_us += Micros(NowSeconds() - t0);
    };
    // Odd queries run the four timed executions in reverse order, so on
    // average no span gains from following another run of its query.
    if (i % 2 == 0) {
      time_server();
      time_store();
      read_status = ReplayQuery(*store, q, /*traced_first=*/false,
                                &via_replay, &lt);
    } else {
      read_status = ReplayQuery(*store, q, /*traced_first=*/true,
                                &via_replay, &lt);
      time_store();
      time_server();
    }
    if (!a.ok() || !b.ok() || !read_status.ok()) {
      ++read_failures;
      break;
    }
    if (!SameResults(via_replay, via_store)) ++replay_mismatches;
    if (!SameResults(via_server, s.expected[i]) ||
        !SameResults(via_store, s.expected[i])) {
      ++wrong;
    }
  }
  if (spec.ingest) {
    stop.store(true, std::memory_order_release);
    writer.join();
  } else {
    DirectAppends(store.get(), in, prefix, in.stream.size(), stop, &appends);
  }
  server.Stop();
  TAR_RETURN_NOT_OK(read_status);
  bool streamed_ok = false;
  TAR_RETURN_NOT_OK(
      CheckStreamed(in, *store, appends.append_ms.size(), &streamed_ok));
  TwinLog twins;
  TAR_RETURN_NOT_OK(FeedTwins(in, *store, prefix, in.stream.size(), &twins));

  report->attempted = traced + appends.append_ms.size() + appends.failed +
                      twins.batches;
  report->failed = read_failures + appends.failed;
  report->correct = wrong == 0 && replay_mismatches == 0 && streamed_ok &&
                    report->failed == 0;

  const double q = static_cast<double>(std::max<std::uint64_t>(lt.queries, 1));
  const AccessStats& st = lt.stats;
  const double fetches =
      static_cast<double>(st.tia_page_reads + st.tia_buffer_hits);
  const double calls = static_cast<double>(st.aggregate_calls);
  const double us_per_call =
      Ratio(lt.direct_tia_us, static_cast<double>(lt.direct_tia_calls));
  const double batches = static_cast<double>(
      std::max<std::size_t>(twins.batches, 1));
  auto& m = report->metrics;
  m["tia.aggregate_us"] = {lt.traced_tia_us / q, "us"};
  m["tia.aggregate_calls"] = {calls / q, "count"};
  m["tia.us_per_aggregate_call"] = {us_per_call, "us"};
  m["buffer_pool.fetches_per_query"] = {fetches / q, "count"};
  m["buffer_pool.fetches_per_aggregate_call"] = {Ratio(fetches, calls),
                                                 "count"};
  m["buffer_pool.hit_rate"] = {
      Ratio(static_cast<double>(st.tia_buffer_hits), fetches), "ratio"};
  m["knnta.gmax_us"] = {lt.gmax_us / q, "us"};
  m["knnta.search_us"] = {lt.search_us / q, "us"};
  m["knnta.rtree_node_reads"] = {
      static_cast<double>(st.rtree_node_reads) / q, "count"};
  m["knnta.entries_scanned"] = {static_cast<double>(st.entries_scanned) / q,
                                "count"};
  m["knnta.heap_pushes"] = {static_cast<double>(lt.heap_pushes) / q,
                            "count"};
  m["knnta.results_per_entry_scanned"] = {
      Ratio(static_cast<double>(lt.results),
            static_cast<double>(st.entries_scanned)),
      "ratio"};
  m["sharded_store.query_us"] = {lt.store_us / q, "us"};
  m["sharded_store.fanout_self_us"] = {
      (lt.store_us - lt.pin_us - lt.gmax_us - lt.search_us - lt.merge_us) / q,
      "us"};
  m["sharded_store.merge_us"] = {lt.merge_us / q, "us"};
  m["serve.self_us"] = {(lt.serve_us - lt.store_us) / q, "us"};
  m["snapshot_store.pin_us"] = {lt.pin_us / q, "us"};
  m["sharded_store.append_ms"] = {Mean(appends.append_ms), "ms"};
  m["snapshot_store.stage_ms"] = {twins.stage_ms / batches, "ms"};
  m["snapshot_store.publish_us"] = {twins.publish_us / batches, "us"};
  m["snapshot_store.catch_up_ms"] = {twins.catch_up_ms / batches, "ms"};
  m["wal.bytes_per_record"] = {
      Ratio(static_cast<double>(appends.wal_growth),
            static_cast<double>(appends.records)),
      "bytes"};
  m["store.rss_bytes_per_ingested_record"] = {
      Ratio(static_cast<double>(appends.rss_growth),
            static_cast<double>(appends.records)),
      "bytes"};
  m["bench.gen_late_p99_us"] = {Quantile(late_us, 0.99), "us"};
  m["bench.trace_overhead_pct"] = {
      100.0 * (Ratio(lt.traced_us, lt.gmax_us + lt.search_us) - 1.0), "%"};

  report->detail_json =
      JsonObject()
          .Add("workload", std::string(spec.name))
          .Add("trace", true)
          .Raw("host", s.host.ToJson())
          .Raw("inputs", InputsJson(in))
          .Add("traced_queries", lt.queries)
          .Add("replay_mismatches", replay_mismatches)
          .Add("wrong_answers", wrong)
          .Add("streamed_check", streamed_ok)
          .Add("direct_appends",
               static_cast<std::uint64_t>(appends.append_ms.size()))
          .Add("twin_batches", static_cast<std::uint64_t>(twins.batches))
          .Add("direct_tia_calls", lt.direct_tia_calls)
          .Add("traced_tia_us_per_call", Ratio(lt.traced_tia_us, calls))
          .str();
  return Status::OK();
}

}  // namespace

// --- Statistics ---

bool PercentileSupported(std::size_t n, double q) {
  if (n == 0 || q < 0.0 || q > 1.0) return false;
  // Nearest rank r = ceil(q n) leaves n - r samples above the percentile.
  const std::size_t rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(n) - 1e-9));
  return n - std::max<std::size_t>(rank, 1) >= kTailSamples;
}

double HighestSupportedQuantile(std::size_t n) {
  if (n <= kTailSamples) return 0.0;
  return static_cast<double>(n - kTailSamples) / static_cast<double>(n);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const std::size_t n = values.size();
  std::size_t rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(n) - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, n);
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

std::vector<double> FloorsByKey(const std::vector<std::size_t>& keys,
                                const std::vector<double>& values) {
  std::map<std::size_t, double> floor;
  for (std::size_t i = 0; i < keys.size() && i < values.size(); ++i) {
    const auto [it, fresh] = floor.emplace(keys[i], values[i]);
    if (!fresh) it->second = std::min(it->second, values[i]);
  }
  std::vector<double> out;
  out.reserve(floor.size());
  for (const auto& [key, value] : floor) out.push_back(value);
  return out;
}

WindowCounts CountWindow(double start_s, double end_s,
                         const std::vector<double>& read_done_s,
                         const std::vector<TimedBatch>& batches) {
  WindowCounts c;
  for (double t : read_done_s) {
    if (t >= start_s && t <= end_s) ++c.reads;
  }
  for (const TimedBatch& b : batches) {
    if (b.done_s >= start_s && b.done_s <= end_s) {
      ++c.batches;
      c.records += b.records;
    }
  }
  const double len = end_s - start_s;
  if (len > 0.0) {
    c.query_qps = static_cast<double>(c.reads) / len;
    c.ingest_rps = static_cast<double>(c.records) / len;
  }
  return c;
}

// --- Workloads and inputs ---

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

Inputs MakeInputs(const InputOptions& options) {
  Inputs in;
  // The GW bench preset (bench/bench_common.cc, PrepareGw) with its own
  // generator seed: the data set is fixed, the seed varies the queries
  // and the write order. Per-query cost differs by up to 2x between data
  // seeds, more than any regression bound could absorb.
  GeneratorConfig cfg = GwConfig(options.scale);
  cfg.tail_fraction = 0.08;
  in.data = GenerateLbsn(cfg);
  in.grid = EpochGrid(0, 7 * kSecondsPerDay);
  in.counts = BuildEpochCounts(in.data, in.grid);
  in.effective = EffectivePois(in.counts, cfg.effective_threshold);
  const std::int64_t epochs = in.counts.num_epochs;
  const std::int64_t half = std::max<std::int64_t>(1, epochs / 2);
  in.preload_epochs = options.preload_full ? epochs : half;
  for (PoiId id : in.effective) {
    const std::vector<std::int32_t>& h = in.counts.counts[id];
    for (std::size_t e = 0; e < h.size(); ++e) {
      if (h[e] <= 0) continue;
      if (static_cast<std::int64_t>(e) < in.preload_epochs) {
        ++in.preload_records;
      }
    }
  }
  for (std::int64_t e = half; e < epochs; ++e) {
    Batch batch;
    for (PoiId id : in.effective) {
      const std::vector<std::int32_t>& h = in.counts.counts[id];
      if (static_cast<std::size_t>(e) < h.size() && h[e] > 0) {
        batch[id] = h[e];
      }
    }
    if (!batch.empty()) in.stream.push_back(std::move(batch));
  }
  in.first_stream_epoch = in.preload_epochs;
  Rng rng(options.seed);
  in.stream_offset = static_cast<std::size_t>(
      rng.UniformInt(0, static_cast<std::int64_t>(in.stream.size()) - 1));
  // The paper mix (k = 10, alpha0 = 0.3, points drawn from the POIs,
  // intervals of 2^0..2^9 days), stratified so every length appears
  // equally often, with each interval inside the preloaded epochs so
  // answers stay fixed while a writer appends later epochs.
  const Timestamp span_end =
      std::min(in.data.t_end, in.grid.EpochEnd(in.preload_epochs - 1));
  const std::int64_t last_poi = static_cast<std::int64_t>(in.data.pois.size()) - 1;
  for (std::size_t i = 0; i < options.num_queries; ++i) {
    KnntaQuery q;
    q.point = in.data.pois[static_cast<std::size_t>(rng.UniformInt(0, last_poi))].pos;
    const Timestamp len =
        std::min<Timestamp>((Timestamp{1} << (i % 10)) * kSecondsPerDay,
                            span_end + 1);
    const Timestamp start = rng.UniformInt(0, span_end + 1 - len);
    q.interval = {start, start + len - 1};
    q.k = 10;
    q.alpha0 = 0.3;
    in.queries.push_back(q);
  }
  return in;
}

TarTreeOptions TreeOptions(const Inputs& in) {
  TarTreeOptions opt;
  opt.grid = in.grid;
  opt.space = in.data.bounds;
  return opt;
}

Result<std::unique_ptr<ShardedStore>> OpenStore(const Inputs& in,
                                                std::size_t shards,
                                                const std::string& prefix) {
  ShardedStoreOptions opt;
  opt.num_shards = shards;
  opt.tree = TreeOptions(in);
  opt.store_prefix = prefix;
  TAR_ASSIGN_OR_RETURN(std::unique_ptr<ShardedStore> store,
                       ShardedStore::Open(opt));
  for (PoiId id : in.effective) {
    TAR_RETURN_NOT_OK(
        store->InsertPoi(in.data.pois[id], PreloadHistory(in, id)));
  }
  return store;
}

std::unique_ptr<TarTree> BuildReferenceTree(const Inputs& in) {
  auto tree = std::make_unique<TarTree>(TreeOptions(in));
  for (PoiId id : in.effective) {
    const Status st = tree->InsertPoi(in.data.pois[id], PreloadHistory(in, id));
    if (!st.ok()) {
      std::fprintf(stderr, "reference InsertPoi: %s\n", st.ToString().c_str());
      std::abort();
    }
  }
  return tree;
}

bool SameResults(const std::vector<KnntaResult>& a,
                 const std::vector<KnntaResult>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].poi != b[i].poi || a[i].aggregate != b[i].aggregate ||
        std::memcmp(&a[i].score, &b[i].score, sizeof(double)) != 0 ||
        std::memcmp(&a[i].dist, &b[i].dist, sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

// --- Traced replay ---

namespace {

/// The shared context ShardedStore::Query builds, before gmax is known.
TarTree::QueryContext BaseContext(const ShardedStore& store,
                                  const KnntaQuery& query) {
  const TarTreeOptions& topt = store.options().tree;
  TarTree::QueryContext ctx;
  ctx.q = query.point;
  ctx.interval = topt.grid.AlignOutward(query.interval);
  ctx.alpha0 = query.alpha0;
  ctx.alpha1 = 1.0 - query.alpha0;
  ctx.dmax = SpatialNormalizer(topt.space);
  return ctx;
}

/// Per-shard MaxAggregate, per-shard QueryWithContext and the merge, as
/// ShardedStore::Query runs them (without access accounting, like the
/// server's reads). Leaves the full context in `*ctx`.
Status UntracedReplay(const std::vector<TreeSnapshot>& snaps,
                      const KnntaQuery& query, TarTree::QueryContext* ctx,
                      std::vector<KnntaResult>* merged, LayerTotals* totals) {
  const double t0 = NowSeconds();
  std::int64_t gmax = 0;
  for (const TreeSnapshot& snap : snaps) {
    auto shard_max = snap.tree().MaxAggregate(ctx->interval);
    TAR_RETURN_NOT_OK(shard_max.status());
    gmax = std::max(gmax, shard_max.ValueOrDie());
  }
  ctx->gmax = AggregateNormalizer(gmax);
  const double t1 = NowSeconds();
  merged->clear();
  std::vector<KnntaResult> part;
  for (const TreeSnapshot& snap : snaps) {
    TAR_RETURN_NOT_OK(snap.tree().QueryWithContext(query, *ctx, &part));
    merged->insert(merged->end(), part.begin(), part.end());
  }
  const double t2 = NowSeconds();
  std::sort(merged->begin(), merged->end(),
            [](const KnntaResult& a, const KnntaResult& b) {
              if (a.score != b.score) return a.score < b.score;
              return a.poi < b.poi;
            });
  if (merged->size() > query.k) merged->resize(query.k);
  const double t3 = NowSeconds();
  totals->gmax_us += Micros(t1 - t0);
  totals->search_us += Micros(t2 - t1);
  totals->merge_us += Micros(t3 - t2);
  totals->results += merged->size();
  return Status::OK();
}

/// Gmax and search with a QueryTrace: MakeContext's per-shard gmax search
/// is the MaxAggregate above, and the phases carry the accesses, the time
/// inside TIA aggregation and the heap traffic.
Status TracedReplay(const std::vector<TreeSnapshot>& snaps,
                    const KnntaQuery& query, TarTree::QueryContext ctx,
                    LayerTotals* totals) {
  const double t0 = NowSeconds();
  std::vector<QueryTrace> traces(snaps.size());
  double gmax = AggregateNormalizer(0);
  for (std::size_t i = 0; i < snaps.size(); ++i) {
    auto shard_ctx = snaps[i].tree().MakeContext(query, nullptr, &traces[i]);
    TAR_RETURN_NOT_OK(shard_ctx.status());
    gmax = std::max(gmax, shard_ctx.ValueOrDie().gmax);
  }
  ctx.gmax = gmax;
  std::vector<KnntaResult> part;
  for (std::size_t i = 0; i < snaps.size(); ++i) {
    TAR_RETURN_NOT_OK(snaps[i].tree().QueryWithContext(
        query, ctx, &part, /*stats=*/nullptr, &traces[i]));
  }
  totals->traced_us += Micros(NowSeconds() - t0);
  for (const QueryTrace& trace : traces) {
    for (const QueryTrace::Phase& phase : trace.phases) {
      totals->heap_pushes += phase.heap_pushes;
    }
    totals->stats += trace.Totals();
    totals->traced_tia_us += trace.TiaMicros();
  }
  return Status::OK();
}

/// Tia::Aggregate timed from outside on every entry of the nodes the
/// search expands first: from the root, follow the best-scoring entry
/// down to a leaf (internal and leaf TIAs alike).
Status TimeTiaAggregate(const std::vector<TreeSnapshot>& snaps,
                        const TarTree::QueryContext& ctx,
                        LayerTotals* totals) {
  std::vector<const Tia*> tias;
  for (const TreeSnapshot& snap : snaps) {
    const TarTree& tree = snap.tree();
    for (TarTree::NodeId id = tree.root(); id != TarTree::kInvalidNodeId;) {
      const TarTree::Node& node = tree.node(id);
      TarTree::NodeId next = TarTree::kInvalidNodeId;
      double best = std::numeric_limits<double>::infinity();
      for (const TarTree::Entry& e : node.entries) {
        tias.push_back(e.tia.get());
        if (node.is_leaf()) continue;
        TAR_ASSIGN_OR_RETURN(const double score, tree.EntryScore(e, ctx));
        if (score < best) {
          best = score;
          next = e.child;
        }
      }
      id = next;
    }
  }
  std::int64_t sink = 0;
  const double t0 = NowSeconds();
  for (const Tia* tia : tias) {
    auto agg = tia->Aggregate(ctx.interval);
    TAR_RETURN_NOT_OK(agg.status());
    sink += agg.ValueOrDie();
  }
  totals->direct_tia_us += Micros(NowSeconds() - t0);
  totals->direct_tia_calls += tias.size();
  if (sink < 0) return Status::Corruption("negative TIA aggregate");
  return Status::OK();
}

}  // namespace

Status ReplayQuery(const ShardedStore& store, const KnntaQuery& query,
                   bool traced_first, std::vector<KnntaResult>* results,
                   LayerTotals* totals) {
  const double t0 = NowSeconds();
  std::vector<TreeSnapshot> snaps(store.num_shards());
  for (std::size_t i = 0; i < snaps.size(); ++i) {
    snaps[i] = store.shard(i)->Acquire();
  }
  totals->pin_us += Micros(NowSeconds() - t0);
  TarTree::QueryContext ctx = BaseContext(store, query);
  if (traced_first) TAR_RETURN_NOT_OK(TracedReplay(snaps, query, ctx, totals));
  TAR_RETURN_NOT_OK(UntracedReplay(snaps, query, &ctx, results, totals));
  if (!traced_first) TAR_RETURN_NOT_OK(TracedReplay(snaps, query, ctx, totals));
  TAR_RETURN_NOT_OK(TimeTiaAggregate(snaps, ctx, totals));
  ++totals->queries;
  return Status::OK();
}

// --- Process probes ---

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

std::uint64_t RssBytes() {
  std::ifstream statm("/proc/self/statm");
  std::uint64_t size = 0;
  std::uint64_t resident = 0;
  statm >> size >> resident;
  return resident * static_cast<std::uint64_t>(sysconf(_SC_PAGESIZE));
}

void TrimHeap() { malloc_trim(0); }

namespace {

std::uint64_t Spin(std::uint64_t iters) {
  std::uint64_t x = 88172645463325252ull;
  for (std::uint64_t i = 0; i < iters; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return x;
}

/// Keeps the spin loops observable to the optimizer.
std::atomic<std::uint64_t> g_spin_sink{0};

/// Wall milliseconds for `threads` threads (the caller plus threads - 1
/// helpers) to spin `iters` each.
double SpinWallMs(int threads, std::uint64_t iters) {
  const double t0 = NowSeconds();
  std::vector<std::thread> helpers;
  for (int t = 1; t < threads; ++t) {
    helpers.emplace_back([iters] { g_spin_sink.fetch_xor(Spin(iters)); });
  }
  g_spin_sink.fetch_xor(Spin(iters));
  for (std::thread& h : helpers) h.join();
  return (NowSeconds() - t0) * 1e3;
}

}  // namespace

void WarmUpHost(double seconds) {
  const double end = NowSeconds() + seconds;
  auto spin = [end] {
    while (NowSeconds() < end) g_spin_sink.fetch_xor(Spin(1'000'000));
  };
  std::vector<std::thread> helpers;
  for (int t = 1; t < 4; ++t) helpers.emplace_back(spin);
  spin();
  for (std::thread& h : helpers) h.join();
}

HostCalibration CalibrateHost() {
  constexpr std::uint64_t kIters = 40'000'000;
  HostCalibration h;
  SpinWallMs(1, kIters / 4);  // warm-up
  h.spin_ms_1 = SpinWallMs(1, kIters);
  const int threads[3] = {1, 2, 4};
  for (int i = 0; i < 3; ++i) {
    const double ms = SpinWallMs(threads[i], kIters);
    h.effective_cores[i] = ms > 0.0 ? threads[i] * h.spin_ms_1 / ms : 0.0;
  }
  return h;
}

std::string HostCalibration::ToJson() const {
  return JsonObject()
      .Add("spin_ms_1thread", spin_ms_1)
      .Add("effective_cores_1", effective_cores[0])
      .Add("effective_cores_2", effective_cores[1])
      .Add("effective_cores_4", effective_cores[2])
      .Add("hardware_threads",
           static_cast<std::uint64_t>(std::thread::hardware_concurrency()))
      .str();
}

// --- Runs ---

Status RunWorkload(const RunOptions& options, RunReport* report) {
  *report = RunReport{};
  Shared s;
  s.spec = FindWorkload(options.workload);
  if (s.spec == nullptr) {
    return Status::InvalidArgument("unknown workload: " + options.workload);
  }
  if (!(options.seconds > 0.0)) {
    return Status::InvalidArgument("--seconds must be positive");
  }
  s.options = &options;
  WarmUpHost(options.warm_up_s < 0.0 ? kWarmUpSeconds : options.warm_up_s);
  s.host = CalibrateHost();
  InputOptions io;
  io.seed = options.seed;
  if (options.scale > 0.0) io.scale = options.scale;
  if (options.num_queries > 0) io.num_queries = options.num_queries;
  io.preload_full = !s.spec->ingest;
  s.in = MakeInputs(io);
  if (s.in.effective.empty() || s.in.stream.empty() || s.in.queries.empty()) {
    return Status::FailedPrecondition("generated inputs are empty");
  }
  // Expected answers from an unsharded tree; not part of setup_s.
  {
    std::unique_ptr<TarTree> ref = BuildReferenceTree(s.in);
    s.expected.resize(s.in.queries.size());
    for (std::size_t i = 0; i < s.in.queries.size(); ++i) {
      TAR_RETURN_NOT_OK(ref->Query(s.in.queries[i], &s.expected[i]));
    }
  }
  TrimHeap();
  std::filesystem::create_directories(options.work_dir);
  const Status st =
      options.trace ? RunTraced(s, report) : RunUntraced(s, report);
  std::filesystem::remove_all(options.work_dir);
  return st;
}

}  // namespace perfbench
