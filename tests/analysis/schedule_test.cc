// Deterministic schedule-exploration tests for the latched storage layer.
//
// TSan only catches a lock-order inversion in the interleavings a run
// happens to produce. This harness removes the "happens to": a yield-
// point controller serializes 2-3 thread scripts — each script a list of
// steps over BufferPool / WAL / checkpoint operations — and EXHAUSTIVELY
// permutes every bounded interleaving of those steps. Each schedule runs
// the steps one at a time in the chosen order, so every reachable
// acquisition order of the latch hierarchy is actually exercised.
//
// Two families of assertions:
//   * no legal schedule deadlocks (a watchdog aborts with the schedule
//     printed if a step ever fails to complete), and structural
//     invariants hold after every schedule (BufferPool::CheckIntegrity,
//     WAL scan validity, LSN monotonicity);
//   * a seeded rank inversion is caught by the debug lock-order detector
//     in EVERY schedule — schedule-independence is exactly what the
//     static rank discipline buys over interleaving-dependent tools.

#include <unistd.h>

#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iterator>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/lock_rank.h"
#include "common/mutex.h"
#include "storage/buffer_pool.h"
#include "storage/page_file.h"
#include "storage/wal.h"

#if TAR_LOCK_ORDER_CHECKS
#include "analysis/lock_order.h"
#endif

namespace tar {
namespace {

/// One thread's script: steps executed in order, one per schedule slot.
using Script = std::vector<std::function<void()>>;

/// All interleavings of threads with the given step counts, as sequences
/// of thread ids (e.g. {0,1,0} = thread 0 step, thread 1 step, thread 0
/// step). Multiset permutations: (sum counts)! / prod(counts!).
std::vector<std::vector<int>> AllInterleavings(
    const std::vector<std::size_t>& counts) {
  std::vector<std::vector<int>> out;
  std::vector<int> cur;
  std::vector<std::size_t> used(counts.size(), 0);
  std::size_t total = 0;
  for (std::size_t c : counts) total += c;
  std::function<void()> rec = [&] {
    if (cur.size() == total) {
      out.push_back(cur);
      return;
    }
    for (std::size_t t = 0; t < counts.size(); ++t) {
      if (used[t] == counts[t]) continue;
      ++used[t];
      cur.push_back(static_cast<int>(t));
      rec();
      cur.pop_back();
      --used[t];
    }
  };
  rec();
  return out;
}

/// Runs `scripts` with their steps serialized in exactly `order`. A step
/// that does not complete within the watchdog budget is a deadlock: the
/// harness prints the schedule and aborts (a hang must fail the test run,
/// not stall it).
void RunSchedule(const std::vector<Script>& scripts,
                 const std::vector<int>& order) {
  std::mutex m;
  std::condition_variable cv;
  std::size_t pos = 0;  // index of the next schedule slot to run

  auto worker = [&](int tid) {
    for (std::size_t step = 0; step < scripts[tid].size(); ++step) {
      {
        std::unique_lock<std::mutex> l(m);
        cv.wait(l, [&] { return pos < order.size() && order[pos] == tid; });
      }
      scripts[tid][step]();  // outside the controller lock
      {
        std::lock_guard<std::mutex> l(m);
        ++pos;
      }
      cv.notify_all();
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(scripts.size());
  for (std::size_t t = 0; t < scripts.size(); ++t) {
    threads.emplace_back(worker, static_cast<int>(t));
  }

  // Watchdog: every slot must complete within the budget. Generous, so
  // CI load cannot trip it; a real deadlock never completes regardless.
  {
    std::unique_lock<std::mutex> l(m);
    while (pos < order.size()) {
      const std::size_t before = pos;
      if (!cv.wait_for(l, std::chrono::seconds(30),
                       [&] { return pos > before; })) {
        std::string sched;
        for (int t : order) sched += std::to_string(t);
        std::fprintf(stderr,
                     "schedule_test: deadlock — no step completed for 30s "
                     "in schedule %s at slot %zu\n",
                     sched.c_str(), pos);
        std::abort();
      }
    }
  }
  for (std::thread& t : threads) t.join();
}

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "schedule_test_" + name + "_" +
         std::to_string(::getpid());
}

// ---------------------------------------------------------------------------
// No legal schedule may deadlock, and invariants hold after every one.

TEST(ScheduleTest, BufferPoolTwoThreadsEveryInterleaving) {
  PageFile file(128);
  std::vector<PageId> ids;
  for (int i = 0; i < 4; ++i) {
    auto id = file.Allocate();
    ASSERT_TRUE(id.ok());
    ids.push_back(id.ValueOrDie());
  }
  BufferPool pool(&file, 2);

  // Thread 0 churns owner 1 and resizes the quota (the all-shards
  // sweep); thread 1 churns owner 2 (a different shard) and runs the
  // cross-shard integrity check, which takes every shard latch in turn.
  const Script t0 = {
      [&] { ASSERT_TRUE(pool.Fetch(1, ids[0]).ok()); },
      [&] { pool.set_quota(1); },
      [&] { ASSERT_TRUE(pool.Fetch(1, ids[1]).ok()); },
      [&] { pool.set_quota(3); },
  };
  const Script t1 = {
      [&] { ASSERT_TRUE(pool.FetchForWrite(2, ids[2]).ok()); },
      [&] { ASSERT_TRUE(pool.CheckIntegrity().ok()); },
      [&] { pool.Evict(2); },
  };

  const auto schedules = AllInterleavings({t0.size(), t1.size()});
  ASSERT_EQ(schedules.size(), 35u);  // C(7,3)
  for (const auto& order : schedules) {
    RunSchedule({t0, t1}, order);
    ASSERT_TRUE(pool.CheckIntegrity().ok());
    pool.set_quota(2);
    pool.Clear();
  }
}

TEST(ScheduleTest, WalAppendSyncTwoWritersSerialize) {
  // Two threads share one WalWriter (thread-safe since the `wal.writer`
  // latch). Every interleaving must yield a clean, strictly-LSN-ordered
  // log containing all four records.
  const auto schedules = AllInterleavings({2, 2});
  ASSERT_EQ(schedules.size(), 6u);
  int round = 0;
  for (const auto& order : schedules) {
    const std::string path =
        TempPath(("wal2_" + std::to_string(round++)).c_str());
    std::remove(path.c_str());
    auto open = WalWriter::Open(path, WalWriterOptions{.group_commit_records = 1});
    ASSERT_TRUE(open.ok());
    WalWriter* wal = open.ValueOrDie().get();

    auto append = [wal](std::uint32_t poi) {
      auto lsn = wal->Append(WalRecord::MakeInsertPoi(poi, 1.0, 2.0, {1}));
      ASSERT_TRUE(lsn.ok());
    };
    const Script t0 = {[&] { append(10); }, [&] { append(11); }};
    const Script t1 = {[&] { append(20); }, [&] { append(21); }};
    RunSchedule({t0, t1}, order);
    ASSERT_TRUE(open.ValueOrDie()->Sync().ok());

    std::ifstream in(path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    const WalScan scan = ScanWal(bytes);
    EXPECT_EQ(scan.tail, WalTail::kClean) << scan.tail_detail;
    ASSERT_EQ(scan.records.size(), 4u);
    std::set<std::uint32_t> pois;
    Lsn last = 0;
    for (const WalRecord& r : scan.records) {
      EXPECT_GT(r.lsn, last);  // strictly increasing
      last = r.lsn;
      pois.insert(r.poi);
    }
    EXPECT_EQ(pois, (std::set<std::uint32_t>{10, 11, 20, 21}));
    std::remove(path.c_str());
  }
}

TEST(ScheduleTest, ThreeThreadsPoolWalAndCheckpoint) {
  // Three-way mix across the whole hierarchy: a reader (a shard latch,
  // then page_file on a miss), an ingester appending to the WAL, and a
  // checkpointer that syncs and truncates the log (the durability step
  // of core/recovery's Checkpoint). 8!/(3!3!2!) = 560 interleavings.
  const auto schedules = AllInterleavings({3, 3, 2});
  ASSERT_EQ(schedules.size(), 560u);

  PageFile file(128);
  auto id = file.Allocate();
  ASSERT_TRUE(id.ok());
  BufferPool pool(&file, 2);

  const std::string path = TempPath("wal3");
  int round = 0;
  for (const auto& order : schedules) {
    std::remove(path.c_str());
    auto open = WalWriter::Open(path);
    ASSERT_TRUE(open.ok());
    WalWriter* wal = open.ValueOrDie().get();

    const Script reader = {
        [&] { ASSERT_TRUE(pool.Fetch(7, id.ValueOrDie()).ok()); },
        [&] { ASSERT_TRUE(pool.CheckIntegrity().ok()); },
        [&] { ASSERT_TRUE(pool.Fetch(8, id.ValueOrDie()).ok()); },
    };
    const Script ingester = {
        [&] {
          ASSERT_TRUE(
              wal->Append(WalRecord::MakeInsertPoi(1, 0, 0, {1})).ok());
        },
        [&] {
          ASSERT_TRUE(
              wal->Append(WalRecord::MakeAppendEpoch(5, {{1, 2}})).ok());
        },
        [&] { ASSERT_TRUE(wal->Sync().ok()); },
    };
    const Script checkpointer = {
        [&] { ASSERT_TRUE(wal->Sync().ok()); },
        [&] { ASSERT_TRUE(wal->Truncate().ok()); },
    };
    RunSchedule({reader, ingester, checkpointer}, order);

    // Whatever the order, the writer is alive, LSNs kept counting, and
    // the log scans cleanly (possibly empty after the truncation).
    EXPECT_EQ(wal->last_lsn(), 2u);
    ASSERT_TRUE(wal->Sync().ok());
    std::ifstream in(path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    const WalScan scan = ScanWal(bytes);
    EXPECT_EQ(scan.tail, WalTail::kClean)
        << "round " << round << ": " << scan.tail_detail;
    Lsn last = 0;
    for (const WalRecord& r : scan.records) {
      EXPECT_GT(r.lsn, last);
      last = r.lsn;
    }
    ASSERT_TRUE(pool.CheckIntegrity().ok());
    pool.Clear();
    ++round;
  }
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// The detector catches a seeded inversion in EVERY schedule.

#if TAR_LOCK_ORDER_CHECKS

std::vector<std::string>* g_reports = nullptr;
std::mutex g_reports_mu;
void CollectingHandler(const std::string& report) {
  std::lock_guard<std::mutex> l(g_reports_mu);
  if (g_reports != nullptr) g_reports->push_back(report);
}

/// True if any collected report describes the seeded rank inversion.
bool SawRankInversion(const std::vector<std::string>& reports) {
  for (const std::string& r : reports) {
    if (r.find("acquiring \"buffer_pool.shard\"") != std::string::npos &&
        r.find("while holding \"page_file\"") != std::string::npos) {
      return true;
    }
  }
  return false;
}

TEST(ScheduleTest, SeededInversionIsCaughtInEverySchedule) {
  // Thread 0 nests its pair of latches in hierarchy order; thread 1 is
  // seeded with the inversion (page_file before shard). Each thread has
  // its own mutex instances so no schedule can physically deadlock — yet
  // the detector must flag thread 1 in every single interleaving,
  // because the rank check consults the thread's own held stack, not a
  // lucky collision. (The acquisition-order graph additionally reports
  // the cross-thread shard->file / file->shard cycle once both threads
  // have recorded their edges.)
  const auto schedules = AllInterleavings({4, 4});
  ASSERT_EQ(schedules.size(), 70u);
  for (const auto& order : schedules) {
    lockorder::ResetGraphForTest();
    std::vector<std::string> reports;
    g_reports = &reports;
    auto prev = lockorder::SetViolationHandlerForTest(&CollectingHandler);

    Mutex shard0{LockRank::kBufferPoolShard, "buffer_pool.shard"};
    Mutex file0{LockRank::kPageFile, "page_file"};
    Mutex shard1{LockRank::kBufferPoolShard, "buffer_pool.shard"};
    Mutex file1{LockRank::kPageFile, "page_file"};

    const Script correct = {
        [&] { shard0.Lock(); },
        [&] { file0.Lock(); },
        [&] { file0.Unlock(); },
        [&] { shard0.Unlock(); },
    };
    const Script inverted = {
        [&] { file1.Lock(); },
        [&] { shard1.Lock(); },  // rank inversion, every schedule
        [&] { shard1.Unlock(); },
        [&] { file1.Unlock(); },
    };
    RunSchedule({correct, inverted}, order);

    lockorder::SetViolationHandlerForTest(prev);
    g_reports = nullptr;
    EXPECT_TRUE(SawRankInversion(reports))
        << "schedule did not catch the seeded inversion ("
        << reports.size() << " reports)";
  }
  lockorder::ResetGraphForTest();
}

TEST(ScheduleTest, CorrectOrdersAreQuietInEverySchedule) {
  // Control for the previous test: both threads nest in hierarchy order;
  // no schedule may produce a report.
  const auto schedules = AllInterleavings({4, 4});
  for (const auto& order : schedules) {
    lockorder::ResetGraphForTest();
    std::vector<std::string> reports;
    g_reports = &reports;
    auto prev = lockorder::SetViolationHandlerForTest(&CollectingHandler);

    Mutex shard0{LockRank::kBufferPoolShard, "buffer_pool.shard"};
    Mutex file0{LockRank::kPageFile, "page_file"};
    Mutex shard1{LockRank::kBufferPoolShard, "buffer_pool.shard"};
    Mutex file1{LockRank::kPageFile, "page_file"};

    const Script a = {
        [&] { shard0.Lock(); },
        [&] { file0.Lock(); },
        [&] { file0.Unlock(); },
        [&] { shard0.Unlock(); },
    };
    const Script b = {
        [&] { shard1.Lock(); },
        [&] { file1.Lock(); },
        [&] { file1.Unlock(); },
        [&] { shard1.Unlock(); },
    };
    RunSchedule({a, b}, order);

    lockorder::SetViolationHandlerForTest(prev);
    g_reports = nullptr;
    EXPECT_TRUE(reports.empty()) << reports.front();
  }
  lockorder::ResetGraphForTest();
}

#endif  // TAR_LOCK_ORDER_CHECKS

}  // namespace
}  // namespace tar
