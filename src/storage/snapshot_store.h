// Snapshot-isolated store around a TAR-tree: readers keep querying while
// a writer ingests — the headline fix for the reader-exclusion defect
// (ROADMAP item 1; TarTree itself mutates nodes in place, so a bare
// AppendEpoch excludes every reader from the whole tree).
//
// Design: double-buffered replicas (an MVCC history of depth two, in the
// spirit of STO's MvObject chains — two versions suffice because replay
// is deterministic). Two structurally identical TarTree replicas are kept
// in sync by applying every WAL record to both; at any moment one replica
// is "live" (serving reads) and the other is the writer's workbench. A
// mutation is prevalidated, logged (log-before-mutate), applied to the
// standby replica, then published by atomically flipping the live-slot
// index; readers that arrived before the flip drain off the old replica,
// after which the writer catches it up with the same record. Readers
// never wait on the writer — Acquire is two atomic operations — while
// the writer waits for reader drain, which terminates because every
// post-flip reader lands on the new replica.
//
// Durability: with a WAL path the store is exactly a PR-5 single-tree
// store on disk (snapshot file + log); Open() recovers both replicas by
// replaying the same log (replay is deterministic and idempotent by LSN,
// so the replicas converge). Without a WAL path the store is in-memory
// and LSNs come from an internal counter.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/result.h"
#include "common/status.h"
#include "core/tar_tree.h"
#include "storage/wal.h"

namespace tar {

class SnapshotStore;

/// \brief A pinned read snapshot: a stable, immutable view of the store.
///
/// While a snapshot is held its replica cannot be mutated (the writer
/// publishes on the other replica and waits for this one to drain), so
/// every const TarTree query through tree() sees one consistent version.
/// Move-only RAII; release promptly — a long-held snapshot stalls writers
/// at their next publish (they back off to a sleeping poll), never other
/// readers.
class TreeSnapshot {
 public:
  TreeSnapshot() = default;
  TreeSnapshot(TreeSnapshot&& other) noexcept { *this = std::move(other); }
  TreeSnapshot& operator=(TreeSnapshot&& other) noexcept {
    if (this != &other) {
      Release();
      store_ = other.store_;
      tree_ = other.tree_;
      slot_ = other.slot_;
      version_ = other.version_;
      other.store_ = nullptr;
      other.tree_ = nullptr;
    }
    return *this;
  }
  ~TreeSnapshot() { Release(); }

  TreeSnapshot(const TreeSnapshot&) = delete;
  TreeSnapshot& operator=(const TreeSnapshot&) = delete;

  bool valid() const { return store_ != nullptr; }

  /// The pinned replica. Only const access: snapshots read, never write.
  const TarTree& tree() const { return *tree_; }
  const TarTree* operator->() const { return tree_; }

  /// Store version this snapshot pinned (monotone; bumps once per applied
  /// mutation). Two snapshots with equal versions saw identical data.
  std::uint64_t version() const { return version_; }

  /// Unpins the replica (idempotent).
  void Release();

 private:
  friend class SnapshotStore;
  const SnapshotStore* store_ = nullptr;
  const TarTree* tree_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint64_t version_ = 0;
};

/// \brief Construction/recovery parameters for a SnapshotStore.
struct SnapshotStoreOptions {
  /// Tree construction parameters (both replicas are built from these).
  TarTreeOptions tree;

  /// Snapshot (checkpoint) file path; empty = in-memory store (no
  /// Checkpoint support). Must be set together with wal_path.
  std::string snapshot_path;

  /// WAL file path; empty = in-memory store (mutations get LSNs from an
  /// internal counter and durability is the caller's problem).
  std::string wal_path;

  /// Group-commit knobs for the WAL writer.
  WalWriterOptions wal;

  /// Verification policy when recovering an existing snapshot file.
  TarTree::LoadOptions load;
};

/// \brief Double-buffered snapshot store; see the file comment.
///
/// Thread safety: Acquire() and the TreeSnapshot it returns are safe from
/// any number of threads concurrently with one writer. Mutations
/// (InsertPoi, AppendEpoch, Checkpoint, Flush) serialize on an internal
/// latch — callers need no external exclusion.
class SnapshotStore {
 public:
  /// Creates or recovers a store. With snapshot/wal paths, an existing
  /// snapshot file is recovered and the log replayed (per-replica); a
  /// fresh store starts empty and checkpoints lazily.
  static Result<std::unique_ptr<SnapshotStore>> Open(
      const SnapshotStoreOptions& options);

  ~SnapshotStore();

  SnapshotStore(const SnapshotStore&) = delete;
  SnapshotStore& operator=(const SnapshotStore&) = delete;

  /// Pins the current live replica for reading. Never blocks on the
  /// writer: two atomics on the hot path.
  TreeSnapshot Acquire() const;

  /// Current published version (monotone, starts at 1).
  std::uint64_t version() const {
    return version_.load(std::memory_order_acquire);
  }

  // --- Mutations (internally serialized; readers unaffected) ---

  Status InsertPoi(const Poi& poi,
                   const std::vector<std::int32_t>& history = {});
  Status AppendEpoch(std::int64_t epoch,
                     const std::unordered_map<PoiId, std::int64_t>& aggs);

  // --- Staged mutation (cross-store publish coordination) ---
  //
  // A coordinator that must flip several stores atomically with respect
  // to readers (ShardedStore's coherent cut) splits a mutation into
  // three phases: StageEpoch runs the slow half (prevalidate, WAL
  // append, standby drain + apply) without changing what readers see;
  // PublishStaged flips readers to the staged replica — a few atomic
  // stores, so the coordinator can publish every store inside one brief
  // window; CatchUpStaged drains the retired replica and applies the
  // same record there. The phases must run in that order, one staged
  // mutation at a time; while one is pending every other mutation and
  // Checkpoint are refused. A staged-but-never-published record is
  // already durably logged, so abandoning it diverges the store from
  // its log — the coordinator must treat that store as failed.

  /// Phase 1: prevalidate, log, and apply `aggs` to the invisible
  /// standby replica. Readers are unaffected until PublishStaged.
  Status StageEpoch(std::int64_t epoch,
                    const std::unordered_map<PoiId, std::int64_t>& aggs);

  /// Phase 2: flip readers to the staged replica. Fails only when no
  /// mutation is staged.
  Status PublishStaged();

  /// Phase 3: drain the retired replica and catch it up with the staged
  /// record, leaving both replicas identical again.
  Status CatchUpStaged();

  /// Durably checkpoints the store (snapshot file + log truncation) using
  /// the standby replica, which is fully caught up and reader-free after
  /// the drain. Requires snapshot/wal paths.
  Status Checkpoint();

  /// Syncs the WAL (no-op in-memory).
  Status Flush();

  /// First writer-side failure, if any. Once a replica fails to apply a
  /// logged record the store refuses further mutations (reads continue on
  /// the healthy live replica); recover from snapshot + WAL instead.
  Status dead_status() const;

  /// OK when the store can take mutations right now; otherwise the reason
  /// it cannot: a dead replica (dead_status), an abandoned staged
  /// mutation, or a dead WAL writer. The repair path uses this to decide
  /// between a full Reopen and a plain redo replay.
  Status health_status() const;

  /// \brief What Reopen recovered (the shard-repair evidence).
  struct ReopenReport {
    /// The store's sticky failure before the reopen (OK if none).
    Status prior_death;
    WalReopenReport wal;
  };

  /// In-process recovery of a dead durable store: re-recovers both
  /// replicas from snapshot + the WAL's valid prefix (the same path Open
  /// takes after a crash), reopens the WAL writer (trimming any torn
  /// tail), swaps the recovered replicas in with the publish-then-drain
  /// discipline — readers are never excluded and snapshots pinned across
  /// the call stay valid — and clears the sticky death and any abandoned
  /// staged mutation. A staged-but-unpublished record that reached the
  /// log durably is replayed (it becomes visible); one that did not is
  /// trimmed with the tail. In-memory stores have no log to rebuild from,
  /// so a dead one returns kFailedPrecondition (and a healthy one is a
  /// no-op). On failure the store is unchanged and still dead.
  Status Reopen(ReopenReport* report = nullptr);

  /// LSN of the last mutation applied to the live replica.
  Lsn applied_lsn() const;

  /// Replica `slot` (0 or 1), unpinned: for inspecting both replicas of
  /// a quiescent store (no mutation in flight, no snapshot held), as the
  /// determinism tests do. Not a read path.
  TarTree* replica(std::uint32_t slot) { return slots_[slot].tree.get(); }

 private:
  struct Slot {
    std::unique_ptr<TarTree> tree;
    /// Count of snapshots currently pinning this replica.
    mutable std::atomic<std::int64_t> readers{0};
    /// Version the replica held when it was last published. Written by
    /// the writer while it owns the replica (pre-publish), so it is
    /// stable for the lifetime of any snapshot pinning the slot.
    std::atomic<std::uint64_t> version{1};
  };

  friend class TreeSnapshot;

  explicit SnapshotStore(const SnapshotStoreOptions& options);

  /// Recovers one replica's tree from snapshot + WAL (or WAL alone before
  /// the first checkpoint) per `options`; shared by Open and Reopen.
  static Result<std::unique_ptr<TarTree>> RecoverReplica(
      const SnapshotStoreOptions& options);

  /// Where the store is in the stage -> publish -> catch-up cycle.
  enum class StagePhase : unsigned char { kIdle, kStaged, kPublished };

  /// Prevalidates, logs, and applies `record` to both replicas with the
  /// publish-then-drain protocol (= the three staged phases back to
  /// back). Writer latch must be held.
  Status ApplyBoth(WalRecord record) TAR_REQUIRES(writer_mu_);

  /// The three phases; see the public staged API for the contract.
  Status StageRecord(WalRecord record) TAR_REQUIRES(writer_mu_);
  void PublishStagedLocked() TAR_REQUIRES(writer_mu_);
  Status CatchUpStagedLocked() TAR_REQUIRES(writer_mu_);

  /// Waits until no snapshot pins `slot` (terminates: the live slot index
  /// already points elsewhere, so no new reader can pin it). Yields for a
  /// bounded number of iterations, then polls with a short sleep so a
  /// long-held snapshot stalls the writer without burning a core.
  void WaitForDrain(std::uint32_t slot) const;

  const SnapshotStoreOptions options_;

  /// Both replicas plus their pin counts. Unlatched by design: the
  /// reader/writer protocol in the file comment (atomic live-slot index,
  /// pin counts, publish-then-drain) replaces the latch for this member.
  // tar-lint: allow(guarded-by) lock-free reader protocol, see file comment
  Slot slots_[2];

  /// Index of the replica serving reads (0/1).
  std::atomic<std::uint32_t> live_{0};

  /// Published version; bumped after every publish.
  std::atomic<std::uint64_t> version_{1};

  mutable Mutex writer_mu_{LockRank::kTarTreeWriter, "snapshot.writer"};
  std::unique_ptr<WalWriter> wal_ TAR_GUARDED_BY(writer_mu_);
  Lsn next_lsn_ TAR_GUARDED_BY(writer_mu_) = 1;  ///< in-memory stores only
  std::uint64_t next_version_ TAR_GUARDED_BY(writer_mu_) = 1;
  Status dead_ TAR_GUARDED_BY(writer_mu_) = Status::OK();
  StagePhase stage_phase_ TAR_GUARDED_BY(writer_mu_) = StagePhase::kIdle;
  /// The logged record between Stage and CatchUp.
  WalRecord staged_record_ TAR_GUARDED_BY(writer_mu_);
};

}  // namespace tar
