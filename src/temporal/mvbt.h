// Disk-based Multiversion B-tree (Becker, Gschwind, Ohler, Seeger,
// Widmayer: "An asymptotically optimal multiversion B-tree", VLDBJ 1996).
//
// The paper implements each TIA (temporal index on the aggregate) with this
// structure because it is asymptotically optimal for versioned key access.
// This implementation supports insertions and deletions at a monotonically
// non-decreasing current version and exact/range queries at any historical
// version. Nodes are serialized into fixed-size pages of a PageFile, and
// query-time reads are routed through a BufferPool so that buffer hits are
// not charged to the node-access metric.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/result.h"
#include "common/stats.h"
#include "common/status.h"
#include "storage/buffer_pool.h"
#include "storage/page_file.h"

namespace tar::mvbt {

using Key = std::int64_t;
using Version = std::int64_t;
using Value = std::int64_t;

constexpr Key kKeyMin = INT64_MIN;
constexpr Key kKeyMax = INT64_MAX;
/// Sentinel end version of a live entry.
constexpr Version kVersionAlive = INT64_MAX;

/// \brief One slot of an MVBT node.
///
/// Leaf entries hold a data record: key in [key_lo] (key_hi unused),
/// lifetime [v_start, v_end), payload `value`. Internal entries route to a
/// child page responsible for keys [key_lo, key_hi) during [v_start, v_end);
/// `value` stores the child PageId.
struct Entry {
  Key key_lo = 0;
  Key key_hi = 0;
  Version v_start = 0;
  Version v_end = kVersionAlive;
  Value value = 0;

  bool alive() const { return v_end == kVersionAlive; }
  bool AliveAt(Version v) const { return v_start <= v && v < v_end; }

  friend bool operator==(const Entry&, const Entry&) = default;
};

/// Serialized-node byte layout constants.
struct NodeLayout {
  static constexpr std::size_t kHeaderBytes = 8;
  static constexpr std::size_t kEntryBytes = 40;
  static std::size_t Capacity(std::size_t page_size) {
    return (page_size - kHeaderBytes) / kEntryBytes;
  }
};

/// \brief The multiversion B-tree.
///
/// Query methods (Lookup, Scan and the scans built on it) read entries
/// directly off the pages the buffer pool returns; only structural
/// updates materialize nodes. Scan hands each in-range record to a
/// visitor while it walks the pages, so a caller that only folds the
/// records (counts them, sums them) allocates nothing and sorts nothing.
///
/// Insert and Erase descend reading the routers off the pages too. An
/// insert or erase that keeps its leaf within capacity and the weak
/// version condition writes its one entry in place (an insert also bumps
/// the leaf's entry count): the same bytes, through the same physical
/// reads and write, that storing the whole re-encoded leaf would cost.
/// Only a version split, merge or key split — or an erase at the version
/// the record was born, which removes the entry — decodes nodes.
///
/// The root alive at the latest version is cached beside last_version_
/// (LiveRoot), so a Scan or Lookup there — every TIA read — starts from it
/// without searching the root directory.
///
/// Thread safety: const query methods (Lookup, Scan, RangeScan*,
/// PrefetchLiveRoot) are safe concurrently — page access goes through the
/// latched buffer pool; Insert/Erase require external exclusion.
class Mvbt {
 public:
  /// \param pool buffer pool over `file`; query reads go through it using
  ///        `owner` as the cache-quota owner (one TIA = one owner).
  Mvbt(PageFile* file, BufferPool* pool, OwnerId owner);

  Mvbt(const Mvbt&) = delete;
  Mvbt& operator=(const Mvbt&) = delete;
  Mvbt(Mvbt&&) = default;
  Mvbt& operator=(Mvbt&&) = default;

  /// Inserts (key, value) at version v. Versions must be non-decreasing
  /// across all updates. Duplicate live keys are rejected.
  Status Insert(Version v, Key key, Value value);

  /// Logically deletes `key` at version v (the key remains visible at
  /// versions < v).
  Status Erase(Version v, Key key);

  /// Value of `key` as of version v, or nullopt if not alive there.
  Result<std::optional<Value>> Lookup(Version v, Key key,
                                      AccessStats* stats = nullptr) const;

  /// Calls visit(key, value) for every record alive at version v with key
  /// in [lo, hi], in page-walk order (not key order). Every page read goes
  /// through the buffer pool and is recorded in `stats`.
  template <typename Visit>
  Status Scan(Version v, Key lo, Key hi, AccessStats* stats,
              Visit&& visit) const {
    const PageId root = RootPageAt(v);
    if (root == kInvalidPageId) return Status::OK();
    return ScanNode(v, root, lo, hi, stats, visit);
  }

  /// All records alive at version v with key in [lo, hi], in key order.
  Status RangeScan(Version v, Key lo, Key hi,
                   std::vector<std::pair<Key, Value>>* out,
                   AccessStats* stats = nullptr) const;

  /// Range scan at the latest version used by any update.
  Status RangeScanCurrent(Key lo, Key hi,
                          std::vector<std::pair<Key, Value>>* out,
                          AccessStats* stats = nullptr) const {
    return RangeScan(last_version_, lo, hi, out, stats);
  }

  Version last_version() const { return last_version_; }
  bool empty() const { return roots_.empty(); }

  /// A cache hint: asks the CPU to start loading the first line of the
  /// live root page's bytes, which the next read at the latest version
  /// fetches first. It goes through no buffer pool and no PageFile, so it
  /// fetches nothing, moves no LRU frame and charges no access.
  void PrefetchLiveRoot() const {
    if (live_root_.bytes != nullptr) __builtin_prefetch(live_root_.bytes);
  }

  /// Number of records alive at version v (O(result) scan; for tests).
  Result<std::size_t> CountAlive(Version v) const;

  /// Structural invariant checks (block capacity, weak version condition,
  /// responsibility-range partitioning). Intended for tests.
  Status CheckInvariants() const;

  std::size_t capacity() const { return capacity_; }
  std::size_t min_live() const { return min_live_; }

 private:
  friend class MvbtTestPeer;

  struct Node {
    bool is_leaf = true;
    std::vector<Entry> entries;

    std::size_t CountAliveEntries() const {
      std::size_t n = 0;
      for (const Entry& e : entries) n += e.alive();
      return n;
    }
  };

  /// Root directory ("root*"): which page was the root during [v_start,
  /// v_end). Kept in memory; it is tiny.
  struct RootEntry {
    Version v_start;
    Version v_end;
    PageId page;
  };

  /// The root directory's open entry (the root from its v_start on): its
  /// page, leaf flag and byte address, set from the page an update just
  /// wrote or read and checked by CheckInvariants; page kInvalidPageId
  /// when there is none.
  struct LiveRoot {
    PageId page = kInvalidPageId;
    bool is_leaf = true;
    const std::uint8_t* bytes = nullptr;
  };

  /// The root-to-leaf page path of an update (root first), held inline so
  /// an update allocates nothing before it writes. At the current
  /// version an internal root has at least 2 live children and every
  /// other node at least min_live_ >= 2 live entries, so a tree
  /// kMaxHeight levels deep holds at least 2^32 live records (160 GiB of
  /// entries); FindLeafPath reports a deeper descent as Corruption (only
  /// a router cycle gets there).
  struct Path {
    static constexpr std::size_t kMaxHeight = 32;
    std::array<PageId, kMaxHeight> pages{};
    std::size_t height = 0;

    PageId leaf() const { return pages[height - 1]; }
  };

  /// Pending update against a parent node: kill the live entries that point
  /// to `dead_children` at version v and append `new_entries`.
  /// `copy_bytes` is the written page of the one new entry, if only one.
  struct ParentOp {
    std::vector<PageId> dead_children;
    std::vector<Entry> new_entries;
    const std::uint8_t* copy_bytes = nullptr;
  };

  /// The entry codec: every read of a node entry (queries, LoadForUpdate,
  /// the in-place updates) goes through EntryAt, every write (Store, the
  /// in-place updates) through PutEntry. EntryAt is inline so that the
  /// scans instantiated in other files decode entries without a call.
  static Entry EntryAt(PageView page, std::size_t index) {
    const std::size_t off =
        NodeLayout::kHeaderBytes + index * NodeLayout::kEntryBytes;
    Entry e;
    e.key_lo = page.ReadAt<Key>(off);
    e.key_hi = page.ReadAt<Key>(off + 8);
    e.v_start = page.ReadAt<Version>(off + 16);
    e.v_end = page.ReadAt<Version>(off + 24);
    e.value = page.ReadAt<Value>(off + 32);
    return e;
  }
  static void PutEntry(Page* page, std::size_t index, const Entry& e);

  static void Decode(PageView page, Node* node);
  Status LoadForUpdate(PageId id, Node* node) const;

  /// Query-path page access through the buffer pool; hits are recorded as
  /// free, misses as TIA page reads. Queries read entries directly off the
  /// returned page (EntryAt) — no node materialization. Inline, like
  /// EntryAt, for the scans instantiated in other files.
  Result<PageView> FetchForQuery(PageId id, AccessStats* stats) const {
    bool hit = false;
    Result<PageView> page = pool_->Fetch(owner_, id, &hit);
    if (page.ok() && stats != nullptr) {
      ++(hit ? stats->tia_buffer_hits : stats->tia_page_reads);
    }
    return page;
  }

  /// Writes `node` to page `id`; *bytes (if non-null) gets the page's
  /// byte address.
  Status Store(PageId id, const Node& node,
               const std::uint8_t** bytes = nullptr);
  PageId AllocateNode(const Node& node, Status* st,
                      const std::uint8_t** bytes = nullptr);

  /// Root page alive at version v, or nullopt for an empty tree at v.
  std::optional<RootEntry> RootAt(Version v) const;

  /// The root page at version v, or kInvalidPageId for an empty tree at
  /// v: the cached live root from last_version_ on, RootAt before it.
  PageId RootPageAt(Version v) const {
    if (v >= last_version_) return live_root_.page;
    const std::optional<RootEntry> root = RootAt(v);
    return root.has_value() ? root->page : kInvalidPageId;
  }

  /// The only writers of the root directory's open entry and of the
  /// live-root cache, so the two always agree. CloseRoot ends the open
  /// entry at v (dropping it if it opened at v) and leaves no live root;
  /// OpenRoot opens an entry for `page` from v on, whose bytes are at
  /// `bytes`.
  void CloseRoot(Version v);
  void OpenRoot(Version v, PageId page, bool is_leaf,
                const std::uint8_t* bytes);

  /// Descends from the live root to the leaf responsible for `key` with
  /// one physical read per level, recording the page path in `*path`
  /// (which must be empty). Returns the leaf's page.
  Result<const Page*> FindLeafPath(Version v, Key key, Path* path) const;

  /// Whether a node on `path`'s last level with `live` live entries meets
  /// the weak version condition (a root always does).
  bool KeepsWeakCondition(const Path& path, std::size_t live) const {
    return path.height == 1 || live >= min_live_;
  }

  /// Restores structural invariants of the node at path.pages[level]
  /// after a mutation, propagating structural changes toward the root.
  Status Restructure(Version v, const Path& path, std::size_t level,
                     Node node);

  /// Version-split `node` (page `page_id`): copies the live entries into a
  /// fresh node (possibly merging a sibling found in `parent`, possibly key
  /// splitting) and fills `op` with the parent updates. `parent` is nullptr
  /// when the node is the root.
  Status VersionSplit(Version v, PageId page_id, const Node& node,
                      Node* parent, ParentOp* op);

  /// Scan's depth-first walk below `page_id`.
  template <typename Visit>
  Status ScanNode(Version v, PageId page_id, Key lo, Key hi,
                  AccessStats* stats, Visit& visit) const {
    TAR_ASSIGN_OR_RETURN(const PageView page, FetchForQuery(page_id, stats));
    const bool is_leaf = page.ReadAt<std::uint8_t>(0) != 0;
    const std::uint16_t count = page.ReadAt<std::uint16_t>(2);
    for (std::uint16_t i = 0; i < count; ++i) {
      const Entry e = EntryAt(page, i);
      if (!e.AliveAt(v)) continue;
      if (is_leaf) {
        if (lo <= e.key_lo && e.key_lo <= hi) visit(e.key_lo, e.value);
      } else if (e.key_lo <= hi && lo < e.key_hi) {
        TAR_RETURN_NOT_OK(ScanNode(v, static_cast<PageId>(e.value), lo, hi,
                                   stats, visit));
      }
    }
    return Status::OK();
  }

  // What a read at the latest version touches comes first, so that it
  // shares the object's first cache line.
  BufferPool* pool_;
  OwnerId owner_;
  Version last_version_ = 0;
  LiveRoot live_root_;
  PageFile* file_;
  std::size_t capacity_;     // b: max entries per node
  std::size_t min_live_;     // d: weak version condition
  std::size_t strong_low_;   // lower strong bound after restructuring
  std::size_t strong_high_;  // upper strong bound after restructuring
  std::vector<RootEntry> roots_;
};

}  // namespace tar::mvbt
