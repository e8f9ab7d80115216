// Structural verification of every index in the TAR-tree stack.
//
// The MVBT's weak/strong version conditions, the flat TIA's order and
// prefix sums, the TAR-tree's MBR containment and aggregate-summary
// dominance (Property 1), the TIA's record/aggregate consistency and the
// buffer pool's per-owner quota are all checkable properties. This
// subsystem deep-checks them on demand: after randomized mutation batches
// in tests, on `tartool check <index-file>`, and (optionally) on every
// persistence load. Each check returns Status::Corruption carrying a path
// to the offending node, so a failure names the broken page rather than
// surfacing later as a plausible-but-wrong aggregate.
#pragma once

#include <cstdint>
#include <string>

#include "common/result.h"
#include "common/status.h"
#include "core/tar_tree.h"
#include "storage/buffer_pool.h"
#include "temporal/mvbt.h"
#include "temporal/tia.h"

namespace tar::analysis {

/// \brief Knobs for how deep a verification pass digs.
struct VerifyOptions {
  /// Random query intervals per TIA cross-checked against a raw record
  /// scan (the TIA's Aggregate(Iq) must equal the sum over the records
  /// with extent contained in Iq).
  std::size_t tia_sample_intervals = 4;

  /// Seed for the interval sampler (deterministic by default).
  std::uint64_t seed = 0x7a5c0de;

  /// Also run the backing index's own invariant checker (MVBT weak
  /// version condition / flat order and prefix sums) for every TIA. This is
  /// the expensive part of a TAR-tree pass; disable for quick scans.
  bool deep_tia = true;

  /// Check the buffer pool's LRU-list <-> map consistency and quotas.
  bool check_buffer_pool = true;
};

/// \brief Counters describing what a verification pass covered.
struct VerifyReport {
  std::size_t nodes_visited = 0;
  std::size_t entries_visited = 0;
  std::size_t tias_verified = 0;
  std::size_t intervals_cross_checked = 0;

  std::string ToString() const;
};

/// \brief Deep structural checker for all four index subsystems.
///
/// Stateless apart from its options; a single instance can verify any
/// number of indexes. All methods are read-only on the verified structure
/// (they go through the same load paths as queries, so physical-read
/// counters on the underlying PageFile do advance).
class StructureVerifier {
 public:
  explicit StructureVerifier(const VerifyOptions& options = {})
      : options_(options) {}

  /// Multiversion B-tree: block capacity, weak version condition,
  /// responsibility-range partitioning, uniform leaf depth (routes
  /// through Mvbt::CheckInvariants), plus a live-count cross-check
  /// between CountAlive and a full range scan at the current version.
  Status VerifyMvbt(const mvbt::Mvbt& tree) const;

  /// TIA: records sorted, disjoint, positive; num_records()/total()
  /// consistent with a raw scan; Aggregate(Iq) cross-checked against the
  /// record scan on sampled intervals; optionally the backing index's
  /// own invariants (deep_tia).
  Status VerifyTia(const Tia& tia, VerifyReport* report = nullptr) const;

  /// Buffer pool (BufferPool::CheckIntegrity): per-owner residency <=
  /// quota, no page cached twice by one owner, no cached page id past the
  /// end of the file.
  Status VerifyBufferPool(const BufferPool& pool) const;

  /// Concurrent-consistency check for a pool that N threads just hammered
  /// (call after the threads have joined): structural integrity per
  /// VerifyBufferPool, plus counter coherence — hits + misses must equal
  /// the number of Fetch calls that returned a page (a failed fetch counts
  /// as neither), no counter may have been lost to a race, and every miss
  /// must have been charged to the backing file (misses <= the file's
  /// physical reads).
  Status VerifyBufferPoolConcurrency(const BufferPool& pool,
                                     std::uint64_t expected_fetches) const;

  /// TAR-tree: MBR and z-interval containment child -> parent, aggregate
  /// summary dominance (every parent TIA bounds its child node's
  /// per-epoch max), leaf TIA totals matching the POI registry, fill and
  /// balance via TarTree::CheckInvariants, every TIA per VerifyTia, and
  /// the tree's buffer pool per VerifyBufferPool.
  Status VerifyTarTree(const TarTree& tree,
                       VerifyReport* report = nullptr) const;

  const VerifyOptions& options() const { return options_; }

 private:
  Status VerifyTarNode(const TarTree& tree, TarTree::NodeId id,
                       const TarTree::Entry* parent_entry,
                       const std::string& path, VerifyReport* report) const;

  Status VerifyEntryTia(const Tia& tia, const std::string& path,
                        VerifyReport* report) const;

  VerifyOptions options_;
};

/// A TarTree::LoadOptions::deep_verifier that runs a full
/// StructureVerifier pass over the loaded tree:
///
///   auto r = TarTree::LoadFromFile(
///       path, {.verify = true,
///              .deep_verifier = analysis::DeepVerifyOnLoad()});
std::function<Status(const TarTree&)> DeepVerifyOnLoad(
    const VerifyOptions& options = {});

}  // namespace tar::analysis
