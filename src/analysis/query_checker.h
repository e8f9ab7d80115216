// Differential + metamorphic query checker: the generator half of the
// query-soundness oracle (the other half is the pruning-certificate
// auditor in analysis/prune_audit.h).
//
// One seed deterministically expands into a dataset, four processors
// over it (a bulk-built TAR-tree, a streamed TAR-tree fed epoch by epoch,
// a ShardedStore partitioning the same POIs over 1-4 snapshot-isolated
// shards, and the ScanBaseline oracle) and a query workload. The checker
// then asserts properties no correct implementation may violate:
//
//  differential — bulk tree, streamed tree, sharded forest search and
//    sequential scan agree bit-for-bit on every query result (same
//    normalizer derivation, same score arithmetic, same documented
//    tie-break), and collective processing agrees with individual
//    processing;
//
//  metamorphic — top-k is a prefix of top-(k+1); alpha0 -> 1 degenerates
//    to the pure-distance order and alpha0 -> 0 to the pure-aggregate
//    order; MaxAggregate is exact against recomputed ground truth and
//    monotone under interval widening; MWA pruning matches the
//    enumerating baseline; appending an epoch outside a query's interval
//    leaves its results bit-identical (on the streamed tree and across
//    the sharded store's snapshot publishes alike).
//
// In audited builds every tree query additionally runs under a
// PruningAuditor whose certificates are proven before the check passes.
//
// See docs/internals.md, "Query-soundness oracle".
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "analysis/prune_audit.h"
#include "common/status.h"

namespace tar::analysis {

/// \brief Shape of one seeded soundness check.
struct QueryCheckOptions {
  std::uint64_t seed = 1;        ///< expands into dataset, trees and queries
  std::size_t num_pois = 48;     ///< POIs in the generated dataset
  std::int64_t num_epochs = 10;  ///< epochs of check-in history
  std::size_t num_queries = 10;  ///< kNNTA queries per seed
};

/// What one check covered; every counter is an assertion that held.
struct QueryCheckReport {
  std::size_t queries = 0;              ///< generated kNNTA queries
  std::size_t differential_checks = 0;  ///< bit-exact result comparisons
  std::size_t metamorphic_checks = 0;   ///< property assertions
  AuditReport audit;                    ///< empty outside audited builds

  std::string ToString() const;
};

/// Runs the whole suite for one seed. Any violation comes back as
/// Corruption naming the seed, the query (point, interval, k, alpha0) and
/// the first divergence, so a failing seed reproduces with
/// `tartool audit --seed N`.
Status RunQuerySoundnessCheck(const QueryCheckOptions& options,
                              QueryCheckReport* report = nullptr);

}  // namespace tar::analysis
