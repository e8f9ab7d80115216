#include "analysis/structure_verifier.h"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <random>
#include <vector>

namespace tar::analysis {

namespace {

/// Per-epoch max of the TIA records of every entry in a node, keyed by the
/// epoch extent. This is the quantity a parent entry's TIA must dominate
/// (Property 1 of the paper).
Status NodeEpochMax(const TarTree::Node& node,
                    std::map<Timestamp, TiaRecord>* out) {
  out->clear();
  std::vector<TiaRecord> records;
  for (const TarTree::Entry& e : node.entries) {
    TAR_RETURN_NOT_OK(e.tia->Records(&records));
    for (const TiaRecord& r : records) {
      auto [it, inserted] = out->emplace(r.extent.start, r);
      if (!inserted) {
        if (it->second.extent != r.extent) {
          return Status::Corruption(
              "sibling TIAs disagree on the extent of epoch starting at " +
              std::to_string(r.extent.start));
        }
        it->second.aggregate = std::max(it->second.aggregate, r.aggregate);
      }
    }
  }
  return Status::OK();
}

}  // namespace

std::string VerifyReport::ToString() const {
  return std::to_string(nodes_visited) + " nodes, " +
         std::to_string(entries_visited) + " entries, " +
         std::to_string(tias_verified) + " TIAs, " +
         std::to_string(intervals_cross_checked) +
         " intervals cross-checked";
}

Status StructureVerifier::VerifyMvbt(const mvbt::Mvbt& tree) const {
  TAR_RETURN_NOT_OK(tree.CheckInvariants());
  // Cross-check point lookups against a full scan at the current version:
  // both walk the same structure through different code paths, so a routing
  // bug that silently drops records shows up as a disagreement.
  std::vector<std::pair<mvbt::Key, mvbt::Value>> all;
  TAR_RETURN_NOT_OK(tree.RangeScan(tree.last_version(), mvbt::kKeyMin,
                                   mvbt::kKeyMax - 1, &all));
  for (std::size_t i = 1; i < all.size(); ++i) {
    if (all[i - 1].first >= all[i].first) {
      return Status::Corruption("range scan keys out of order at index " +
                                std::to_string(i));
    }
  }
  std::size_t step = std::max<std::size_t>(1, all.size() / 16);
  for (std::size_t i = 0; i < all.size(); i += step) {
    auto got = tree.Lookup(tree.last_version(), all[i].first);
    if (!got.ok()) return got.status();
    const auto stored = got.ValueOrDie();
    if (!stored.has_value() || *stored != all[i].second) {
      return Status::Corruption(
          "lookup disagrees with range scan for key " +
          std::to_string(all[i].first));
    }
  }
  return Status::OK();
}

Status StructureVerifier::VerifyEntryTia(const Tia& tia,
                                         const std::string& path,
                                         VerifyReport* report) const {
  std::vector<TiaRecord> records;
  TAR_RETURN_NOT_OK(tia.Records(&records));

  if (records.size() != tia.num_records()) {
    return Status::Corruption(
        path + ": num_records() = " + std::to_string(tia.num_records()) +
        " but the record scan returned " + std::to_string(records.size()));
  }
  std::int64_t sum = 0;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const TiaRecord& r = records[i];
    if (r.aggregate <= 0) {
      return Status::Corruption(path + ": non-positive aggregate stored " +
                                "for epoch starting at " +
                                std::to_string(r.extent.start));
    }
    if (!r.extent.Valid()) {
      return Status::Corruption(path + ": inverted epoch extent at " +
                                std::to_string(r.extent.start));
    }
    if (i > 0 && records[i - 1].extent.end >= r.extent.start) {
      return Status::Corruption(
          path + ": overlapping or unsorted epoch extents near " +
          std::to_string(r.extent.start));
    }
    sum += r.aggregate;
  }
  if (sum != tia.total()) {
    return Status::Corruption(path + ": total() = " +
                              std::to_string(tia.total()) +
                              " but the records sum to " +
                              std::to_string(sum));
  }

  // Aggregate(Iq) cross-checked against the raw record scan on sampled
  // intervals: the TIA answers through its index structure, the oracle
  // sums records with extent contained in Iq directly.
  auto cross_check = [&](const TimeInterval& iq) -> Status {
    std::int64_t expect = 0;
    for (const TiaRecord& r : records) {
      if (iq.Contains(r.extent)) expect += r.aggregate;
    }
    auto got = tia.Aggregate(iq);
    if (!got.ok()) return got.status();
    if (got.ValueOrDie() != expect) {
      return Status::Corruption(
          path + ": Aggregate([" + std::to_string(iq.start) + ", " +
          std::to_string(iq.end) + "]) = " +
          std::to_string(got.ValueOrDie()) + " but the record scan gives " +
          std::to_string(expect));
    }
    if (report != nullptr) ++report->intervals_cross_checked;
    return Status::OK();
  };
  if (!records.empty()) {
    TAR_RETURN_NOT_OK(cross_check(
        {records.front().extent.start, records.back().extent.end}));
    std::mt19937_64 rng(options_.seed);
    std::uniform_int_distribution<std::size_t> pick(0, records.size() - 1);
    for (std::size_t s = 0; s < options_.tia_sample_intervals; ++s) {
      std::size_t i = pick(rng);
      std::size_t j = pick(rng);
      if (i > j) std::swap(i, j);
      TAR_RETURN_NOT_OK(cross_check(
          {records[i].extent.start, records[j].extent.end}));
    }
  }

  if (options_.deep_tia) {
    Status st = tia.CheckBackend();
    if (!st.ok()) {
      return Status::Corruption(path + ": " + st.ToString());
    }
  }
  if (report != nullptr) ++report->tias_verified;
  return Status::OK();
}

Status StructureVerifier::VerifyTia(const Tia& tia,
                                    VerifyReport* report) const {
  return VerifyEntryTia(tia, "tia:owner:" + std::to_string(tia.owner()),
                        report);
}

Status StructureVerifier::VerifyBufferPool(const BufferPool& pool) const {
  return pool.CheckIntegrity();
}

Status StructureVerifier::VerifyBufferPoolConcurrency(
    const BufferPool& pool, std::uint64_t expected_fetches) const {
  TAR_RETURN_NOT_OK(pool.CheckIntegrity());
  const std::uint64_t hits = pool.hits();
  const std::uint64_t misses = pool.misses();
  if (hits + misses != expected_fetches) {
    return Status::Corruption(
        "buffer pool lost fetch accounting: hits " + std::to_string(hits) +
        " + misses " + std::to_string(misses) + " != " +
        std::to_string(expected_fetches) + " fetches");
  }
  const std::uint64_t physical_reads = pool.file()->physical_reads();
  if (misses > physical_reads) {
    return Status::Corruption(
        "buffer pool misses (" + std::to_string(misses) +
        ") exceed the file's physical reads (" +
        std::to_string(physical_reads) + "); a miss was not charged");
  }
  return Status::OK();
}

Status StructureVerifier::VerifyTarNode(const TarTree& tree,
                                        TarTree::NodeId id,
                                        const TarTree::Entry* parent_entry,
                                        const std::string& path,
                                        VerifyReport* report) const {
  const TarTree::Node& node = tree.node(id);
  if (report != nullptr) ++report->nodes_visited;

  if (parent_entry != nullptr) {
    // MBR and z-interval containment: the parent's grouping box must cover
    // the union of the member boxes.
    Box3 covered;
    for (const TarTree::Entry& e : node.entries) covered.Extend(e.box);
    if (!parent_entry->box.Contains(covered)) {
      return Status::Corruption(path +
                                ": parent box does not contain the union "
                                "of the member boxes");
    }
    // Aggregate-summary consistency child -> parent: the parent entry's
    // TIA must dominate the per-epoch max of the member TIAs.
    std::map<Timestamp, TiaRecord> epoch_max;
    Status st = NodeEpochMax(node, &epoch_max);
    if (!st.ok()) {
      return Status::Corruption(path + ": " + st.message());
    }
    for (const auto& [start, rec] : epoch_max) {
      auto bound = parent_entry->tia->Aggregate(rec.extent);
      if (!bound.ok()) return bound.status();
      if (bound.ValueOrDie() < rec.aggregate) {
        return Status::Corruption(
            path + ": parent TIA bound " +
            std::to_string(bound.ValueOrDie()) +
            " below the member per-epoch max " +
            std::to_string(rec.aggregate) + " for epoch starting at " +
            std::to_string(start));
      }
    }
  }

  for (std::size_t i = 0; i < node.entries.size(); ++i) {
    const TarTree::Entry& e = node.entries[i];
    const std::string entry_path =
        path + "/entry[" + std::to_string(i) + "]";
    if (report != nullptr) ++report->entries_visited;
    if (e.tia == nullptr) {
      return Status::Corruption(entry_path + ": missing TIA");
    }
    for (std::size_t d = 0; d < 3; ++d) {
      if (!(e.box.lo[d] <= e.box.hi[d])) {
        return Status::Corruption(entry_path + ": inverted box in dim " +
                                  std::to_string(d));
      }
    }
    if (e.box.lo[2] < -1e-9 || e.box.hi[2] > 1.0 + 1e-9) {
      return Status::Corruption(entry_path +
                                ": z-interval outside [0, 1]");
    }
    TAR_RETURN_NOT_OK(VerifyEntryTia(*e.tia, entry_path, report));

    if (node.is_leaf()) {
      auto snap = tree.poi_snapshot(e.poi);
      if (!snap.has_value()) {
        return Status::Corruption(entry_path + ": POI " +
                                  std::to_string(e.poi) +
                                  " not in the registry");
      }
      if (e.box.lo[0] != snap->pos.x || e.box.hi[0] != snap->pos.x ||
          e.box.lo[1] != snap->pos.y || e.box.hi[1] != snap->pos.y) {
        return Status::Corruption(entry_path +
                                  ": leaf box not degenerate at the "
                                  "registered POI position");
      }
      // The redundancy that catches corrupted leaf aggregates: the leaf
      // TIA must sum to exactly the registered running total.
      if (e.tia->total() != snap->total) {
        return Status::Corruption(
            entry_path + ": leaf TIA total " +
            std::to_string(e.tia->total()) +
            " != registered POI total " + std::to_string(snap->total));
      }
    } else {
      TAR_RETURN_NOT_OK(VerifyTarNode(
          tree, e.child, &e,
          path + "/entry[" + std::to_string(i) + "]/node:" +
              std::to_string(e.child),
          report));
    }
  }
  return Status::OK();
}

Status StructureVerifier::VerifyTarTree(const TarTree& tree,
                                        VerifyReport* report) const {
  // A poisoned tree (a WAL-logged mutation died mid-apply) is suspect by
  // definition: even if every structural walk below would pass, reporting
  // it sound invites serving from it. Surface the poison instead.
  if (tree.poisoned()) {
    return Status::Corruption("verify: tree is poisoned: " +
                              tree.poison_status().ToString());
  }
  // Fill bounds, balance, level bookkeeping, registry counts and global
  // TIA dominance are the tree's own invariants.
  TAR_RETURN_NOT_OK(tree.CheckInvariants());
  if (!tree.empty()) {
    TAR_RETURN_NOT_OK(VerifyTarNode(
        tree, tree.root(), nullptr,
        "node:" + std::to_string(tree.root()), report));
  }
  TAR_RETURN_NOT_OK(VerifyEntryTia(tree.global_tia(), "global-tia", report));
  if (options_.check_buffer_pool) {
    TAR_RETURN_NOT_OK(VerifyBufferPool(*tree.tia_buffer_pool()));
  }
  return Status::OK();
}

std::function<Status(const TarTree&)> DeepVerifyOnLoad(
    const VerifyOptions& options) {
  return [options](const TarTree& tree) -> Status {
    return StructureVerifier(options).VerifyTarTree(tree);
  };
}

}  // namespace tar::analysis
