#include "analysis/query_checker.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/random.h"
#include "core/collective.h"
#include "core/mwa.h"
#include "core/query_audit.h"
#include "core/ranking.h"
#include "core/scan_baseline.h"
#include "core/sharded_store.h"
#include "core/tar_tree.h"

namespace tar::analysis {

namespace {

std::string FmtD(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string FormatQuery(const KnntaQuery& q) {
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "{point=(%.17g, %.17g) interval=[%lld, %lld] k=%zu "
                "alpha0=%.17g}",
                q.point.x, q.point.y, static_cast<long long>(q.interval.start),
                static_cast<long long>(q.interval.end), q.k, q.alpha0);
  return buf;
}

/// The seeded dataset and the three processors the checker cross-checks.
struct TestBed {
  TarTreeOptions options;
  std::vector<Poi> pois;
  /// history[i][e] = check-ins of pois[i] in epoch e.
  std::vector<std::vector<std::int32_t>> history;
  double dmax = 1.0;  ///< SpatialNormalizer of the space the bed queries in
  std::unique_ptr<TarTree> bulk;      ///< full history given at insert
  std::unique_ptr<TarTree> streamed;  ///< history fed via AppendEpoch
  std::unique_ptr<ScanBaseline> scan;
};

Status BuildTestBed(const QueryCheckOptions& opt, Rng& rng, TestBed* bed) {
  TarTreeOptions to;
  // The seed walks the configuration space so a sweep covers every
  // grouping strategy and both TIA backends.
  switch (opt.seed % 3) {
    case 0: to.strategy = GroupingStrategy::kIntegral3D; break;
    case 1: to.strategy = GroupingStrategy::kSpatial; break;
    default: to.strategy = GroupingStrategy::kAggregate; break;
  }
  to.tia_backend =
      (opt.seed / 3) % 2 == 0 ? TiaBackend::kMvbt : TiaBackend::kFlat;
  to.node_size_bytes = 512;
  to.grid = EpochGrid(0, 7 * kSecondsPerDay);
  // Every fourth seed leaves the space unconfigured to exercise the
  // root-MBR fallback both TarTree::QuerySpace and the scan share.
  const bool configured_space = opt.seed % 4 != 0;
  if (configured_space) {
    to.space.lo = {0.0, 0.0};
    to.space.hi = {100.0, 100.0};
  }
  bed->options = to;

  bed->pois.resize(opt.num_pois);
  bed->history.assign(opt.num_pois,
                      std::vector<std::int32_t>(opt.num_epochs, 0));
  std::int64_t max_total = 0;
  for (std::size_t i = 0; i < opt.num_pois; ++i) {
    bed->pois[i] = Poi{static_cast<PoiId>(i + 1),
                       {rng.Uniform(0.0, 100.0), rng.Uniform(0.0, 100.0)}};
    // ~25% of POIs have no history at all (the all-zero-aggregate edge),
    // the rest draw a skewed per-epoch rate with occasional spikes.
    if (rng.Uniform() < 0.25) continue;
    double rate = rng.Exponential(0.5);
    std::int64_t total = 0;
    for (std::int64_t e = 0; e < opt.num_epochs; ++e) {
      std::int64_t c =
          rng.Uniform() < 0.9
              ? rng.UniformInt(0, static_cast<std::int64_t>(rate) + 3)
              : rng.UniformInt(0, 60);
      bed->history[i][e] = static_cast<std::int32_t>(c);
      total += c;
    }
    max_total = std::max(max_total, total);
  }

  bed->bulk = std::make_unique<TarTree>(to);
  bed->bulk->SeedMaxTotal(max_total);
  for (std::size_t i = 0; i < opt.num_pois; ++i) {
    TAR_RETURN_NOT_OK(bed->bulk->InsertPoi(bed->pois[i], bed->history[i])
                          .WithContext("bulk insert"));
  }

  // The streamed twin ingests the same data the online way: empty POIs,
  // then one AppendEpoch per epoch (deliberately not pre-seeding the z
  // normalizer, so the two trees grow different shapes — the checker
  // demands their query results still agree bit-for-bit).
  bed->streamed = std::make_unique<TarTree>(to);
  for (std::size_t i = 0; i < opt.num_pois; ++i) {
    TAR_RETURN_NOT_OK(
        bed->streamed->InsertPoi(bed->pois[i]).WithContext("streamed insert"));
  }
  for (std::int64_t e = 0; e < opt.num_epochs; ++e) {
    std::unordered_map<PoiId, std::int64_t> aggs;
    for (std::size_t i = 0; i < opt.num_pois; ++i) {
      if (bed->history[i][e] > 0) aggs[bed->pois[i].id] = bed->history[i][e];
    }
    if (aggs.empty()) continue;
    TAR_RETURN_NOT_OK(
        bed->streamed->AppendEpoch(e, aggs).WithContext("streamed append"));
  }

  const Box2 space = bed->bulk->QuerySpace();
  bed->dmax = SpatialNormalizer(space);
  bed->scan = std::make_unique<ScanBaseline>(to.grid, space);
  for (std::size_t i = 0; i < opt.num_pois; ++i) {
    TAR_RETURN_NOT_OK(bed->scan->AddPoi(bed->pois[i], bed->history[i])
                          .WithContext("scan insert"));
  }
  return Status::OK();
}

KnntaQuery GenQuery(const QueryCheckOptions& opt, Rng& rng,
                    const EpochGrid& grid, std::size_t qi) {
  const Timestamp span = opt.num_epochs * grid.epoch_length();
  KnntaQuery q;
  q.point = {rng.Uniform(-10.0, 110.0), rng.Uniform(-10.0, 110.0)};
  q.k = static_cast<std::size_t>(
      rng.UniformInt(1, static_cast<std::int64_t>(opt.num_pois) + 2));
  q.alpha0 = rng.Uniform(0.05, 0.95);
  const Timestamp a = rng.UniformInt(0, span - 1);
  const Timestamp b = a + rng.UniformInt(0, span);
  switch (qi % 5) {
    case 1:  // instantaneous (single-epoch) interval
      q.interval = {a, a};
      break;
    case 2:  // reaches before the time axis; aligns up to epoch 0
      q.interval = {a - 2 * span, b};
      break;
    case 3:  // "until forever": exercises the saturating epoch arithmetic
      q.interval = {a, std::numeric_limits<Timestamp>::max()};
      break;
    case 4:  // entirely after all data: gmax falls back to 1.0
      q.interval = {span + a, span + b};
      break;
    default:
      q.interval = {a, b};
      break;
  }
  return q;
}

/// Ground-truth aggregate of POI slot `i` over epoch range [first, last].
std::int64_t GroundAgg(const TestBed& bed, std::size_t i, std::int64_t first,
                       std::int64_t last) {
  const std::vector<std::int32_t>& h = bed.history[i];
  std::int64_t sum = 0;
  const std::int64_t lo = std::max<std::int64_t>(first, 0);
  const std::int64_t hi =
      std::min<std::int64_t>(last, static_cast<std::int64_t>(h.size()) - 1);
  for (std::int64_t e = lo; e <= hi; ++e) sum += h[e];
  return sum;
}

bool BitEqual(const KnntaResult& a, const KnntaResult& b) {
  // memcmp on the doubles: the differential contract is bit-exactness,
  // and tolerant comparison would also wave through -0.0/NaN drift.
  return a.poi == b.poi && a.aggregate == b.aggregate &&
         std::memcmp(&a.score, &b.score, sizeof(a.score)) == 0 &&
         std::memcmp(&a.dist, &b.dist, sizeof(a.dist)) == 0;
}

Status CompareResults(const std::string& label, const char* a_name,
                      const std::vector<KnntaResult>& a, const char* b_name,
                      const std::vector<KnntaResult>& b) {
  if (a.size() != b.size()) {
    return Status::Corruption(label + ": " + a_name + " returned " +
                              std::to_string(a.size()) + " results, " +
                              b_name + " returned " + std::to_string(b.size()));
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (BitEqual(a[i], b[i])) continue;
    return Status::Corruption(
        label + ": results diverge at rank " + std::to_string(i) + ": " +
        a_name + " has poi " + std::to_string(a[i].poi) + " (score " +
        FmtD(a[i].score) + ", dist " + FmtD(a[i].dist) + ", agg " +
        std::to_string(a[i].aggregate) + "), " + b_name + " has poi " +
        std::to_string(b[i].poi) + " (score " + FmtD(b[i].score) + ", dist " +
        FmtD(b[i].dist) + ", agg " + std::to_string(b[i].aggregate) + ")");
  }
  return Status::OK();
}

/// A full-k result must list every POI exactly once.
Status CheckCoversAllPois(const std::string& label,
                          const std::vector<KnntaResult>& r,
                          std::size_t num_pois) {
  if (r.size() != num_pois) {
    return Status::Corruption(label + ": full-k query returned " +
                              std::to_string(r.size()) + " of " +
                              std::to_string(num_pois) + " POIs");
  }
  std::vector<bool> seen(num_pois + 1, false);
  for (const KnntaResult& x : r) {
    if (x.poi == 0 || x.poi > num_pois || seen[x.poi]) {
      return Status::Corruption(label + ": full-k query repeated or invented "
                                "poi " +
                                std::to_string(x.poi));
    }
    seen[x.poi] = true;
  }
  return Status::OK();
}

}  // namespace

std::string QueryCheckReport::ToString() const {
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "%zu queries, %zu differential + %zu metamorphic checks; %s",
                queries, differential_checks, metamorphic_checks,
                audit.ToString().c_str());
  return buf;
}

Status RunQuerySoundnessCheck(const QueryCheckOptions& opt,
                              QueryCheckReport* report) {
  QueryCheckReport local;
  QueryCheckReport* rep = report != nullptr ? report : &local;
  *rep = QueryCheckReport{};
  if (opt.num_pois == 0 || opt.num_epochs <= 0 || opt.num_queries == 0) {
    return Status::InvalidArgument(
        "query soundness check needs POIs, epochs and queries");
  }

  const std::string seed_label = "seed " + std::to_string(opt.seed);
  Rng rng(opt.seed);
  TestBed bed;
  TAR_RETURN_NOT_OK(BuildTestBed(opt, rng, &bed).WithContext(seed_label));
  const EpochGrid& grid = bed.options.grid;

  // The sharded twin: the same data partitioned over N snapshot-isolated
  // shards. The seed walks 1, 2, 4 and 16 shards: the single-shard
  // degenerate, and grids fine enough that queries skip whole shards and
  // some shards stay empty. The space is pinned to the bulk tree's query
  // space so the shared forest context normalizes exactly like the
  // unsharded processors even on the unconfigured-space seeds.
  constexpr std::size_t kShardCounts[] = {1, 2, 4, 16};
  ShardedStoreOptions so;
  so.num_shards = kShardCounts[opt.seed % 4];
  so.tree = bed.options;
  so.tree.space = bed.bulk->QuerySpace();
  std::unique_ptr<ShardedStore> sharded;
  {
    auto opened = ShardedStore::Open(so);
    TAR_RETURN_NOT_OK(
        opened.status().WithContext(seed_label + " sharded open"));
    sharded = std::move(opened).ValueOrDie();
    for (std::size_t i = 0; i < opt.num_pois; ++i) {
      TAR_RETURN_NOT_OK(sharded->InsertPoi(bed.pois[i], bed.history[i])
                            .WithContext("sharded insert"));
    }
  }
  std::vector<std::vector<KnntaResult>> sharded_results(opt.num_queries);

  // One auditor per tree: certificates name node ids, which only resolve
  // in the tree that recorded them. Outside audited builds the auditors
  // stay empty and VerifyAll is a no-op.
  PruningAuditor bulk_audit;
  PruningAuditor streamed_audit;

  std::vector<KnntaQuery> queries;
  std::vector<std::vector<KnntaResult>> bulk_results(opt.num_queries);
  std::vector<std::vector<KnntaResult>> streamed_results(opt.num_queries);

  for (std::size_t qi = 0; qi < opt.num_queries; ++qi) {
    const KnntaQuery q = GenQuery(opt, rng, grid, qi);
    queries.push_back(q);
    const std::string label = seed_label + " query[" + std::to_string(qi) +
                              "] " + FormatQuery(q);
    ++rep->queries;

    // --- Differential: bulk tree == streamed tree == sequential scan. ---
    std::vector<KnntaResult> r_scan;
    TAR_RETURN_NOT_OK(bed.scan->Query(q, &r_scan).WithContext(label));
    {
      ScopedQueryAudit scope(&bulk_audit);
      TAR_RETURN_NOT_OK(
          bed.bulk->Query(q, &bulk_results[qi]).WithContext(label));
    }
    {
      ScopedQueryAudit scope(&streamed_audit);
      TAR_RETURN_NOT_OK(
          bed.streamed->Query(q, &streamed_results[qi]).WithContext(label));
    }
    TAR_RETURN_NOT_OK(
        CompareResults(label, "bulk tree", bulk_results[qi], "scan", r_scan));
    ++rep->differential_checks;
    TAR_RETURN_NOT_OK(CompareResults(label, "streamed tree",
                                     streamed_results[qi], "scan", r_scan));
    ++rep->differential_checks;
    // Sharded forest search == bulk tree, bit for bit (the shared-context
    // normalization contract). No audit sink here: prune certificates
    // name node ids inside replicas the snapshot stores swap.
    TAR_RETURN_NOT_OK(
        sharded->Query(q, &sharded_results[qi]).WithContext(label));
    TAR_RETURN_NOT_OK(CompareResults(label, "sharded store",
                                     sharded_results[qi], "bulk tree",
                                     bulk_results[qi]));
    ++rep->differential_checks;

    // --- Metamorphic: top-k is a prefix of top-(k+1). ---
    {
      KnntaQuery q1 = q;
      q1.k = q.k + 1;
      std::vector<KnntaResult> r1;
      ScopedQueryAudit scope(&bulk_audit);
      TAR_RETURN_NOT_OK(bed.bulk->Query(q1, &r1).WithContext(label));
      if (r1.size() < bulk_results[qi].size()) {
        return Status::Corruption(label + ": top-(k+1) returned fewer "
                                          "results than top-k");
      }
      for (std::size_t i = 0; i < bulk_results[qi].size(); ++i) {
        if (!BitEqual(bulk_results[qi][i], r1[i])) {
          return Status::Corruption(label + ": top-k is not a prefix of "
                                            "top-(k+1) at rank " +
                                    std::to_string(i));
        }
      }
      ++rep->metamorphic_checks;
    }

    // --- Metamorphic: alpha0 -> 1 degenerates to the distance order,
    // alpha0 -> 0 to the aggregate order (ground truth recomputed from
    // the generator's own history, tie-tolerant as derived in
    // docs/internals.md). Both runs also re-check the differential. ---
    const TimeInterval aligned = grid.AlignOutward(q.interval);
    const std::int64_t first = grid.EpochOf(aligned.start);
    const std::int64_t last = grid.EpochOf(aligned.end);
    {
      KnntaQuery qd = q;
      qd.k = opt.num_pois + 4;
      qd.alpha0 = 1.0 - 1e-12;
      std::vector<KnntaResult> rd, rd_scan;
      TAR_RETURN_NOT_OK(bed.scan->Query(qd, &rd_scan).WithContext(label));
      {
        ScopedQueryAudit scope(&bulk_audit);
        TAR_RETURN_NOT_OK(bed.bulk->Query(qd, &rd).WithContext(label));
      }
      TAR_RETURN_NOT_OK(
          CompareResults(label, "bulk tree (a0~1)", rd, "scan", rd_scan));
      ++rep->differential_checks;
      TAR_RETURN_NOT_OK(CheckCoversAllPois(label, rd, opt.num_pois));
      const double tol = 1e-9 * bed.dmax;
      for (std::size_t i = 0; i + 1 < rd.size(); ++i) {
        const double da = Distance(bed.pois[rd[i].poi - 1].pos, q.point);
        const double db = Distance(bed.pois[rd[i + 1].poi - 1].pos, q.point);
        if (da > db + tol) {
          return Status::Corruption(
              label + ": alpha0->1 order is not the distance order at rank " +
              std::to_string(i) + ": dist(poi " + std::to_string(rd[i].poi) +
              ") = " + FmtD(da) + " > dist(poi " +
              std::to_string(rd[i + 1].poi) + ") = " + FmtD(db));
        }
      }
      ++rep->metamorphic_checks;
    }
    {
      KnntaQuery qa = q;
      qa.k = opt.num_pois + 4;
      qa.alpha0 = 1e-12;
      std::vector<KnntaResult> ra, ra_scan;
      TAR_RETURN_NOT_OK(bed.scan->Query(qa, &ra_scan).WithContext(label));
      {
        ScopedQueryAudit scope(&bulk_audit);
        TAR_RETURN_NOT_OK(bed.bulk->Query(qa, &ra).WithContext(label));
      }
      TAR_RETURN_NOT_OK(
          CompareResults(label, "bulk tree (a0~0)", ra, "scan", ra_scan));
      ++rep->differential_checks;
      TAR_RETURN_NOT_OK(CheckCoversAllPois(label, ra, opt.num_pois));
      // s1 clamps the aggregate at gmax, so compare clamped aggregates;
      // they are integers, making the order requirement exact.
      std::int64_t gmax = 0;
      for (std::size_t i = 0; i < opt.num_pois; ++i) {
        gmax = std::max(gmax, GroundAgg(bed, i, first, last));
      }
      for (std::size_t i = 0; i + 1 < ra.size(); ++i) {
        const std::int64_t ga = std::min(
            GroundAgg(bed, ra[i].poi - 1, first, last), gmax);
        const std::int64_t gb = std::min(
            GroundAgg(bed, ra[i + 1].poi - 1, first, last), gmax);
        if (ga < gb) {
          return Status::Corruption(
              label + ": alpha0->0 order is not the aggregate order at rank " +
              std::to_string(i) + ": agg(poi " + std::to_string(ra[i].poi) +
              ") = " + std::to_string(ga) + " < agg(poi " +
              std::to_string(ra[i + 1].poi) + ") = " + std::to_string(gb));
        }
      }
      ++rep->metamorphic_checks;
    }

    // --- Metamorphic: MaxAggregate is exact and monotone in Iq. ---
    {
      std::int64_t gt = 0;
      for (std::size_t i = 0; i < opt.num_pois; ++i) {
        gt = std::max(gt, GroundAgg(bed, i, first, last));
      }
      TAR_ASSIGN_OR_RETURN(std::int64_t ma, bed.bulk->MaxAggregate(aligned));
      if (ma != gt) {
        return Status::Corruption(label + ": MaxAggregate returned " +
                                  std::to_string(ma) + ", ground truth is " +
                                  std::to_string(gt));
      }
      ++rep->metamorphic_checks;
      constexpr Timestamp kMax = std::numeric_limits<Timestamp>::max();
      const Timestamp len = grid.epoch_length();
      TimeInterval wide;
      wide.start = aligned.start >= len ? aligned.start - len : 0;
      wide.end = aligned.end > kMax - len ? kMax : aligned.end + len;
      Result<std::int64_t> widened =
          bed.bulk->MaxAggregate(grid.AlignOutward(wide));
      TAR_RETURN_NOT_OK(widened.status());
      const std::int64_t mw = widened.ValueOrDie();
      if (mw < ma) {
        return Status::Corruption(
            label + ": MaxAggregate not monotone: widened interval gave " +
            std::to_string(mw) + " < " + std::to_string(ma));
      }
      ++rep->metamorphic_checks;
    }
  }

  // --- Differential: collective processing == individual processing. ---
  {
    std::vector<std::vector<KnntaResult>> coll;
    ScopedQueryAudit scope(&bulk_audit);
    TAR_RETURN_NOT_OK(
        ProcessCollectively(*bed.bulk, queries, &coll, nullptr, nullptr)
            .WithContext(seed_label + " collective"));
    for (std::size_t qi = 0; qi < queries.size(); ++qi) {
      TAR_RETURN_NOT_OK(CompareResults(
          seed_label + " query[" + std::to_string(qi) + "] " +
              FormatQuery(queries[qi]),
          "collective", coll[qi], "individual", bulk_results[qi]));
      ++rep->differential_checks;
    }
  }

  // --- Metamorphic: MWA pruning algorithm == enumerating baseline
  // (tolerance matches the randomized equivalence tests). ---
  for (std::size_t qi = 0; qi < queries.size() && qi < 2; ++qi) {
    const std::string label = seed_label + " query[" + std::to_string(qi) +
                              "] " + FormatQuery(queries[qi]) + " MWA";
    MwaResult en, pr;
    {
      ScopedQueryAudit scope(&bulk_audit);
      TAR_RETURN_NOT_OK(
          ComputeMwaEnumerating(*bed.bulk, queries[qi], &en, nullptr)
              .WithContext(label));
      TAR_RETURN_NOT_OK(
          ComputeMwaPruning(*bed.bulk, queries[qi], &pr, nullptr, nullptr)
              .WithContext(label));
    }
    auto agree = [](const std::optional<double>& a,
                    const std::optional<double>& b) {
      if (a.has_value() != b.has_value()) return false;
      return !a.has_value() || std::abs(*a - *b) <= 1e-12;
    };
    if (!agree(en.lower, pr.lower) || !agree(en.upper, pr.upper)) {
      auto show = [](const std::optional<double>& v) {
        return v.has_value() ? FmtD(*v) : std::string("none");
      };
      return Status::Corruption(label + ": enumerating [" + show(en.lower) +
                                ", " + show(en.upper) + "] != pruning [" +
                                show(pr.lower) + ", " + show(pr.upper) + "]");
    }
    ++rep->metamorphic_checks;
  }

  auto fold_audit = [rep](const AuditReport& ar) {
    rep->audit.queries += ar.queries;
    rep->audit.certificates += ar.certificates;
    rep->audit.bound_certs += ar.bound_certs;
    rep->audit.dominance_certs += ar.dominance_certs;
    rep->audit.subtree_pois += ar.subtree_pois;
  };

  // Prove the streamed tree's certificates before the epoch append below
  // mutates it: a certificate is only meaningful against the tree state
  // that issued it (an open-ended interval legitimately sees the new
  // epoch, so re-deriving its aggregates afterwards would be a false
  // violation).
  {
    AuditReport ar;
    TAR_RETURN_NOT_OK(streamed_audit.VerifyAll(*bed.streamed, &ar)
                          .WithContext(seed_label + " [streamed tree]"));
    fold_audit(ar);
    streamed_audit.Clear();
  }

  // --- Metamorphic: appending an epoch beyond a query's interval leaves
  // its results bit-identical (the epoch raises z normalizers and grows
  // TIAs, none of which may leak into unrelated intervals). ---
  {
    std::unordered_map<PoiId, std::int64_t> extra;
    for (std::size_t i = 0; i < opt.num_pois; ++i) {
      if (rng.Uniform() < 0.5) extra[bed.pois[i].id] = rng.UniformInt(1, 40);
    }
    if (extra.empty()) extra[bed.pois[0].id] = 7;
    TAR_RETURN_NOT_OK(bed.streamed->AppendEpoch(opt.num_epochs, extra)
                          .WithContext(seed_label + " extra epoch"));
    // The sharded store digests the same batch: closed intervals must be
    // invariant under appends there too, across the snapshot flip every
    // shard performs when it publishes the new epoch.
    TAR_RETURN_NOT_OK(sharded->AppendEpoch(opt.num_epochs, extra)
                          .WithContext(seed_label + " sharded extra epoch"));
    const Timestamp cutoff = grid.EpochStart(opt.num_epochs);
    for (std::size_t qi = 0; qi < queries.size(); ++qi) {
      if (grid.AlignOutward(queries[qi].interval).end >= cutoff) continue;
      std::vector<KnntaResult> r;
      {
        ScopedQueryAudit scope(&streamed_audit);
        TAR_RETURN_NOT_OK(bed.streamed->Query(queries[qi], &r)
                              .WithContext(seed_label + " re-append"));
      }
      TAR_RETURN_NOT_OK(CompareResults(
          seed_label + " query[" + std::to_string(qi) + "] " +
              FormatQuery(queries[qi]) + " after epoch append",
          "re-run", r, "original", streamed_results[qi]));
      ++rep->metamorphic_checks;
      std::vector<KnntaResult> rs;
      TAR_RETURN_NOT_OK(sharded->Query(queries[qi], &rs)
                            .WithContext(seed_label + " sharded re-append"));
      TAR_RETURN_NOT_OK(CompareResults(
          seed_label + " query[" + std::to_string(qi) + "] " +
              FormatQuery(queries[qi]) + " after sharded epoch append",
          "sharded re-run", rs, "original", sharded_results[qi]));
      ++rep->metamorphic_checks;
    }
  }

  // --- Prove the remaining certificates (the bulk tree was never
  // mutated after its queries; the streamed auditor only holds the
  // post-append re-runs). ---
  {
    AuditReport ar;
    TAR_RETURN_NOT_OK(
        streamed_audit.VerifyAll(*bed.streamed, &ar)
            .WithContext(seed_label + " [streamed tree, post-append]"));
    fold_audit(ar);
  }
  {
    AuditReport ar;
    TAR_RETURN_NOT_OK(bulk_audit.VerifyAll(*bed.bulk, &ar)
                          .WithContext(seed_label + " [bulk tree]"));
    fold_audit(ar);
  }
  return Status::OK();
}

}  // namespace tar::analysis
