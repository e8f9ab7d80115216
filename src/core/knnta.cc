// kNNTA query processing: best-first search over the TAR-tree (Section
// 4.3). The priority of an entry is its ranking score f(e); Property 1
// guarantees f(e) <= f(e_c) for every child, so the first k POIs ejected
// from the queue are exactly the query answer.
//
// Error handling: a TIA read failure (real or injected) aborts the query
// with the underlying Status, annotated with the path of the failing
// entry from the root ("node:3/entry[2]"). Scores are never silently
// zeroed — a fault must surface as a non-OK Status, not a wrong answer.
//
// Observability: an optional QueryTrace records per-phase wall time,
// heap traffic and access breakdowns (see common/metrics.h). All trace
// accounting is gated on `trace != nullptr` / the phase pointer, and the
// global registry is consulted behind MetricsEnabled(), so the untraced,
// metrics-disabled query is bit-identical to the uninstrumented code.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <queue>

#include "common/failpoint.h"
#include "core/query_audit.h"
#include "core/ranking.h"
#include "core/tar_tree.h"

namespace tar {

namespace {

std::string EntryPath(const std::string& node_path, std::size_t index) {
  return node_path + "/entry[" + std::to_string(index) + "]";
}

using Clock = std::chrono::steady_clock;

double MicrosSince(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

/// Times one TIA-dominated scoring call into `phase->tia_micros`. The
/// clock is only read when a phase is attached.
class TiaTimer {
 public:
  explicit TiaTimer(QueryTrace::Phase* phase) : phase_(phase) {
    if (phase_ != nullptr) start_ = Clock::now();
  }
  ~TiaTimer() {
    if (phase_ != nullptr) phase_->tia_micros += MicrosSince(start_);
  }

  TiaTimer(const TiaTimer&) = delete;
  TiaTimer& operator=(const TiaTimer&) = delete;

 private:
  QueryTrace::Phase* phase_;
  Clock::time_point start_;
};

/// Cache hints for scoring `node`'s entries: starts loading every entry's
/// TIA object now, so that by the time the scoring loop reaches an entry
/// (and, one entry earlier, asks for its live root page with
/// Tia::Prefetch) the object is in cache. Pure hints: no page is fetched,
/// no LRU frame moves and nothing is charged.
void PrefetchTias(const TarTree::Node& node) {
  for (const TarTree::Entry& e : node.entries) __builtin_prefetch(e.tia.get());
}

/// Brackets one read of a forest tree: its failpoint shard scope for the
/// node and TIA reads, and the tree's `read` mark.
class TreeRead {
 public:
  explicit TreeRead(TarTree::ForestTree* member)
      : scope_(member->fail_shard >= 0 ? member->fail_shard
                                       : fail::CurrentShard()) {
    member->read = true;
  }

 private:
  fail::ScopedShard scope_;
};

}  // namespace

Box2 TarTree::QuerySpace() const {
  Box2 space = options_.space;
  if (space.empty() && root_ != kInvalidNodeId) {
    Box3 rb = NodeBox(*nodes_[root_]);
    space.lo = {rb.lo[0], rb.lo[1]};
    space.hi = {rb.hi[0], rb.hi[1]};
  }
  return space;
}

Result<TarTree::QueryContext> TarTree::MakeContext(
    const KnntaQuery& query, AccessStats* stats, QueryTrace* trace,
    QueryDeadline* deadline) const {
  if (poisoned_) return PoisonedError("query");
  // With a trace, the phase collects its own stats; they are folded into
  // the caller's stats on exit so the caller-visible totals are unchanged.
  QueryTrace::Phase* phase = nullptr;
  AccessStats* phase_stats = stats;
  Clock::time_point start;
  if (trace != nullptr) {
    phase = trace->AddPhase("context/gmax");
    phase_stats = &phase->stats;
    start = Clock::now();
  }

  QueryContext ctx;
  ctx.q = query.point;
  ctx.interval = options_.grid.AlignOutward(query.interval);
  ctx.alpha0 = query.alpha0;
  ctx.alpha1 = 1.0 - query.alpha0;

  ctx.dmax = SpatialNormalizer(QuerySpace());

  auto gmax = MaxAggregateTraced(ctx.interval, phase_stats, phase, deadline);
  if (phase != nullptr) {
    phase->micros = MicrosSince(start);
    if (stats != nullptr) *stats += phase->stats;
  }
  TAR_RETURN_NOT_OK(gmax.status());
  ctx.gmax = AggregateNormalizer(gmax.ValueOrDie());
  return ctx;
}

Result<std::int64_t> TarTree::MaxAggregate(const TimeInterval& iq,
                                           AccessStats* stats,
                                           QueryDeadline* deadline) const {
  if (poisoned_) return PoisonedError("query");
  return MaxAggregateTraced(iq, stats, nullptr, deadline);
}

Result<std::int64_t> TarTree::MaxAggregateTraced(
    const TimeInterval& iq, AccessStats* stats, QueryTrace::Phase* phase,
    QueryDeadline* deadline) const {
  ForestTree self;
  self.tree = this;
  return MaxAggregateLoop({&self, 1}, /*seed_roots=*/true, iq, stats, phase,
                          deadline, /*failed=*/nullptr);
}

double TarTree::ForestTree::ScoreBound(const QueryContext& ctx) const {
  // The clamp EntryComponents applies: no POI of the tree aggregates more
  // than agg_bound, so its s1 is at least this.
  const double s1 =
      1.0 - std::min(1.0, static_cast<double>(agg_bound) / ctx.gmax);
  return ctx.alpha0 * min_s0 + ctx.alpha1 * s1;
}

Status TarTree::ReadAggBound(ForestTree* member, const TimeInterval& iq,
                             AccessStats* stats, QueryTrace::Phase* phase,
                             QueryDeadline* deadline) {
  // A forest search reads every tree here first, so this is where a
  // poisoned tree fails (single-tree callers check before searching).
  const TarTree& tree = *member->tree;
  if (tree.poisoned_) return tree.PoisonedError("query");
  TreeRead read(member);
  // The global TIA holds the per-epoch maximum over the tree's POIs, so
  // its aggregate bounds any one POI's.
  Result<std::int64_t> agg = [&] {
    TiaTimer timer(phase);
    return tree.global_tia().Aggregate(iq, stats, deadline);
  }();
  TAR_RETURN_NOT_OK(agg.status().WithContext("global TIA"));
  member->agg_bound = agg.ValueOrDie();
  return Status::OK();
}

Result<std::int64_t> TarTree::ForestMaxAggregate(std::span<ForestTree> forest,
                                                 const TimeInterval& iq,
                                                 AccessStats* stats,
                                                 QueryDeadline* deadline,
                                                 std::size_t* failed) {
  return MaxAggregateLoop(forest, /*seed_roots=*/false, iq, stats,
                          /*phase=*/nullptr, deadline, failed);
}

Result<std::int64_t> TarTree::MaxAggregateLoop(
    std::span<ForestTree> forest, bool seed_roots, const TimeInterval& iq,
    AccessStats* stats, QueryTrace::Phase* phase, QueryDeadline* deadline,
    std::size_t* failed) {
  // Best-first on the aggregate upper bound: a leaf entry's aggregate is
  // exact, so the first POI popped is the maximum.
  struct AggItem {
    std::int64_t bound;
    bool is_poi;
    std::uint32_t tree;
    /// kInvalidNodeId on a tree's item whose bound is still agg_bound.
    NodeId node;

    bool operator<(const AggItem& o) const {
      if (bound != o.bound) return bound < o.bound;
      if (is_poi != o.is_poi) return !is_poi;  // POIs first on ties
      if (tree != o.tree) return tree < o.tree;
      return node < o.node;
    }
  };
  std::priority_queue<AggItem> queue;
  auto push_entries = [&](std::uint32_t t, NodeId node_id) -> Status {
    if (deadline != nullptr) TAR_RETURN_NOT_OK(deadline->PollNode());
    const TarTree& tree = *forest[t].tree;
    TreeRead read(&forest[t]);
    const Node& node = *tree.nodes_[node_id];
    if (stats != nullptr) {
      ++stats->rtree_node_reads;
      if (node.is_leaf()) ++stats->rtree_leaf_reads;
    }
    PrefetchTias(node);
    const std::string node_path = "node:" + std::to_string(node_id);
    for (std::size_t i = 0; i < node.entries.size(); ++i) {
      TAR_CHECK_CANCEL(deadline);
      const Entry& e = node.entries[i];
      if (i + 1 < node.entries.size()) node.entries[i + 1].tia->Prefetch();
      if (stats != nullptr) ++stats->entries_scanned;
      Result<std::int64_t> agg = [&] {
        TiaTimer timer(phase);
        return e.tia->Aggregate(iq, stats, deadline);
      }();
      if (!agg.ok()) {
        return agg.status().WithContext(EntryPath(node_path, i));
      }
      queue.push(AggItem{agg.ValueOrDie(), node.is_leaf(), t, e.child});
      if (phase != nullptr) ++phase->heap_pushes;
    }
    return Status::OK();
  };
  // A tree's item carries its cheap bound until it first reaches the top;
  // then one read of the tree's global TIA tightens it to the interval.
  auto refine = [&](std::uint32_t t) -> Status {
    TAR_RETURN_NOT_OK(ReadAggBound(&forest[t], iq, stats, phase, deadline));
    queue.push(AggItem{forest[t].agg_bound, false, t, forest[t].tree->root_});
    if (phase != nullptr) ++phase->heap_pushes;
    return Status::OK();
  };
  auto fail_at = [&](std::uint32_t t, const Status& st) {
    if (failed != nullptr) *failed = t;
    return st;
  };
  for (std::uint32_t t = 0; t < forest.size(); ++t) {
    if (forest[t].tree->root_ == kInvalidNodeId) continue;
    if (seed_roots) {
      const Status st = push_entries(t, forest[t].tree->root_);
      if (!st.ok()) return fail_at(t, st);
    } else {
      queue.push(AggItem{forest[t].agg_bound, false, t, kInvalidNodeId});
      if (phase != nullptr) ++phase->heap_pushes;
    }
  }
  while (!queue.empty()) {
    TAR_CHECK_CANCEL(deadline);
    AggItem item = queue.top();
    queue.pop();
    if (phase != nullptr) ++phase->heap_pops;
    if (item.is_poi || item.bound == 0) return item.bound;
    const Status st = item.node == kInvalidNodeId
                          ? refine(item.tree)
                          : push_entries(item.tree, item.node);
    if (!st.ok()) return fail_at(item.tree, st);
  }
  return std::int64_t{0};
}

Status TarTree::EntryComponents(const Entry& entry, const QueryContext& ctx,
                                double* s0, double* s1, AccessStats* stats,
                                QueryDeadline* deadline) const {
  *s0 = MinDistToBox(ctx.q, entry.box) / ctx.dmax;
  TAR_ASSIGN_OR_RETURN(std::int64_t agg,
                       entry.tia->Aggregate(ctx.interval, stats, deadline));
  *s1 = 1.0 - std::min(1.0, static_cast<double>(agg) / ctx.gmax);
  return Status::OK();
}

Result<double> TarTree::EntryScore(const Entry& entry, const QueryContext& ctx,
                                   AccessStats* stats,
                                   QueryDeadline* deadline) const {
  double s0 = 0.0;
  double s1 = 0.0;
  TAR_RETURN_NOT_OK(EntryComponents(entry, ctx, &s0, &s1, stats, deadline));
  return ctx.alpha0 * s0 + ctx.alpha1 * s1;
}

namespace {

/// One best-first queue element: a POI (exact score), or a node of tree
/// `tree` reached through an internal entry, or the whole tree — its root,
/// or kInvalidNodeId before its bound is read (lower-bound score).
struct QueueItem {
  double score;
  bool is_poi;
  PoiId poi;
  TarTree::NodeId node;
  double dist;           // POIs only: unnormalized spatial distance
  std::int64_t aggregate;  // POIs only: aggregate over the interval
  std::uint32_t tree;

  /// Min-heap by score; POIs first on ties so the search can terminate.
  bool operator>(const QueueItem& o) const {
    if (score != o.score) return score > o.score;
    if (is_poi != o.is_poi) return !is_poi;
    if (is_poi) return poi > o.poi;
    if (tree != o.tree) return tree > o.tree;
    return node > o.node;
  }
};

/// Orders a forest search's answer by (score, poi_id) — the ranking of
/// one tree holding every POI of the forest — and keeps the first k.
void RankForestAnswer(std::vector<KnntaResult>* results, std::size_t k) {
  std::sort(results->begin(), results->end(),
            [](const KnntaResult& a, const KnntaResult& b) {
              if (a.score != b.score) return a.score < b.score;
              return a.poi < b.poi;  // the uniform tie-break
            });
  if (results->size() > k) results->resize(k);
}

}  // namespace

Status TarTree::Query(const KnntaQuery& query,
                      std::vector<KnntaResult>* results, AccessStats* stats,
                      QueryTrace* trace, QueryDeadline* deadline,
                      PartialResult* partial) const {
  return QueryInternal(query, nullptr, results, stats, trace, deadline,
                       partial);
}

Status TarTree::QueryWithContext(const KnntaQuery& query,
                                 const QueryContext& ctx,
                                 std::vector<KnntaResult>* results,
                                 AccessStats* stats, QueryTrace* trace,
                                 QueryDeadline* deadline,
                                 PartialResult* partial) const {
  return QueryInternal(query, &ctx, results, stats, trace, deadline, partial);
}

Status TarTree::ForestQuery(const KnntaQuery& query, const QueryContext& ctx,
                            std::span<ForestTree> forest,
                            std::vector<KnntaResult>* results,
                            AccessStats* stats, QueryDeadline* deadline,
                            std::size_t* failed) {
  results->clear();
  double cut_bound = 0.0;
  const Status st =
      BestFirstLoop(query, ctx, forest, /*seed_roots=*/false, results, stats,
                    /*phase=*/nullptr, deadline, &cut_bound, failed);
  if (!st.ok()) results->clear();
  return st;
}

Status TarTree::QueryInternal(const KnntaQuery& query,
                              const QueryContext* shared_ctx,
                              std::vector<KnntaResult>* results,
                              AccessStats* stats, QueryTrace* trace,
                              QueryDeadline* deadline,
                              PartialResult* partial) const {
  results->clear();
  if (partial != nullptr) *partial = PartialResult{};
  if (poisoned_) return PoisonedError("query");
  if (query.k == 0) return Status::InvalidArgument("k must be positive");
  if (query.alpha0 <= 0.0 || query.alpha0 >= 1.0) {
    return Status::InvalidArgument("alpha0 must be in (0, 1)");
  }
  if (!query.interval.Valid()) {
    return Status::InvalidArgument("invalid query interval");
  }
  if (root_ == kInvalidNodeId) return Status::OK();

  // One branch when idle: the clock is only read when a trace was
  // requested or the registry is collecting.
  const bool metrics = MetricsEnabled();
  const bool timed = trace != nullptr || metrics;
  Clock::time_point query_start;
  if (timed) query_start = Clock::now();

  // A sound lower bound on the score of every POI not yet returned,
  // maintained as the search runs so an `allow_partial` cut can stamp it
  // into the PartialResult. Until the root expansion completes nothing is
  // known about the frontier, hence -inf (a cut during context/gmax
  // computation degrades to an empty prefix with the trivial bound).
  double cut_bound = -std::numeric_limits<double>::infinity();

  Status st = [&]() -> Status {
    // A shared context (e.g. one shard of a sharded store) is used
    // verbatim: trees scored together must normalize with the same
    // dmax/gmax or their scores are incomparable.
    QueryContext ctx;
    if (shared_ctx != nullptr) {
      ctx = *shared_ctx;
    } else {
      TAR_ASSIGN_OR_RETURN(ctx, MakeContext(query, stats, trace, deadline));
    }

    QueryTrace::Phase* phase = nullptr;
    AccessStats* phase_stats = stats;
    Clock::time_point search_start;
    if (trace != nullptr) {
      phase = trace->AddPhase("best-first");
      phase_stats = &phase->stats;
      search_start = Clock::now();
    }
    ForestTree self;
    self.tree = this;
    const Status search_st =
        BestFirstLoop(query, ctx, {&self, 1}, /*seed_roots=*/true, results,
                      phase_stats, phase, deadline, &cut_bound,
                      /*failed=*/nullptr);
    if (phase != nullptr) {
      phase->micros = MicrosSince(search_start);
      if (stats != nullptr) *stats += phase->stats;
    }
    return search_st;
  }();

  // Graceful degradation: with `partial` opted in, a deadline/cancel trip
  // in any phase converts into an OK status carrying the exact prefix
  // found so far plus the frontier gap bound. Real errors (I/O,
  // corruption) still fail hard.
  if (partial != nullptr && !st.ok() &&
      (st.IsDeadlineExceeded() || st.IsCancelled())) {
    partial->completed = false;
    partial->cause = st;
    partial->score_bound = cut_bound;
    st = Status::OK();
  }
  // A hard failure returns no results: the prefix collected before the
  // abort is only surfaced through the labeled partial form above.
  if (!st.ok()) results->clear();

  if (trace != nullptr) {
    trace->total_micros = MicrosSince(query_start);
    trace->num_results = results->size();
  }
  if (metrics) {
    MetricsRegistry& registry = MetricsRegistry::Global();
    static Counter* const queries_metric =
        registry.GetCounter("query.knnta.count");
    static Counter* const failures_metric =
        registry.GetCounter("query.knnta.failures");
    static LatencyHistogram* const latency_metric =
        registry.GetHistogram("query.knnta.latency_us");
    static Counter* const partials_metric =
        registry.GetCounter("query.knnta.partials");
    queries_metric->Increment();
    if (st.ok()) {
      latency_metric->Record(MicrosSince(query_start));
      if (partial != nullptr && !partial->completed) {
        partials_metric->Increment();
      }
    } else {
      failures_metric->Increment();
    }
  }
  return st;
}

Status TarTree::BestFirstLoop(const KnntaQuery& query, const QueryContext& ctx,
                              std::span<ForestTree> forest, bool seed_roots,
                              std::vector<KnntaResult>* results,
                              AccessStats* stats, QueryTrace::Phase* phase,
                              QueryDeadline* deadline, double* cut_bound,
                              std::size_t* failed) {
  TAR_AUDIT(BeginQuery(results, "knnta", ctx));
  std::priority_queue<QueueItem, std::vector<QueueItem>,
                      std::greater<QueueItem>>
      queue;

  auto push_node_entries = [&](std::uint32_t t, NodeId node_id) -> Status {
    if (deadline != nullptr) TAR_RETURN_NOT_OK(deadline->PollNode());
    const TarTree& tree = *forest[t].tree;
    TreeRead read(&forest[t]);
    const Node& node = *tree.nodes_[node_id];
    if (stats != nullptr) {
      ++stats->rtree_node_reads;
      if (node.is_leaf()) ++stats->rtree_leaf_reads;
    }
    PrefetchTias(node);
    const std::string node_path = "node:" + std::to_string(node_id);
    for (std::size_t i = 0; i < node.entries.size(); ++i) {
      TAR_CHECK_CANCEL(deadline);
      const Entry& e = node.entries[i];
      if (i + 1 < node.entries.size()) node.entries[i + 1].tia->Prefetch();
      if (stats != nullptr) ++stats->entries_scanned;
      double s0 = 0.0;
      double s1 = 0.0;
      Status entry_st = [&] {
        TiaTimer timer(phase);
        return tree.EntryComponents(e, ctx, &s0, &s1, stats, deadline);
      }();
      if (!entry_st.ok()) {
        return entry_st.WithContext(EntryPath(node_path, i));
      }
      double score = ctx.alpha0 * s0 + ctx.alpha1 * s1;
      if (node.is_leaf()) {
        queue.push(QueueItem{score, true, e.poi, kInvalidNodeId,
                             s0 * ctx.dmax,
                             static_cast<std::int64_t>(
                                 std::llround((1.0 - s1) * ctx.gmax)),
                             t});
      } else {
#ifdef TAR_QUERY_AUDIT
        // Test-only Property-1 sabotage (see set_audit_bound_inflation):
        // inflating the bound past the exact child scores must be caught
        // by the pruning-certificate auditor.
        score += tree.audit_bound_inflation_;
#endif
        queue.push(
            QueueItem{score, false, kInvalidPoiId, e.child, 0.0, 0, t});
      }
      if (phase != nullptr) ++phase->heap_pushes;
    }
    return Status::OK();
  };

  // A tree's item first reads the tree's aggregate bound, then expands
  // the root when it reaches the top again (see ForestTree).
  auto refine = [&](std::uint32_t t) -> Status {
    ForestTree& member = forest[t];
    TAR_RETURN_NOT_OK(
        ReadAggBound(&member, ctx.interval, stats, phase, deadline));
    queue.push(QueueItem{member.ScoreBound(ctx), false, kInvalidPoiId,
                         member.tree->root_, 0.0, 0, t});
    if (phase != nullptr) ++phase->heap_pushes;
    return Status::OK();
  };

  Status search_st;
  for (std::uint32_t t = 0; t < forest.size() && search_st.ok(); ++t) {
    const NodeId root = forest[t].tree->root_;
    if (root == kInvalidNodeId) continue;
    if (seed_roots) {
      search_st = push_node_entries(t, root);
      if (!search_st.ok() && failed != nullptr) *failed = t;
    } else {
      // A tree the gmax pass already read enters with its interval bound
      // and expands when popped; any other is read (refined) first.
      queue.push(QueueItem{forest[t].ScoreBound(ctx), false, kInvalidPoiId,
                           forest[t].read ? root : kInvalidNodeId, 0.0, 0,
                           t});
      if (phase != nullptr) ++phase->heap_pushes;
    }
  }
  // The single-tree search stops at its kth POI. A forest search also
  // pops whatever ties the kth score, so the (score, poi_id) order below
  // sees every tied POI, whichever tree's node bound hid it.
  auto more = [&] {
    if (results->size() < query.k) return true;
    return !seed_roots && !(queue.top().score > results->back().score);
  };
  while (search_st.ok() && !queue.empty() && more()) {
    // The queue is the complete frontier here, so its minimum bounds
    // everything not yet returned (Property 1).
    *cut_bound = queue.top().score;
    TAR_CHECK_CANCEL_TO(deadline, search_st);
    if (!search_st.ok()) break;
    QueueItem item = queue.top();
    queue.pop();
    if (phase != nullptr) ++phase->heap_pops;
    if (item.is_poi) {
      results->push_back(
          KnntaResult{item.poi, item.score, item.dist, item.aggregate});
    } else {
      // While `item` is being expanded its children are missing from
      // the queue, but all of them score >= item.score, which is also
      // <= queue.top(): item.score stays a sound frontier bound.
      search_st = item.node == kInvalidNodeId
                      ? refine(item.tree)
                      : push_node_entries(item.tree, item.node);
      if (!search_st.ok() && failed != nullptr) *failed = item.tree;
    }
  }
  if (search_st.ok() && !seed_roots) RankForestAnswer(results, query.k);
#ifdef TAR_QUERY_AUDIT
  if (QueryAuditSink* sink = CurrentQueryAuditSink()) {
    // Everything still queued when the search stops was pruned: its
    // bound was no better than the kth-best result. Certify each item
    // so the auditor can descend the skipped subtrees post hoc. The
    // certificates name node ids inside one tree, so a forest of more
    // than one tree records none.
    if (forest.size() == 1 && search_st.ok() && results->size() == query.k) {
      PruneCertificate cert;
      cert.query_tag = results;
      cert.kind = PruneCertificate::Kind::kBound;
      cert.kth_best = results->back().score;
      cert.kth_poi = results->back().poi;
      // Post-search certification in audit builds only: the answer is
      // already complete, and cutting the drain short would lose the
      // certificates the auditor verifies.
      // tar-lint: allow(cancel-poll) audit-only post-completion drain
      while (!queue.empty()) {
        const QueueItem& item = queue.top();
        cert.node = item.is_poi ? kInvalidNodeId : item.node;
        cert.poi = item.is_poi ? item.poi : kInvalidPoiId;
        cert.bound = item.score;
        sink->RecordPrune(cert);
        queue.pop();
      }
    }
    sink->EndQuery(results);
  }
#endif
  return search_st;
}

}  // namespace tar
