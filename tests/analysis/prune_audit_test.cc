// The pruning-certificate auditor: clean query corpora verify across all
// grouping strategies and TIA backends, a deliberately weakened bound
// (Property 1 sabotage) is caught with the offending entry's node path,
// and mis-threaded certificates fail loudly.
#include "analysis/prune_audit.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "common/deadline.h"
#include "common/random.h"
#include "core/collective.h"
#include "core/mwa.h"
#include "core/query_audit.h"
#include "core/tar_tree.h"

namespace tar::analysis {
namespace {

constexpr Timestamp kEpochLen = 7 * kSecondsPerDay;

struct Fixture {
  Fixture(std::uint64_t seed, GroupingStrategy strategy, TiaBackend backend,
          std::size_t n = 200, std::int64_t epochs = 12)
      : rng(seed), num_epochs(epochs) {
    TarTreeOptions opt;
    opt.strategy = strategy;
    opt.tia_backend = backend;
    opt.node_size_bytes = 512;
    opt.grid = EpochGrid(0, kEpochLen);
    opt.space = Box2::Union(Box2::FromPoint({0, 0}),
                            Box2::FromPoint({100, 100}));
    tree = std::make_unique<TarTree>(opt);
    for (std::size_t i = 0; i < n; ++i) {
      Poi p{static_cast<PoiId>(i),
            {rng.Uniform(0, 100), rng.Uniform(0, 100)}};
      std::vector<std::int32_t> hist(epochs, 0);
      std::int64_t total =
          static_cast<std::int64_t>(std::pow(10.0, rng.Uniform(0.0, 2.0)));
      for (std::int64_t c = 0; c < total; ++c) {
        ++hist[rng.UniformInt(0, epochs - 1)];
      }
      EXPECT_TRUE(tree->InsertPoi(p, hist).ok());
    }
  }

  KnntaQuery RandomQuery() {
    std::int64_t e0 = rng.UniformInt(0, num_epochs - 1);
    std::int64_t e1 = rng.UniformInt(e0, num_epochs - 1);
    return KnntaQuery{{rng.Uniform(0, 100), rng.Uniform(0, 100)},
                      {e0 * kEpochLen, (e1 + 1) * kEpochLen - 1},
                      static_cast<std::size_t>(rng.UniformInt(1, 12)),
                      rng.Uniform(0.1, 0.9)};
  }

  Rng rng;
  std::unique_ptr<TarTree> tree;
  std::int64_t num_epochs;
};

struct Config {
  GroupingStrategy strategy;
  TiaBackend backend;
};

class PruneAuditTest : public ::testing::TestWithParam<Config> {};

TEST_P(PruneAuditTest, CleanCorpusVerifies) {
  Fixture fx(19, GetParam().strategy, GetParam().backend);
  PruningAuditor audit;
  std::vector<KnntaQuery> batch;
  {
    ScopedQueryAudit scope(&audit);
    for (int trial = 0; trial < 10; ++trial) {
      KnntaQuery q = fx.RandomQuery();
      batch.push_back(q);
      std::vector<KnntaResult> results;
      ASSERT_TRUE(fx.tree->Query(q, &results).ok());
    }
    // Collective processing and both MWA algorithms record through the
    // same hooks; fold them into the corpus.
    std::vector<std::vector<KnntaResult>> coll;
    ASSERT_TRUE(
        ProcessCollectively(*fx.tree, batch, &coll, nullptr, nullptr).ok());
    MwaResult mwa;
    ASSERT_TRUE(ComputeMwaEnumerating(*fx.tree, batch[0], &mwa).ok());
    ASSERT_TRUE(ComputeMwaPruning(*fx.tree, batch[1], &mwa).ok());
  }
  AuditReport report;
  Status st = audit.VerifyAll(*fx.tree, &report);
  ASSERT_TRUE(st.ok()) << st.ToString();
#ifdef TAR_QUERY_AUDIT
  // 10 individual + 10 collective + 2 per MWA algorithm (each runs an
  // inner top-k query before its own traversal).
  EXPECT_GE(audit.num_queries(), 24u);
  EXPECT_GT(audit.num_certificates(), 0u);
  EXPECT_GT(report.bound_certs, 0u);
  EXPECT_GT(report.dominance_certs, 0u);
  EXPECT_EQ(report.certificates, audit.num_certificates());
#else
  EXPECT_EQ(audit.num_queries(), 0u);
  EXPECT_EQ(audit.num_certificates(), 0u);
#endif
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigs, PruneAuditTest,
    ::testing::Values(
        Config{GroupingStrategy::kIntegral3D, TiaBackend::kMvbt},
        Config{GroupingStrategy::kSpatial, TiaBackend::kMvbt},
        Config{GroupingStrategy::kAggregate, TiaBackend::kMvbt},
        Config{GroupingStrategy::kIntegral3D, TiaBackend::kFlat},
        Config{GroupingStrategy::kSpatial, TiaBackend::kFlat},
        Config{GroupingStrategy::kAggregate, TiaBackend::kFlat}));

TEST(PruneAuditAbortTest, AbortedQueriesLeaveAVerifiableCorpus) {
  // Queries cut by a work budget — failing hard and degrading to a
  // partial prefix — still announce/close their audit records, and every
  // certificate emitted before the cut must verify: an abort is not a
  // license to record unprovable prunes.
  Fixture fx(31, GroupingStrategy::kIntegral3D, TiaBackend::kMvbt);
  PruningAuditor audit;
  {
    ScopedQueryAudit scope(&audit);
    for (int trial = 0; trial < 20; ++trial) {
      KnntaQuery q = fx.RandomQuery();
      QueryBudget budget;
      budget.max_node_visits = 1 + trial % 8;
      QueryDeadline deadline(budget);
      std::vector<KnntaResult> results;
      if (trial % 2 == 0) {
        Status st =
            fx.tree->Query(q, &results, nullptr, nullptr, &deadline);
        ASSERT_TRUE(st.ok() || st.IsDeadlineExceeded()) << st.ToString();
      } else {
        PartialResult partial;
        ASSERT_TRUE(fx.tree
                        ->Query(q, &results, nullptr, nullptr, &deadline,
                                &partial)
                        .ok());
      }
    }
    // The collective path's abort closes every still-open query record.
    std::vector<KnntaQuery> batch;
    for (int i = 0; i < 6; ++i) batch.push_back(fx.RandomQuery());
    QueryBudget budget;
    budget.max_node_visits = 12;
    QueryDeadline deadline(budget);
    std::vector<std::vector<KnntaResult>> coll;
    Status st = ProcessCollectively(*fx.tree, batch, &coll, nullptr,
                                    nullptr, &deadline);
    ASSERT_TRUE(st.ok() || st.IsDeadlineExceeded()) << st.ToString();
  }
  AuditReport report;
  Status verdict = audit.VerifyAll(*fx.tree, &report);
  EXPECT_TRUE(verdict.ok()) << verdict.ToString();
}

#ifdef TAR_QUERY_AUDIT

TEST(PruneAuditSabotageTest, WeakenedBoundIsCaughtWithNodePath) {
  Fixture fx(23, GroupingStrategy::kIntegral3D, TiaBackend::kMvbt);
  // Inflate every internal entry's bound score: Property 1 now fails, so
  // the search pops subtrees too late and prunes subtrees whose contents
  // beat the recorded bound.
  fx.tree->set_audit_bound_inflation(0.05);
  PruningAuditor audit;
  {
    ScopedQueryAudit scope(&audit);
    for (int trial = 0; trial < 20; ++trial) {
      std::vector<KnntaResult> results;
      ASSERT_TRUE(fx.tree->Query(fx.RandomQuery(), &results).ok());
    }
  }
  Status st = audit.VerifyAll(*fx.tree);
  ASSERT_FALSE(st.ok()) << "auditor missed an inflated bound over "
                        << audit.num_certificates() << " certificates";
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
  // The violation names the pruned entry verifier-style.
  EXPECT_NE(st.message().find("node:"), std::string::npos) << st.ToString();
}

TEST(PruneAuditOrphanTest, CertificateOutsideQueryFailsVerification) {
  Fixture fx(29, GroupingStrategy::kIntegral3D, TiaBackend::kMvbt, 20, 4);
  PruningAuditor audit;
  PruneCertificate cert;
  cert.query_tag = &cert;  // never announced with BeginQuery
  audit.RecordPrune(cert);
  Status st = audit.VerifyAll(*fx.tree);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("outside BeginQuery"), std::string::npos)
      << st.ToString();
}

#endif  // TAR_QUERY_AUDIT

}  // namespace
}  // namespace tar::analysis
