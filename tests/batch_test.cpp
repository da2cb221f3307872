// MioEngine::QueryBatch differential tests: batch execution must be
// bit-identical to per-query Query across kernel tiers, radius classes,
// top-k, labels, and thread counts — and a guardrail-tripped or
// memory-degraded member must never poison its siblings (including the
// ClearGridCache-mid-batch lifetime contract, mio_engine.hpp).
#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/mio_engine.hpp"
#include "geo/kernels.hpp"
#include "test_utils.hpp"

namespace mio {
namespace {

std::vector<BatchQuery> MakeBatch(const std::vector<double>& radii,
                                  const QueryOptions& opt = {}) {
  std::vector<BatchQuery> batch(radii.size());
  for (std::size_t i = 0; i < radii.size(); ++i) {
    batch[i].r = radii[i];
    batch[i].options = opt;
  }
  return batch;
}

/// Runs the same members through a fresh engine's sequential Query loop
/// (reuse_grid on, like the batch implies) for differential comparison.
std::vector<QueryResult> RunSequential(const ObjectSet& set,
                                       const std::vector<BatchQuery>& batch) {
  MioEngine engine(set);
  std::vector<QueryResult> out;
  out.reserve(batch.size());
  for (const BatchQuery& q : batch) {
    QueryOptions opt = q.options;
    opt.reuse_grid = true;
    out.push_back(engine.Query(q.r, opt));
  }
  return out;
}

void ExpectSameAnswer(const QueryResult& a, const QueryResult& b,
                      const std::string& what) {
  EXPECT_EQ(a.complete, b.complete) << what;
  EXPECT_EQ(a.status.code(), b.status.code()) << what;
  ASSERT_EQ(a.topk.size(), b.topk.size()) << what;
  for (std::size_t i = 0; i < a.topk.size(); ++i) {
    EXPECT_EQ(a.topk[i].id, b.topk[i].id) << what << " rank " << i;
    EXPECT_EQ(a.topk[i].score, b.topk[i].score) << what << " rank " << i;
  }
}

class BatchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    set_ = testing::MakeRandomObjects(60, 4, 10, 30.0, 13, 5.0);
  }
  std::uint32_t Oracle(double r) {
    return testing::MaxScore(testing::OracleScores(set_, r));
  }
  ObjectSet set_;
};

// The mixed-ceiling workload the batch API exists for: several radii per
// ceil(r) class, classes interleaved in submission order.
const std::vector<double> kMixedRadii = {3.0, 4.5, 3.2, 6.8, 2.1,
                                         5.5, 4.0, 3.9, 6.1, 2.8};

TEST_F(BatchTest, MixedCeilingBitIdenticalToSequential) {
  std::vector<BatchQuery> batch = MakeBatch(kMixedRadii);
  std::vector<QueryResult> seq = RunSequential(set_, batch);

  MioEngine engine(set_);
  BatchResult res = engine.QueryBatch(batch);
  ASSERT_EQ(res.results.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    ExpectSameAnswer(res.results[i], seq[i],
                     "r=" + std::to_string(kMixedRadii[i]));
    EXPECT_EQ(res.results[i].best().score, Oracle(kMixedRadii[i])) << i;
  }

  // Accounting: one build per distinct ceiling, every other member saved.
  std::map<int, int> ceilings;
  for (double r : kMixedRadii) {
    ++ceilings[static_cast<int>(LargeGridWidth(r))];
  }
  EXPECT_EQ(res.stats.classes, ceilings.size());
  EXPECT_EQ(res.stats.grid_builds, ceilings.size());
  EXPECT_EQ(res.stats.grid_builds_saved, kMixedRadii.size() - ceilings.size());
  EXPECT_GT(res.stats.postings_bytes_shared, 0u);
  EXPECT_GT(res.stats.arena_high_water_bytes, 0u);
}

TEST_F(BatchTest, BitIdenticalAcrossKernelTiers) {
  std::vector<BatchQuery> batch = MakeBatch({3.0, 4.5, 3.2, 6.8, 4.0});
  std::vector<QueryResult> seq = RunSequential(set_, batch);

  std::vector<KernelTier> tiers = {KernelTier::kScalar};
  if (static_cast<int>(BestSupportedTier()) >=
      static_cast<int>(KernelTier::kSse2)) {
    tiers.push_back(KernelTier::kSse2);
  }
  if (BestSupportedTier() == KernelTier::kAvx2) {
    tiers.push_back(KernelTier::kAvx2);
  }
  KernelTier prev = ActiveKernelTier();
  for (KernelTier tier : tiers) {
    ASSERT_EQ(SetKernelTier(tier), tier);
    MioEngine engine(set_);
    BatchResult res = engine.QueryBatch(batch);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      ExpectSameAnswer(res.results[i], seq[i],
                       std::string(KernelTierName(tier)) + " member " +
                           std::to_string(i));
    }
  }
  SetKernelTier(prev);
}

TEST_F(BatchTest, TopKMatchesSequentialAndOracle) {
  QueryOptions opt;
  opt.k = 5;
  std::vector<BatchQuery> batch = MakeBatch({5.0, 4.2, 5.0, 3.3}, opt);
  std::vector<QueryResult> seq = RunSequential(set_, batch);

  MioEngine engine(set_);
  BatchResult res = engine.QueryBatch(batch);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    ExpectSameAnswer(res.results[i], seq[i], "k=5 member " +
                                                 std::to_string(i));
    std::vector<ScoredObject> want =
        TopKFromScores(testing::OracleScores(set_, batch[i].r), 5);
    ASSERT_EQ(res.results[i].topk.size(), want.size()) << i;
    for (std::size_t rank = 0; rank < want.size(); ++rank) {
      EXPECT_EQ(res.results[i].topk[rank].score, want[rank].score)
          << i << " rank " << rank;
    }
  }
}

TEST_F(BatchTest, LabelsHoistedOncePerClassStayExact) {
  QueryOptions opt;
  opt.use_labels = true;
  opt.record_labels = true;
  // Three members of ceiling 4: the first records, siblings must replay
  // the hoisted set as a memory hit without re-probing.
  std::vector<BatchQuery> batch = MakeBatch({4.0, 3.7, 3.3, 6.5, 6.0}, opt);
  std::vector<QueryResult> seq = RunSequential(set_, batch);

  MioEngine engine(set_);
  BatchResult res = engine.QueryBatch(batch);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    ExpectSameAnswer(res.results[i], seq[i],
                     "labels member " + std::to_string(i));
    EXPECT_EQ(res.results[i].best().score, Oracle(batch[i].r)) << i;
  }
  EXPECT_EQ(res.results[0].stats.label_outcome, LabelOutcome::kMissRecorded);
  EXPECT_EQ(res.results[1].stats.label_outcome, LabelOutcome::kHitMemory);
  EXPECT_EQ(res.results[2].stats.label_outcome, LabelOutcome::kHitMemory);
  EXPECT_TRUE(engine.HasLabelsFor(4.0));
  EXPECT_TRUE(engine.HasLabelsFor(6.5));
}

TEST_F(BatchTest, ParallelBatchMatchesSerialBatch) {
  std::vector<BatchQuery> serial_batch = MakeBatch(kMixedRadii);
  QueryOptions par;
  par.threads = 4;
  std::vector<BatchQuery> parallel_batch = MakeBatch(kMixedRadii, par);

  MioEngine serial_engine(set_);
  BatchResult serial = serial_engine.QueryBatch(serial_batch);
  MioEngine parallel_engine(set_);
  BatchResult parallel = parallel_engine.QueryBatch(parallel_batch);
  for (std::size_t i = 0; i < kMixedRadii.size(); ++i) {
    ExpectSameAnswer(parallel.results[i], serial.results[i],
                     "threads=4 member " + std::to_string(i));
  }
}

// Dense fixture (sigma 1): most large cells hold several points of one
// object, so verification runs multi-point groups. Grouping order is
// fixed by (cell key, point index), never by how the grid was built, so
// even the comparison count matches the sequential run — with and
// without labels.
TEST_F(BatchTest, DenseGroupsMatchSequentialIncludingComparisons) {
  ObjectSet dense = testing::MakeRandomObjects(80, 20, 40, 30.0, 31, 1.0);
  QueryOptions labelled;
  labelled.use_labels = true;
  labelled.record_labels = true;
  for (const QueryOptions& opt : {QueryOptions{}, labelled}) {
    std::vector<BatchQuery> batch = MakeBatch({3.5, 3.2, 4.8, 3.9, 4.1}, opt);
    std::vector<QueryResult> seq = RunSequential(dense, batch);
    MioEngine engine(dense);
    BatchResult res = engine.QueryBatch(batch);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const std::string what = std::string(opt.use_labels ? "labels" : "plain") +
                               " member " + std::to_string(i);
      ExpectSameAnswer(res.results[i], seq[i], what);
      EXPECT_EQ(res.results[i].stats.distance_computations,
                seq[i].stats.distance_computations)
          << what;
      EXPECT_EQ(res.results[i].best().score,
                testing::MaxScore(testing::OracleScores(dense, batch[i].r)))
          << what;
    }
  }
}

TEST_F(BatchTest, TrippedMemberDoesNotPoisonSiblings) {
  std::vector<BatchQuery> batch = MakeBatch({4.0, 3.5, 3.2, 3.8});
  batch[1].options.deadline_ms = 1e-7;  // trips at the first guard poll

  MioEngine engine(set_);
  BatchResult res = engine.QueryBatch(batch);
  EXPECT_FALSE(res.results[1].complete);
  EXPECT_EQ(res.results[1].status.code(), StatusCode::kDeadlineExceeded);
  // Every sibling is exact, including the ones after the trip.
  for (std::size_t i : {std::size_t{0}, std::size_t{2}, std::size_t{3}}) {
    EXPECT_TRUE(res.results[i].complete) << i;
    EXPECT_EQ(res.results[i].best().score, Oracle(batch[i].r)) << i;
  }
}

TEST_F(BatchTest, TrippedFirstMemberLeavesClassRebuildable) {
  // The class builder itself trips: grid_out must stay empty (a partial
  // grid is never shared) and the next member rebuilds and answers.
  std::vector<BatchQuery> batch = MakeBatch({4.0, 3.5});
  batch[0].options.deadline_ms = 1e-7;

  MioEngine engine(set_);
  BatchResult res = engine.QueryBatch(batch);
  EXPECT_FALSE(res.results[0].complete);
  EXPECT_TRUE(res.results[1].complete);
  EXPECT_EQ(res.results[1].best().score, Oracle(3.5));
  EXPECT_EQ(res.stats.grid_builds_saved, 0u);
}

TEST_F(BatchTest, MidBatchCacheClearCannotDangle) {
  // Satellite regression for the ClearGridCache lifetime contract: a
  // member whose memory budget walks the degradation ladder to "drop the
  // grid cache" clears grid_cache_ in the middle of the batch. The class
  // grid is pinned by the batch loop's shared_ptr, so later siblings must
  // keep reading it (no rebuild, no dangle — ASan covers the latter via
  // scripts/check_batch.sh).
  ObjectSet set = testing::MakeRandomObjects(400, 4, 8, 40.0, 81);
  const double r = 3.0;
  // The class grid reaches member 1 with member 0's memoised b_adj
  // bitsets aboard, so the budget is pinned to the post-query footprint
  // (index_memory_bytes after one full reuse_grid query), not to the
  // bare post-build grid the sequential ladder test uses.
  MioEngine probe(set);
  QueryOptions probe_opt;
  probe_opt.reuse_grid = true;
  const std::size_t warm_bytes =
      probe.Query(r, probe_opt).stats.index_memory_bytes;
  const std::uint32_t oracle = testing::MaxScore(testing::OracleScores(set, r));

  std::vector<BatchQuery> batch = MakeBatch({r, r, r, r});
  batch[1].options.memory_budget_bytes = warm_bytes;

  MioEngine engine(set);
  BatchResult res = engine.QueryBatch(batch);
  EXPECT_TRUE(res.results[1].complete);
  EXPECT_GE(res.results[1].stats.degradation_level, 2);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_TRUE(res.results[i].complete) << i;
    EXPECT_EQ(res.results[i].best().score, oracle) << i;
  }
  // Members 1..3 all ran off the pinned class grid (no rebuild).
  EXPECT_EQ(res.stats.grid_builds, 1u);
  EXPECT_EQ(res.stats.grid_builds_saved, 3u);
  // And the engine survives the cleared cache: a fresh query rebuilds.
  QueryOptions reuse;
  reuse.reuse_grid = true;
  QueryResult after = engine.Query(r, reuse);
  EXPECT_EQ(after.best().score, oracle);
}

TEST_F(BatchTest, EmptyAndDegenerateMembers) {
  MioEngine engine(set_);
  EXPECT_TRUE(engine.QueryBatch({}).results.empty());

  const double inf = std::numeric_limits<double>::infinity();
  std::vector<BatchQuery> batch =
      MakeBatch({4.0, 0.0, -1.0, std::numeric_limits<double>::quiet_NaN(),
                 inf, -inf, 3.5});
  BatchResult res = engine.QueryBatch(batch);
  ASSERT_EQ(res.results.size(), batch.size());
  EXPECT_EQ(res.results[0].best().score, Oracle(4.0));
  EXPECT_TRUE(res.results[0].status.ok());
  for (std::size_t i = 1; i + 1 < batch.size(); ++i) {
    EXPECT_TRUE(res.results[i].topk.empty()) << batch[i].r;
    EXPECT_EQ(res.results[i].status.code(), StatusCode::kInvalidArgument)
        << batch[i].r;
  }
  EXPECT_EQ(res.results.back().best().score, Oracle(3.5));
  EXPECT_EQ(res.stats.classes, 1u);  // 4.0 and 3.5 share ceiling 4
}

TEST_F(BatchTest, RejectedMembersJoinNoClass) {
  // Invalid radii are rejected before grouping: they form no class,
  // build no grid, and do not split the class of their valid siblings.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  QueryOptions opt;
  opt.record_labels = true;
  MioEngine engine(set_);

  BatchResult none = engine.QueryBatch(MakeBatch({nan, inf, -1.0, 0.0}, opt));
  ASSERT_EQ(none.results.size(), 4u);
  for (const QueryResult& r : none.results) {
    EXPECT_EQ(r.status.code(), StatusCode::kInvalidArgument);
    EXPECT_TRUE(r.topk.empty());
  }
  EXPECT_EQ(none.stats.classes, 0u);
  EXPECT_EQ(none.stats.grid_builds, 0u);
  EXPECT_EQ(none.stats.grid_builds_saved, 0u);
  EXPECT_EQ(none.stats.postings_bytes_shared, 0u);

  BatchResult mixed = engine.QueryBatch(MakeBatch({nan, 3.5, inf, 3.2}, opt));
  ASSERT_EQ(mixed.results.size(), 4u);
  EXPECT_EQ(mixed.results[0].status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(mixed.results[2].status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(mixed.results[1].best().score, Oracle(3.5));
  EXPECT_EQ(mixed.results[3].best().score, Oracle(3.2));
  EXPECT_EQ(mixed.stats.classes, 1u);
  EXPECT_EQ(mixed.stats.grid_builds, 1u);
  EXPECT_EQ(mixed.stats.grid_builds_saved, 1u);
  EXPECT_TRUE(engine.HasLabelsFor(3.5));
}

TEST_F(BatchTest, BatchBesideConcurrentQueriesStaysExact) {
  // QueryBatch shares its class grids through the engine's grid cache, so
  // concurrent reuse_grid queries adopt the very grids the batch is
  // reading. Nothing may rewrite a shared grid in place: every answer
  // must match a fresh sequential engine (TSan covers the races via
  // scripts/check_batch.sh). threads=1 keeps OpenMP out of the picture.
  // A dense set, so large cells hold dozens of posting points.
  ObjectSet set = testing::MakeRandomObjects(200, 8, 16, 12.0, 29, 3.0);
  const std::vector<double> radii = {3.0, 2.5, 2.2, 4.0, 3.6, 3.3};
  std::vector<BatchQuery> batch = MakeBatch(radii);
  std::vector<QueryResult> want = RunSequential(set, batch);

  MioEngine engine(set);
  constexpr int kRounds = 3;
  constexpr int kQueryThreads = 2;
  std::vector<BatchResult> batch_out(kRounds);
  std::vector<std::vector<QueryResult>> query_out(kQueryThreads);
  std::vector<std::thread> workers;
  workers.emplace_back([&] {
    for (int round = 0; round < kRounds; ++round) {
      batch_out[round] = engine.QueryBatch(batch);
    }
  });
  for (int t = 0; t < kQueryThreads; ++t) {
    workers.emplace_back([&, t] {
      QueryOptions opt;
      opt.reuse_grid = true;
      for (int round = 0; round < kRounds; ++round) {
        for (double r : radii) query_out[t].push_back(engine.Query(r, opt));
      }
    });
  }
  for (std::thread& w : workers) w.join();

  auto expect_exact = [&](const QueryResult& got, std::size_t i,
                          const std::string& what) {
    ExpectSameAnswer(got, want[i], what);
    EXPECT_EQ(got.stats.distance_computations,
              want[i].stats.distance_computations)
        << what;
  };
  for (int round = 0; round < kRounds; ++round) {
    ASSERT_EQ(batch_out[round].results.size(), radii.size());
    for (std::size_t i = 0; i < radii.size(); ++i) {
      expect_exact(batch_out[round].results[i], i,
                   "batch round " + std::to_string(round) + " member " +
                       std::to_string(i));
    }
  }
  for (int t = 0; t < kQueryThreads; ++t) {
    ASSERT_EQ(query_out[t].size(), kRounds * radii.size());
    for (std::size_t q = 0; q < query_out[t].size(); ++q) {
      expect_exact(query_out[t][q], q % radii.size(),
                   "query thread " + std::to_string(t) + " #" +
                       std::to_string(q));
    }
  }
}

TEST_F(BatchTest, BatchWarmStartsFromEngineGridCache) {
  // A grid cached by an earlier sequential query serves the whole class:
  // zero builds inside the batch.
  MioEngine engine(set_);
  QueryOptions reuse;
  reuse.reuse_grid = true;
  engine.Query(4.0, reuse);

  BatchResult res = engine.QueryBatch(MakeBatch({4.0, 3.7, 3.1}));
  EXPECT_EQ(res.stats.grid_builds, 0u);
  EXPECT_EQ(res.stats.grid_builds_saved, 3u);
  EXPECT_EQ(res.results[0].best().score, Oracle(4.0));
  EXPECT_EQ(res.results[1].best().score, Oracle(3.7));
  EXPECT_EQ(res.results[2].best().score, Oracle(3.1));
}

}  // namespace
}  // namespace mio
