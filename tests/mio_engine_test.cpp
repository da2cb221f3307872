// End-to-end engine tests: BIGrid (all modes) must agree with the NL
// oracle on the winner's score, and the top-k variant with the oracle's
// full ranking.
#include "core/mio_engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <ostream>
#include <utility>

#include "core/lower_bound.hpp"
#include "core/query_result.hpp"
#include "core/upper_bound.hpp"
#include "core/verification.hpp"
#include "test_utils.hpp"

namespace mio {
namespace {

struct EngineCase {
  std::size_t n;
  std::size_t m_min, m_max;
  double domain;
  double cluster_sigma;
  double r;
  std::uint64_t seed;
};

// Names the ctest entry after the case, not its raw bytes.
void PrintTo(const EngineCase& c, std::ostream* os) {
  *os << "n=" << c.n << " m=" << c.m_min << ".." << c.m_max
      << " domain=" << c.domain << " sigma=" << c.cluster_sigma << " r=" << c.r
      << " seed=" << c.seed;
}

class EngineOracleTest : public ::testing::TestWithParam<EngineCase> {
 protected:
  ObjectSet MakeSet() const {
    const EngineCase& c = GetParam();
    return testing::MakeRandomObjects(c.n, c.m_min, c.m_max, c.domain, c.seed,
                                      c.cluster_sigma);
  }
};

TEST_P(EngineOracleTest, SerialMatchesOracle) {
  const EngineCase& c = GetParam();
  ObjectSet set = MakeSet();
  std::vector<std::uint32_t> exact = testing::OracleScores(set, c.r);
  std::uint32_t best = testing::MaxScore(exact);

  MioEngine engine(set);
  QueryResult res = engine.Query(c.r);
  ASSERT_FALSE(res.topk.empty());
  EXPECT_EQ(res.best().score, best);
  EXPECT_EQ(exact[res.best().id], best);  // the returned id really scores best
  EXPECT_GT(res.stats.total_seconds, 0.0);
}

TEST_P(EngineOracleTest, TopKMatchesOracleRanking) {
  const EngineCase& c = GetParam();
  ObjectSet set = MakeSet();
  std::vector<std::uint32_t> exact = testing::OracleScores(set, c.r);

  for (std::size_t k : {2u, 5u, 10u}) {
    if (k > set.size()) continue;
    QueryOptions opt;
    opt.k = k;
    MioEngine engine(set);
    QueryResult res = engine.Query(c.r, opt);
    ASSERT_EQ(res.topk.size(), k);

    std::vector<ScoredObject> want = TopKFromScores(exact, k);
    for (std::size_t idx = 0; idx < k; ++idx) {
      // Scores must match position-wise (ids may differ on ties).
      EXPECT_EQ(res.topk[idx].score, want[idx].score)
          << "k=" << k << " pos=" << idx;
      // Each returned id's true score must equal its reported score.
      EXPECT_EQ(exact[res.topk[idx].id], res.topk[idx].score);
    }
    // Descending order.
    for (std::size_t idx = 1; idx < k; ++idx) {
      EXPECT_GE(res.topk[idx - 1].score, res.topk[idx].score);
    }
  }
}

TEST_P(EngineOracleTest, LabelRunsMatchOracleAndFirstRun) {
  const EngineCase& c = GetParam();
  ObjectSet set = MakeSet();
  std::vector<std::uint32_t> exact = testing::OracleScores(set, c.r);
  std::uint32_t best = testing::MaxScore(exact);

  MioEngine engine(set);
  QueryOptions opt;
  opt.record_labels = true;
  opt.use_labels = true;

  QueryResult first = engine.Query(c.r, opt);   // records labels
  ASSERT_TRUE(engine.HasLabelsFor(c.r));
  QueryResult second = engine.Query(c.r, opt);  // uses labels
  QueryResult third = engine.Query(c.r, opt);   // again (stable)

  EXPECT_EQ(first.best().score, best);
  EXPECT_EQ(second.best().score, best);
  EXPECT_EQ(third.best().score, best);
  EXPECT_EQ(exact[second.best().id], best);
}

TEST_P(EngineOracleTest, LabelsTransferAcrossSameCeilRadii) {
  const EngineCase& c = GetParam();
  ObjectSet set = MakeSet();
  double r1 = c.r;                 // records labels for ceil(r)
  double r2 = c.r - 0.4;           // same ceiling (r in the sweep is >= 1)
  if (std::ceil(r1) != std::ceil(r2) || r2 <= 0) GTEST_SKIP();

  MioEngine engine(set);
  QueryOptions opt;
  opt.record_labels = true;
  opt.use_labels = true;
  engine.Query(r1, opt);
  ASSERT_TRUE(engine.HasLabelsFor(r2));

  QueryResult res = engine.Query(r2, opt);
  std::vector<std::uint32_t> exact = testing::OracleScores(set, r2);
  EXPECT_EQ(res.best().score, testing::MaxScore(exact));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EngineOracleTest,
    ::testing::Values(
        EngineCase{30, 5, 15, 25.0, 5.0, 4.0, 1},
        EngineCase{30, 5, 15, 25.0, 5.0, 6.5, 2},
        EngineCase{30, 5, 15, 25.0, 5.0, 10.0, 3},
        EngineCase{60, 2, 6, 40.0, 3.0, 3.0, 4},
        EngineCase{15, 30, 50, 15.0, 7.0, 2.0, 5},   // dense
        EngineCase{80, 3, 8, 400.0, 2.0, 5.0, 6},    // sparse
        EngineCase{40, 4, 12, 30.0, 6.0, 1.3, 7}));  // ceil boundary

// Labeling-3 is recorded per point group (a point keeps kVerify only if
// it confirmed a partner). Replaying at the recorded radius must still
// reproduce every object's exact score, not just the winner's: with
// k = n every candidate is verified in both runs. Dense fixture, so most
// groups hold several points and most points lose kVerify. Both runs seed
// each candidate with its Lemma-1 partners (see the next test for why the
// recording's seed is the replay's).
TEST(EngineLabelTest, GroupLabelsReplayEveryExactScore) {
  const double r = 3.5;
  ObjectSet set = testing::MakeRandomObjects(50, 20, 40, 25.0, 17, 1.0);
  std::vector<std::uint32_t> exact = testing::OracleScores(set, r);
  for (int threads : {1, 2}) {
    MioEngine engine(set);
    QueryOptions opt;
    opt.k = set.size();
    opt.threads = threads;
    opt.use_labels = true;
    opt.record_labels = true;
    QueryResult recorded = engine.Query(r, opt);
    ASSERT_EQ(recorded.stats.label_outcome, LabelOutcome::kMissRecorded);
    QueryResult replayed = engine.Query(r, opt);
    ASSERT_EQ(replayed.stats.label_outcome, LabelOutcome::kHitMemory);
    for (const QueryResult* res : {&recorded, &replayed}) {
      ASSERT_EQ(res->topk.size(), set.size()) << "threads=" << threads;
      for (const ScoredObject& s : res->topk) {
        EXPECT_EQ(s.score, exact[s.id])
            << "threads=" << threads << " object " << s.id;
      }
    }
    // The replay skipped the points whose kVerify bit was cleared.
    EXPECT_LT(replayed.stats.distance_computations,
              recorded.stats.distance_computations)
        << "threads=" << threads;
  }
}

// Labeling-3 with stops (k = 1, so every candidate after the first is
// scanned against a threshold): a completed scan keeps kVerify on its
// witnesses only, and a stopped one on every point, since the objects it
// left undecided have no witness. Replaying the labels at the recorded
// radius gives the same top-k, candidate queue and verified count.
TEST(EngineLabelTest, StoppedScansKeepEveryVerifyBit) {
  const double r = 3.5;
  ObjectSet set = testing::MakeRandomObjects(50, 20, 40, 25.0, 17, 1.0);
  BiGrid grid(set, r);
  grid.Build();
  LabelSet labels = LabelSet::MakeAllOnes(set);
  labels.recorded_r = r;
  LowerBoundResult lb = LowerBounding(grid, false);
  UpperBoundResult ub = UpperBounding(grid, lb.tau_low_max, nullptr, &labels,
                                      nullptr, nullptr, &lb.tau_low);
  VerifyArena arena;
  std::vector<ObjectId> stopped_ids;
  VerifyCandidates(
      ub, 1, nullptr, nullptr, nullptr,
      [&](ObjectId i, const Ewah* seed, long long threshold, bool* stopped) {
        const std::uint32_t score =
            ExactScore(grid, i, nullptr, &labels, seed, nullptr, true,
                       nullptr, &arena, threshold, stopped);
        if (*stopped) stopped_ids.push_back(i);
        return score;
      });
  ASSERT_FALSE(stopped_ids.empty());
  for (ObjectId i : stopped_ids) {
    for (std::size_t j = 0; j < set[i].points.size(); ++j) {
      EXPECT_NE(labels.labels[i][j] & label::kVerify, 0)
          << "object " << i << " point " << j;
    }
  }

  const std::uint32_t best = testing::MaxScore(testing::OracleScores(set, r));
  for (int threads : {1, 2}) {
    MioEngine engine(set);
    QueryOptions opt;
    opt.threads = threads;
    opt.use_labels = true;
    opt.record_labels = true;
    QueryResult recorded = engine.Query(r, opt);
    ASSERT_EQ(recorded.stats.label_outcome, LabelOutcome::kMissRecorded);
    EXPECT_GT(recorded.stats.num_stopped, 0u) << "threads=" << threads;
    QueryResult replayed = engine.Query(r, opt);
    ASSERT_EQ(replayed.stats.label_outcome, LabelOutcome::kHitMemory);
    ASSERT_EQ(replayed.topk.size(), recorded.topk.size());
    for (std::size_t pos = 0; pos < recorded.topk.size(); ++pos) {
      EXPECT_EQ(replayed.topk[pos].id, recorded.topk[pos].id);
      EXPECT_EQ(replayed.topk[pos].score, recorded.topk[pos].score);
    }
    EXPECT_EQ(recorded.best().score, best) << "threads=" << threads;
    EXPECT_EQ(replayed.stats.num_candidates, recorded.stats.num_candidates)
        << "threads=" << threads;
    EXPECT_EQ(replayed.stats.num_verified, recorded.stats.num_verified)
        << "threads=" << threads;
  }
}

// Labels recorded the way a plain query at r records them: Labeling-1/2
// in upper-bounding, Labeling-3 while verifying every object.
LabelSet RecordLabelsAt(const ObjectSet& set, double r) {
  BiGrid grid(set, r, set.IsPlanar());
  grid.Build();
  LabelSet labels = LabelSet::MakeAllOnes(set);
  labels.recorded_r = r;
  UpperBoundResult ub = UpperBounding(grid, 0, nullptr, &labels, nullptr);
  Verification(grid, ub, set.size(), nullptr, &labels, nullptr, nullptr);
  return labels;
}

// The recording seeds each candidate with its Lemma-1 union over the full
// grid, so a partner in that seed gets no kVerify witness. A replay at the
// recorded r seeds from the grid built with the recorded labels, so the
// two unions must be equal for every object: Labeling-1 clears kMap only
// on a point whose large-cell neighbourhood holds no other object, so no
// small cell shared by two objects loses a point. The same holds at every
// r' of the recorded ceil(r) class: two points sharing a small cell are
// within r' <= ceil(r), so inside that neighbourhood. Lower bounding uses
// these unions, so tau_low, the candidate queue's tie key, is the same
// with and without labels.
TEST(EngineLabelTest, RecordedLabelsKeepEveryLemma1Union) {
  // A dense cluster (shared small cells: non-empty seeds), scattered
  // loners (empty neighbourhoods: kMap-pruned points), and isolated twins:
  // two objects alone in their neighbourhood that share small cells, the
  // points Labeling-1 must keep.
  ObjectSet dense = testing::MakeRandomObjects(40, 10, 30, 12.0, 17, 1.0);
  const ObjectSet scattered =
      testing::MakeRandomObjects(20, 5, 10, 300.0, 18, 1.0);
  for (ObjectId i = 0; i < scattered.size(); ++i) {
    Object far = scattered[i];
    for (Point& p : far.points) p.x += 100.0;
    dense.Add(far);
    if (i % 2 == 1) {
      for (Point& p : far.points) p.x += 0.3;
      dense.Add(std::move(far));
    }
  }
  ObjectSet planar;
  for (const Object& o : dense.objects()) {
    Object flat = o;
    for (Point& p : flat.points) p.z = 0.0;
    planar.Add(std::move(flat));
  }
  ASSERT_TRUE(planar.IsPlanar());
  for (const ObjectSet* set : {&dense, &planar}) {
    // Each recorded r, then a second radius of its ceil(r) class.
    for (auto [r, used_r] : {std::pair{2.5, 2.5}, std::pair{2.5, 2.125},
                             std::pair{3.5, 3.5}, std::pair{3.5, 3.0625}}) {
      const LabelSet labels = RecordLabelsAt(*set, r);
      ASSERT_GT(labels.CountMapPruned(), 0u) << "r=" << r;
      BiGrid full(*set, used_r, set->IsPlanar());
      full.Build();
      BiGrid pruned(*set, used_r, set->IsPlanar());
      pruned.Build(&labels);
      PlainBitset want;
      PlainBitset got;
      std::size_t seeded = 0;
      for (ObjectId i = 0; i < set->size(); ++i) {
        SeedPartners(full, i, nullptr, &want);
        SeedPartners(pruned, i, nullptr, &got);
        EXPECT_TRUE(got == want) << "planar=" << set->IsPlanar() << " r=" << r
                                 << " used at " << used_r << " object " << i;
        seeded += want.Count() - 1;
      }
      EXPECT_GT(seeded, 0u) << "r=" << r << " used at " << used_r;
    }
  }
}

TEST(EngineEdgeTest, EmptyDataset) {
  ObjectSet empty;
  MioEngine engine(empty);
  QueryResult res = engine.Query(5.0);
  EXPECT_TRUE(res.topk.empty());
}

TEST(EngineEdgeTest, InvalidRadius) {
  ObjectSet set = testing::MakeRandomObjects(5, 2, 4, 10.0, 1);
  MioEngine engine(set);
  // 3e9 and 1e300: finite, and the lattice fits, but ceil(r) is past
  // INT32_MAX, so the label-class cast would be undefined.
  for (double r : {0.0, -3.0, std::numeric_limits<double>::quiet_NaN(),
                   std::numeric_limits<double>::infinity(),
                   -std::numeric_limits<double>::infinity(), 3e9, 1e300}) {
    QueryResult res = engine.Query(r);
    EXPECT_TRUE(res.topk.empty()) << r;
    EXPECT_EQ(res.status.code(), StatusCode::kInvalidArgument) << r;
    EXPECT_FALSE(engine.HasLabelsFor(r)) << r;
  }
  BatchResult batch = engine.QueryBatch({BatchQuery{3e9, QueryOptions{}}});
  EXPECT_EQ(batch.results[0].status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(batch.stats.classes, 0u);
}

// A deadline that cannot be armed is rejected; one past the clock's range
// is no deadline at all, not one that trips at the first poll.
TEST(EngineEdgeTest, DeadlineDomain) {
  ObjectSet set = testing::MakeRandomObjects(20, 2, 6, 10.0, 3);
  MioEngine engine(set);
  const double inf = std::numeric_limits<double>::infinity();
  for (double ms : {std::numeric_limits<double>::quiet_NaN(), inf, -inf}) {
    QueryOptions opt;
    opt.deadline_ms = ms;
    QueryResult res = engine.Query(4.0, opt);
    EXPECT_EQ(res.status.code(), StatusCode::kInvalidArgument) << ms;
    EXPECT_TRUE(res.topk.empty()) << ms;
    BatchResult batch = engine.QueryBatch({BatchQuery{4.0, opt}});
    EXPECT_EQ(batch.results[0].status.code(), StatusCode::kInvalidArgument)
        << ms;
    EXPECT_EQ(batch.stats.classes, 0u) << ms;
  }
  QueryOptions far;
  far.deadline_ms = 1e13;  // about 317 years
  QueryResult res = engine.Query(4.0, far);
  ASSERT_TRUE(res.status.ok()) << res.status.ToString();
  EXPECT_TRUE(res.complete);
  EXPECT_EQ(res.best().score,
            testing::MaxScore(testing::OracleScores(set, 4.0)));
}

// Cell keys are int32 lattice coordinates and neighbour enumeration adds
// ±1 to them: a radius whose small grid would overflow that lattice, or
// data with a non-finite coordinate, is rejected before any key is cast.
TEST(EngineEdgeTest, LatticeOverflowIsInvalidArgument) {
  ObjectSet far;
  far.Add(Object{{{1e12, -1e12, 5e11}, {1e12 + 1e-4, -1e12, 5e11}}, {}});
  far.Add(Object{{{1e12 + 5e-4, -1e12, 5e11}}, {}});
  MioEngine engine(far);
  QueryResult res = engine.Query(1e-3);
  EXPECT_EQ(res.status.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(res.topk.empty());
  EXPECT_FALSE(engine.HasLabelsFor(1e-3));
  BatchResult batch = engine.QueryBatch({BatchQuery{1e-3, {}}});
  EXPECT_EQ(batch.results[0].status.code(), StatusCode::kInvalidArgument);
  // A radius whose lattice fits is still answered.
  QueryResult ok = engine.Query(1e6);
  ASSERT_TRUE(ok.status.ok()) << ok.status.ToString();
  EXPECT_EQ(ok.best().score, 1u);

  for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity()}) {
    ObjectSet set;
    set.Add(Object{{{0.0, 0.0, 0.0}}, {}});
    set.Add(Object{{{1.0, bad, 0.0}}, {}});
    MioEngine nonfinite(set);
    EXPECT_EQ(nonfinite.Query(4.0).status.code(),
              StatusCode::kInvalidArgument)
        << bad;
    EXPECT_FALSE(nonfinite.HasLabelsFor(4.0)) << bad;
  }
}

TEST(EngineEdgeTest, SingleObjectScoresZero) {
  ObjectSet set = testing::MakeRandomObjects(1, 10, 10, 10.0, 2);
  MioEngine engine(set);
  QueryResult res = engine.Query(5.0);
  ASSERT_EQ(res.topk.size(), 1u);
  EXPECT_EQ(res.best().id, 0u);
  EXPECT_EQ(res.best().score, 0u);
}

TEST(EngineEdgeTest, NoInteractionsAnywhere) {
  // Objects spaced far beyond r: every score is 0; any id is acceptable.
  ObjectSet set;
  for (int i = 0; i < 10; ++i) {
    set.Add(Object{{{i * 1000.0, 0, 0}}, {}});
  }
  MioEngine engine(set);
  QueryResult res = engine.Query(5.0);
  ASSERT_FALSE(res.topk.empty());
  EXPECT_EQ(res.best().score, 0u);
}

TEST(EngineEdgeTest, EveryoneInteractsWithEveryone) {
  ObjectSet set = testing::MakeRandomObjects(20, 3, 5, 2.0, 3, 0.5);
  MioEngine engine(set);
  QueryResult res = engine.Query(50.0);
  EXPECT_EQ(res.best().score, 19u);
}

TEST(EngineEdgeTest, KLargerThanNClamps) {
  ObjectSet set = testing::MakeRandomObjects(5, 2, 4, 10.0, 4);
  QueryOptions opt;
  opt.k = 100;
  MioEngine engine(set);
  EXPECT_EQ(engine.Query(4.0, opt).topk.size(), 5u);
}

TEST(EngineEdgeTest, IdenticalObjectsTie) {
  Object proto{{{1, 1, 1}, {2, 2, 2}}, {}};
  ObjectSet set;
  set.Add(proto);
  set.Add(proto);
  set.Add(proto);
  MioEngine engine(set);
  QueryResult res = engine.Query(1.0);
  EXPECT_EQ(res.best().score, 2u);
}

TEST(EngineStatsTest, StatsAreConsistent) {
  ObjectSet set = testing::MakeRandomObjects(40, 5, 10, 25.0, 5);
  MioEngine engine(set);
  QueryOptions opt;
  opt.collect_compression_stats = true;
  QueryResult res = engine.Query(5.0, opt);
  const QueryStats& st = res.stats;
  EXPECT_GT(st.cells_small, 0u);
  EXPECT_GT(st.cells_large, 0u);
  EXPECT_GE(st.num_candidates, st.num_verified);
  EXPECT_GE(st.num_candidates, 1u);
  EXPECT_GT(st.index_memory_bytes, 0u);
  EXPECT_GT(st.compression.num_bitsets, 0u);
  EXPECT_GE(st.phases.Total(), 0.0);
  EXPECT_LE(st.phases.Total(), st.total_seconds + 1e-6);
}

TEST(EngineStatsTest, VerificationIsPrunedVsAllObjects) {
  // On clustered data the candidate set should be far smaller than n, and
  // verification should stop well before exhausting the queue.
  ObjectSet set = testing::MakeRandomObjects(200, 3, 6, 150.0, 6, 2.0);
  MioEngine engine(set);
  QueryResult res = engine.Query(4.0);
  EXPECT_LT(res.stats.num_verified, set.size());
}

TEST(EngineDeterminismTest, RepeatedQueriesIdentical) {
  ObjectSet set = testing::MakeRandomObjects(50, 4, 10, 30.0, 7);
  MioEngine engine(set);
  QueryResult a = engine.Query(5.0);
  QueryResult b = engine.Query(5.0);
  EXPECT_EQ(a.best().id, b.best().id);
  EXPECT_EQ(a.best().score, b.best().score);
}

}  // namespace
}  // namespace mio
