// Temporal MIO (Appendix B) against its brute-force oracle, including the
// delta = 0 special case.
#include "core/temporal.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "test_utils.hpp"

namespace mio {
namespace {

struct TemporalCase {
  double r;
  double delta;
  double time_span;
  std::uint64_t seed;
};

class TemporalOracleTest : public ::testing::TestWithParam<TemporalCase> {};

TEST_P(TemporalOracleTest, MatchesBruteForce) {
  const TemporalCase& c = GetParam();
  ObjectSet set = testing::MakeRandomObjects(30, 4, 10, 25.0, c.seed, 5.0,
                                             /*with_times=*/true, c.time_span);
  std::vector<std::uint32_t> exact =
      TemporalBruteForceScores(set, c.r, c.delta);
  std::uint32_t best = testing::MaxScore(exact);

  QueryResult res = TemporalMioQuery(set, c.r, c.delta);
  ASSERT_FALSE(res.topk.empty());
  EXPECT_EQ(res.best().score, best);
  EXPECT_EQ(exact[res.best().id], best);
}

TEST_P(TemporalOracleTest, TopKMatchesBruteForce) {
  const TemporalCase& c = GetParam();
  ObjectSet set = testing::MakeRandomObjects(30, 4, 10, 25.0, c.seed + 50, 5.0,
                                             true, c.time_span);
  std::vector<std::uint32_t> exact =
      TemporalBruteForceScores(set, c.r, c.delta);
  std::vector<ScoredObject> want = TopKFromScores(exact, 4);

  QueryResult res = TemporalMioQuery(set, c.r, c.delta, 4);
  ASSERT_EQ(res.topk.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(res.topk[i].score, want[i].score) << "pos " << i;
    EXPECT_EQ(exact[res.topk[i].id], res.topk[i].score);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TemporalOracleTest,
    ::testing::Values(
        TemporalCase{4.0, 10.0, 100.0, 1},   // loose time constraint
        TemporalCase{4.0, 2.0, 100.0, 2},    // tight time constraint
        TemporalCase{8.0, 5.0, 50.0, 3},
        TemporalCase{4.0, 200.0, 100.0, 4},  // delta covers everything
        TemporalCase{2.0, 0.5, 20.0, 5}));   // very tight

TEST(TemporalTest, DeltaZeroRequiresExactTimestampMatch) {
  // Two objects at the same place; times match only between 0 and 1.
  ObjectSet set;
  set.Add(Object{{{0, 0, 0}, {1, 0, 0}}, {1.0, 2.0}});
  set.Add(Object{{{0.1, 0, 0}, {1.1, 0, 0}}, {1.0, 5.0}});
  set.Add(Object{{{0.2, 0, 0}}, {9.0}});  // right place, wrong time

  std::vector<std::uint32_t> exact = TemporalBruteForceScores(set, 1.0, 0.0);
  EXPECT_EQ(exact, (std::vector<std::uint32_t>{1, 1, 0}));

  QueryResult res = TemporalMioQuery(set, 1.0, 0.0);
  EXPECT_EQ(res.best().score, 1u);
}

TEST(TemporalTest, DeltaZeroAgainstOracleRandomised) {
  // Coarse timestamps so exact collisions actually occur.
  ObjectSet base = testing::MakeRandomObjects(20, 4, 8, 15.0, 7, 4.0, true, 5.0);
  ObjectSet set;
  for (const Object& o : base.objects()) {
    Object copy = o;
    for (double& t : copy.times) t = std::floor(t);  // times in {0..4}
    set.Add(std::move(copy));
  }
  std::vector<std::uint32_t> exact = TemporalBruteForceScores(set, 5.0, 0.0);
  QueryResult res = TemporalMioQuery(set, 5.0, 0.0);
  EXPECT_EQ(res.best().score, testing::MaxScore(exact));
}

TEST(TemporalTest, LargeDeltaEqualsSpatialQuery) {
  // With delta >= time span, the temporal query degenerates to plain MIO.
  ObjectSet set = testing::MakeRandomObjects(25, 4, 8, 20.0, 8, 4.0, true, 10.0);
  std::vector<std::uint32_t> spatial = testing::OracleScores(set, 5.0);
  QueryResult res = TemporalMioQuery(set, 5.0, 1000.0);
  EXPECT_EQ(res.best().score, testing::MaxScore(spatial));
}

TEST(TemporalTest, EdgeCases) {
  ObjectSet empty;
  EXPECT_TRUE(TemporalMioQuery(empty, 5.0, 1.0).topk.empty());
  EXPECT_TRUE(TemporalMioQuery(empty, 5.0, 1.0).status.ok());

  // Out-of-domain r and delta are rejected before any key is cast.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  ObjectSet set = testing::MakeRandomObjects(5, 3, 5, 10.0, 9, 2.0, true, 10.0);
  for (auto [r, delta] : std::vector<std::pair<double, double>>{
           {-1.0, 1.0}, {0.0, 1.0}, {nan, 1.0}, {inf, 1.0}, {1e-300, 1.0},
           {5.0, -1.0}, {5.0, nan}, {5.0, inf}, {5.0, 1e-300}}) {
    QueryResult res = TemporalMioQuery(set, r, delta);
    EXPECT_EQ(res.status.code(), StatusCode::kInvalidArgument)
        << "r=" << r << " delta=" << delta;
    EXPECT_TRUE(res.topk.empty()) << "r=" << r << " delta=" << delta;
  }
  EXPECT_TRUE(TemporalMioQuery(set, 5.0, 0.0).status.ok());

  // Times must be one finite value per point: an untimestamped set (every
  // generated preset), a short times vector and a NaN time are rejected.
  ObjectSet untimed = testing::MakeRandomObjects(5, 3, 5, 10.0, 9);
  for (double delta : {0.0, 5.0}) {
    EXPECT_EQ(TemporalMioQuery(untimed, 4.0, delta).status.code(),
              StatusCode::kInvalidArgument)
        << delta;
  }
  ObjectSet short_times;
  short_times.Add(Object{{{0, 0, 0}, {1, 0, 0}}, {1.0}});
  EXPECT_EQ(TemporalMioQuery(short_times, 4.0, 1.0).status.code(),
            StatusCode::kInvalidArgument);
  ObjectSet nan_time;
  nan_time.Add(Object{{{0, 0, 0}}, {nan}});
  EXPECT_EQ(TemporalMioQuery(nan_time, 4.0, 0.0).status.code(),
            StatusCode::kInvalidArgument);
  // Single object: score zero.
  ObjectSet one;
  one.Add(Object{{{0, 0, 0}}, {1.0}});
  QueryResult res = TemporalMioQuery(one, 5.0, 1.0);
  ASSERT_EQ(res.topk.size(), 1u);
  EXPECT_EQ(res.best().score, 0u);
}

TEST(TemporalTest, StatsPopulated) {
  ObjectSet set = testing::MakeRandomObjects(30, 4, 8, 20.0, 10, 4.0, true, 50.0);
  QueryResult res = TemporalMioQuery(set, 5.0, 10.0);
  EXPECT_GT(res.stats.cells_small, 0u);
  EXPECT_GT(res.stats.cells_large, 0u);
  EXPECT_GE(res.stats.num_candidates, res.stats.num_verified);
}

}  // namespace
}  // namespace mio
