// Cross-implementation agreement: NL, NL-kd, SG and the theoretical
// algorithm must produce identical exact score vectors on any input.
#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <utility>
#include <vector>

#include "baseline/nested_loop.hpp"
#include "baseline/nl_kdtree.hpp"
#include "baseline/rtree_mbr.hpp"
#include "baseline/simple_grid.hpp"
#include "baseline/theoretical.hpp"
#include "test_utils.hpp"

namespace mio {
namespace {

struct AgreementCase {
  std::size_t n;
  std::size_t m_min, m_max;
  double domain;
  double r;
  std::uint64_t seed;
};

class BaselineAgreementTest : public ::testing::TestWithParam<AgreementCase> {
};

TEST_P(BaselineAgreementTest, AllBaselinesAgree) {
  const AgreementCase& c = GetParam();
  ObjectSet set =
      testing::MakeRandomObjects(c.n, c.m_min, c.m_max, c.domain, c.seed);
  std::vector<std::uint32_t> nl = NestedLoopScores(set, c.r);
  EXPECT_EQ(NlKdScores(set, c.r), nl);
  EXPECT_EQ(SimpleGridScores(set, c.r), nl);
  TheoreticalIndex theo(set);
  EXPECT_EQ(theo.Scores(c.r), nl);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BaselineAgreementTest,
    ::testing::Values(
        AgreementCase{30, 5, 15, 30.0, 4.0, 1},
        AgreementCase{30, 5, 15, 30.0, 10.0, 1},   // same data, larger r
        AgreementCase{50, 1, 3, 20.0, 2.0, 2},     // tiny objects
        AgreementCase{10, 40, 60, 15.0, 0.5, 3},   // dense, small r
        AgreementCase{40, 5, 10, 500.0, 4.0, 4},   // sparse: scores ~0
        AgreementCase{25, 5, 20, 25.0, 7.5, 5},    // fractional r
        AgreementCase{60, 2, 8, 40.0, 6.0, 6}));

TEST(NestedLoopTest, PairPredicateEarlyBreak) {
  Object a{{{0, 0, 0}, {100, 0, 0}}, {}};
  Object b{{{0.5, 0, 0}, {200, 0, 0}}, {}};
  std::size_t comps = 0;
  EXPECT_TRUE(ObjectsInteract(a, b, 1.0, &comps));
  EXPECT_EQ(comps, 1u);  // first pair hits; no further distances
  comps = 0;
  EXPECT_FALSE(ObjectsInteract(a, b, 0.1, &comps));
  EXPECT_EQ(comps, 4u);  // exhaustive when no pair is within r
}

TEST(NestedLoopTest, ScoresAreSymmetricCounts) {
  // Three collinear objects, spaced 5 apart: at r=5 each end interacts
  // with the middle, the middle with both.
  ObjectSet set;
  set.Add(Object{{{0, 0, 0}}, {}});
  set.Add(Object{{{5, 0, 0}}, {}});
  set.Add(Object{{{10, 0, 0}}, {}});
  std::vector<std::uint32_t> tau = NestedLoopScores(set, 5.0);
  EXPECT_EQ(tau, (std::vector<std::uint32_t>{1, 2, 1}));
  EXPECT_EQ(NestedLoopQuery(set, 5.0).best().id, 1u);
  EXPECT_EQ(NestedLoopQuery(set, 5.0).best().score, 2u);
}

TEST(NestedLoopTest, ParallelMatchesSerial) {
  ObjectSet set = testing::MakeRandomObjects(40, 5, 15, 30.0, 8);
  std::vector<std::uint32_t> serial = NestedLoopScores(set, 5.0, 1);
  for (int t : {2, 3, 4}) {
    EXPECT_EQ(NestedLoopScores(set, 5.0, t), serial) << "threads=" << t;
  }
}

TEST(SimpleGridTest, ParallelMatchesSerial) {
  ObjectSet set = testing::MakeRandomObjects(40, 5, 15, 30.0, 9);
  std::vector<std::uint32_t> serial = SimpleGridScores(set, 5.0, 1);
  for (int t : {2, 4}) {
    EXPECT_EQ(SimpleGridScores(set, 5.0, t), serial) << "threads=" << t;
  }
}

TEST(SimpleGridTest, ReportsGridMemory) {
  ObjectSet set = testing::MakeRandomObjects(20, 5, 10, 30.0, 10);
  std::size_t bytes = 0;
  SimpleGridScores(set, 5.0, 1, &bytes);
  EXPECT_GT(bytes, 0u);
}

TEST(TheoreticalTest, AnswersAnyRadiusAfterOnePreprocessing) {
  ObjectSet set = testing::MakeRandomObjects(25, 5, 10, 25.0, 11);
  TheoreticalIndex theo(set);
  EXPECT_GT(theo.preprocessing_seconds(), 0.0);
  for (double r : {1.0, 3.0, 5.0, 8.0, 20.0}) {
    EXPECT_EQ(theo.Scores(r), NestedLoopScores(set, r)) << "r=" << r;
  }
}

TEST(TheoreticalTest, MemoryIsQuadratic) {
  ObjectSet small = testing::MakeRandomObjects(20, 3, 3, 30.0, 12);
  ObjectSet large = testing::MakeRandomObjects(80, 3, 3, 30.0, 12);
  TheoreticalIndex ts(small), tl(large);
  // 4x the objects -> ~16x the array bytes.
  EXPECT_GT(tl.MemoryUsageBytes(), 10 * ts.MemoryUsageBytes());
}

// Every baseline shares the engine's query domain (CheckQueryDomain): an
// out-of-domain radius or a non-finite coordinate is kInvalidArgument with
// an empty answer — not an all-zero ranking with an OK status, and for SG
// at r = 1e-300 not an int32 cell-key overflow that never finishes.
TEST(BaselineDomainTest, OutOfDomainInputIsInvalidArgument) {
  using Run = std::function<QueryResult(const ObjectSet&, double)>;
  const std::vector<std::pair<const char*, Run>> baselines = {
      {"nl", [](const ObjectSet& s, double r) { return NestedLoopQuery(s, r); }},
      {"nl-kd", [](const ObjectSet& s, double r) { return NlKdQuery(s, r); }},
      {"sg", [](const ObjectSet& s, double r) { return SimpleGridQuery(s, r); }},
      {"rt", [](const ObjectSet& s, double r) { return RtreeMbrQuery(s, r); }},
      {"theoretical",
       [](const ObjectSet& s, double r) { return TheoreticalIndex(s).Query(r); }},
  };
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  ObjectSet set = testing::MakeRandomObjects(12, 3, 6, 20.0, 5);
  ObjectSet nonfinite = set;
  nonfinite.Add(Object{{{1.0, nan, 0.0}}, {}});
  for (const auto& [name, run] : baselines) {
    for (double r : {nan, -1.0, 0.0, inf}) {
      QueryResult res = run(set, r);
      EXPECT_EQ(res.status.code(), StatusCode::kInvalidArgument)
          << name << " r=" << r;
      EXPECT_TRUE(res.topk.empty()) << name << " r=" << r;
    }
    EXPECT_EQ(run(nonfinite, 4.0).status.code(), StatusCode::kInvalidArgument)
        << name;
    QueryResult ok = run(set, 4.0);
    EXPECT_TRUE(ok.status.ok()) << name << ": " << ok.status.ToString();
    EXPECT_FALSE(ok.topk.empty()) << name;
  }
  // SG maps every point into a width-r grid.
  EXPECT_EQ(SimpleGridQuery(set, 1e-300).status.code(),
            StatusCode::kInvalidArgument);
}

TEST(TopKFromScoresTest, OrderingAndTies) {
  std::vector<std::uint32_t> scores = {5, 9, 9, 1, 7};
  auto top3 = TopKFromScores(scores, 3);
  ASSERT_EQ(top3.size(), 3u);
  EXPECT_EQ(top3[0].id, 1u);  // tie with 2 broken by lower id
  EXPECT_EQ(top3[1].id, 2u);
  EXPECT_EQ(top3[2].id, 4u);
  auto all = TopKFromScores(scores, 100);  // k > n clamps
  EXPECT_EQ(all.size(), 5u);
  auto top1 = TopKFromScores(scores, 0);  // k = 0 behaves as 1
  EXPECT_EQ(top1.size(), 1u);
}

}  // namespace
}  // namespace mio
