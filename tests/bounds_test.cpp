// The sandwich property: for every object, tau_low <= tau <= tau_upp
// (Lemmas 1 and 2), and the pruning theorem never discards the answer.
#include <gtest/gtest.h>

#include <ostream>

#include "core/bigrid.hpp"
#include "core/lower_bound.hpp"
#include "core/upper_bound.hpp"
#include "core/verification.hpp"
#include "obs/metrics.hpp"
#include "test_utils.hpp"

namespace mio {
namespace {

struct BoundsCase {
  std::size_t n;
  std::size_t m_min, m_max;
  double domain;
  double cluster_sigma;
  double r;
  std::uint64_t seed;
};

// Names the ctest entry after the case, not its raw bytes.
void PrintTo(const BoundsCase& c, std::ostream* os) {
  *os << "n=" << c.n << " m=" << c.m_min << ".." << c.m_max
      << " domain=" << c.domain << " sigma=" << c.cluster_sigma << " r=" << c.r
      << " seed=" << c.seed;
}

class BoundsTest : public ::testing::TestWithParam<BoundsCase> {};

TEST_P(BoundsTest, LowerAndUpperSandwichExactScores) {
  const BoundsCase& c = GetParam();
  ObjectSet set = testing::MakeRandomObjects(c.n, c.m_min, c.m_max, c.domain,
                                             c.seed, c.cluster_sigma);
  std::vector<std::uint32_t> exact = testing::OracleScores(set, c.r);

  BiGrid grid(set, c.r);
  grid.Build();
  LowerBoundResult lb = LowerBounding(grid, false);
  UpperBoundResult ub = UpperBounding(grid, 0, nullptr, nullptr, nullptr);

  for (ObjectId i = 0; i < set.size(); ++i) {
    EXPECT_LE(lb.tau_low[i], exact[i]) << "object " << i << " r=" << c.r;
    EXPECT_GE(ub.tau_upp[i], exact[i]) << "object " << i << " r=" << c.r;
  }
  EXPECT_EQ(lb.tau_low_max,
            *std::max_element(lb.tau_low.begin(), lb.tau_low.end()));
}

TEST_P(BoundsTest, PruningKeepsTheAnswer) {
  const BoundsCase& c = GetParam();
  ObjectSet set = testing::MakeRandomObjects(c.n, c.m_min, c.m_max, c.domain,
                                             c.seed, c.cluster_sigma);
  std::vector<std::uint32_t> exact = testing::OracleScores(set, c.r);
  std::uint32_t best = testing::MaxScore(exact);

  BiGrid grid(set, c.r);
  grid.Build();
  LowerBoundResult lb = LowerBounding(grid, false);
  UpperBoundResult ub =
      UpperBounding(grid, lb.tau_low_max, nullptr, nullptr, nullptr);

  // Theorem 2: every object with the best exact score must survive.
  for (ObjectId i = 0; i < set.size(); ++i) {
    if (exact[i] == best) {
      EXPECT_NE(std::find(ub.candidates.begin(), ub.candidates.end(), i),
                ub.candidates.end())
          << "answer pruned: object " << i;
    }
  }
  // Candidate queue is sorted by descending upper bound.
  for (std::size_t idx = 1; idx < ub.candidates.size(); ++idx) {
    EXPECT_GE(ub.tau_upp[ub.candidates[idx - 1]],
              ub.tau_upp[ub.candidates[idx]]);
  }
}

TEST_P(BoundsTest, ExactScoreMatchesOracleForAllCandidates) {
  const BoundsCase& c = GetParam();
  ObjectSet set = testing::MakeRandomObjects(c.n, c.m_min, c.m_max, c.domain,
                                             c.seed, c.cluster_sigma);
  std::vector<std::uint32_t> exact = testing::OracleScores(set, c.r);

  BiGrid grid(set, c.r);
  grid.Build();
  UpperBoundResult ub = UpperBounding(grid, 0, nullptr, nullptr, nullptr);
  for (ObjectId i = 0; i < set.size(); ++i) {
    EXPECT_EQ(ExactScore(grid, i, nullptr, nullptr, nullptr, nullptr),
              exact[i])
        << "object " << i;
  }
  (void)ub;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BoundsTest,
    ::testing::Values(
        BoundsCase{25, 5, 15, 25.0, 5.0, 4.0, 1},
        BoundsCase{25, 5, 15, 25.0, 5.0, 7.0, 1},
        BoundsCase{25, 5, 15, 25.0, 5.0, 10.0, 1},
        BoundsCase{40, 2, 6, 30.0, 3.0, 2.5, 2},   // fractional r
        BoundsCase{15, 20, 40, 12.0, 6.0, 1.0, 3}, // dense, small r
        BoundsCase{50, 3, 8, 300.0, 2.0, 5.0, 4},  // sparse
        BoundsCase{30, 4, 10, 18.0, 8.0, 0.7, 5},  // r < 1 (ceil = 1)
        BoundsCase{20, 5, 10, 20.0, 4.0, 6.0, 6}));

// Cell-major verification on a dense fixture: tight clouds (sigma 1)
// against width-4 cells put several points of one object in most large
// cells, so nearly every VerifyGroup call serves a multi-point group.
TEST(GroupedVerificationTest, DenseGroupsMatchOracleForEveryCandidate) {
  const double r = 3.5;
  ObjectSet set = testing::MakeRandomObjects(40, 20, 40, 20.0, 21, 1.0);
  std::vector<std::uint32_t> exact = testing::OracleScores(set, r);

  BiGrid grid(set, r);
  grid.Build();
  UpperBoundResult ub = UpperBounding(grid, 0, nullptr, nullptr, nullptr);
  ASSERT_FALSE(ub.candidates.empty());
  obs::ResetMetrics();
  VerifyArena arena;  // shared across candidates, like Verification does
  std::size_t comps = 0;
  for (ObjectId i : ub.candidates) {
    EXPECT_EQ(ExactScore(grid, i, nullptr, nullptr, nullptr, &comps, true,
                         nullptr, &arena),
              exact[i])
        << "object " << i;
  }
  EXPECT_GT(comps, 0u);
  obs::MetricsSnapshot m = obs::SnapshotMetrics();
  auto counter = [&m](obs::Counter c) {
    return m.counters[static_cast<std::size_t>(c)];
  };
  const std::uint64_t groups = counter(obs::Counter::kVerifyGroups);
  ASSERT_GT(groups, 0u);
  EXPECT_GE(counter(obs::Counter::kVerifyPoints), 2 * groups)
      << "fixture is not dense enough to exercise multi-point groups";
  EXPECT_LE(counter(obs::Counter::kVerifyCellProbes),
            groups * static_cast<std::uint64_t>(kNeighborhoodSize));
  EXPECT_GT(counter(obs::Counter::kVerifyPartnersConfirmed), 0u);
}

// Isolated single-point pairs at exactly distance r whose second point
// sits on the corner of a neighbouring large cell, so the face gap the
// per-cell reachability filter computes equals the true distance: axis,
// edge and corner neighbours, near the origin, at negative keys and far
// from it. The filter must keep every such point.
TEST(GroupedVerificationTest, ExactDistancePairsAcrossCellFacesMatchOracle) {
  struct Offset {
    double r;
    Point d;  // exact integer offset of length r
  };
  const Offset offsets[] = {{3.0, {3, 0, 0}}, {3.0, {0, 0, 3}},
                            {3.0, {1, 2, 2}}, {5.0, {3, 4, 0}},
                            {5.0, {0, 4, 3}}, {5.0, {5, 0, 0}}};
  for (const Offset& off : offsets) {
    const double w = LargeGridWidth(off.r);
    ObjectSet set;
    for (double f : {0.0, 3000.0, -6000.0, 3000000.0}) {
      // q is the lower corner of cell (f/w + 1, ...) on every axis the
      // offset moves along; p = q - d lies in the cell below.
      Point q{f + (off.d.x != 0 ? w : 0.5), f + (off.d.y != 0 ? w : 0.5),
              f + (off.d.z != 0 ? w : 0.5)};
      Point p{q.x - off.d.x, q.y - off.d.y, q.z - off.d.z};
      set.Add(Object{{p}, {}});
      set.Add(Object{{q}, {}});
    }
    std::vector<std::uint32_t> exact = testing::OracleScores(set, off.r);
    BiGrid grid(set, off.r);
    grid.Build();
    for (ObjectId i = 0; i < set.size(); ++i) {
      EXPECT_EQ(exact[i], 1u) << "fixture pair " << i << " r=" << off.r;
      EXPECT_EQ(ExactScore(grid, i, nullptr, nullptr, nullptr, nullptr),
                exact[i])
          << "object " << i << " r=" << off.r;
    }
  }
}

TEST(TopKTrackerTest, ThresholdAndReplacement) {
  TopKTracker t(2);
  EXPECT_EQ(t.Threshold(), -1);
  t.Offer(0, 5);
  EXPECT_EQ(t.Threshold(), -1);  // not full yet
  t.Offer(1, 3);
  EXPECT_EQ(t.Threshold(), 3);
  t.Offer(2, 4);  // replaces score-3 entry
  EXPECT_EQ(t.Threshold(), 4);
  t.Offer(3, 1);  // too low: ignored
  auto sorted = t.Sorted();
  ASSERT_EQ(sorted.size(), 2u);
  EXPECT_EQ(sorted[0].score, 5u);
  EXPECT_EQ(sorted[1].score, 4u);
}

TEST(TopKTrackerTest, TiesKeepIncumbent) {
  TopKTracker t(1);
  t.Offer(7, 5);
  t.Offer(9, 5);  // same score: incumbent stays (arbitrary tie-break)
  EXPECT_EQ(t.Sorted()[0].id, 7u);
}

TEST(SortCandidatesTest, DescendingWithIdTies) {
  std::vector<std::uint32_t> upp = {3, 9, 9, 1};
  std::vector<ObjectId> cand = {0, 1, 2, 3};
  SortCandidates(upp, &cand);
  EXPECT_EQ(cand, (std::vector<ObjectId>{1, 2, 0, 3}));
}

}  // namespace
}  // namespace mio
