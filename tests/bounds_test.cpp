// The sandwich property: for every object, tau_low <= tau <= tau_upp
// (Lemmas 1 and 2), and the pruning theorem never discards the answer.
#include <gtest/gtest.h>

#include <ostream>
#include <set>

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

// ExactScore with the tracker's threshold T, for every object and T in
// {-1, exact - 1, exact, exact + 1}: above T the score is exact and the
// scan does the unthresholded scan's work; at or below T the value is at
// most T. Only a ruled-out object lowers confirmed + undecided, so an
// object with two or more to rule out reaches T = exact + 1 one disproof
// before the last: that scan must stop after deciding some objects, with
// fewer distance computations. (The sparse case has no such object.)
TEST_P(BoundsTest, ThresholdedExactScoreIsExactAboveTheThreshold) {
  const BoundsCase& c = GetParam();
  ObjectSet set = testing::MakeRandomObjects(c.n, c.m_min, c.m_max, c.domain,
                                             c.seed, c.cluster_sigma);
  std::vector<std::uint32_t> exact = testing::OracleScores(set, c.r);

  BiGrid grid(set, c.r);
  grid.Build();
  VerifyArena arena;
  auto counter = [](obs::Counter k) {
    return obs::SnapshotMetrics().counters[static_cast<std::size_t>(k)];
  };
  for (ObjectId i = 0; i < set.size(); ++i) {
    obs::ResetMetrics();
    std::size_t full = 0;
    ASSERT_EQ(ExactScore(grid, i, nullptr, nullptr, nullptr, &full, true,
                         nullptr, &arena),
              exact[i]);
    const std::uint64_t ruled_out =
        counter(obs::Counter::kVerifyObjectsDecided) -
        counter(obs::Counter::kVerifyPartnersConfirmed);
    const long long e = exact[i];
    for (long long t : {-1LL, e - 1, e, e + 1}) {
      obs::ResetMetrics();
      std::size_t comps = 0;
      bool stopped = false;
      const std::uint32_t got =
          ExactScore(grid, i, nullptr, nullptr, nullptr, &comps, true,
                     nullptr, &arena, t, &stopped);
      EXPECT_EQ(counter(obs::Counter::kVerifyStops), stopped ? 1u : 0u);
      if (e > t) {
        EXPECT_EQ(got, exact[i]) << "object " << i << " T=" << t;
        EXPECT_FALSE(stopped) << "object " << i << " T=" << t;
        EXPECT_EQ(comps, full) << "object " << i << " T=" << t;
        continue;
      }
      EXPECT_LE(static_cast<long long>(got), t)
          << "object " << i << " T=" << t;
      EXPECT_LE(comps, full) << "object " << i << " T=" << t;
      if (t == e + 1 && ruled_out >= 2) {
        EXPECT_TRUE(stopped) << "object " << i;
        EXPECT_GT(counter(obs::Counter::kVerifyObjectsDecided), 0u)
            << "object " << i;
        EXPECT_LT(comps, full) << "object " << i;
      }
    }
  }
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

// Object-major verification on a dense fixture: tight clouds (sigma 1)
// against width-4 cells put several points of one object in most large
// cells, so most reachable cells hold a run of several points. Without a
// threshold every candidate's points are verified, no scan stops, and
// every partner the seed misses is confirmed exactly once.
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
  std::uint64_t points = 0;
  std::uint64_t cells = 0;
  std::uint64_t unseeded = 0;
  std::uint64_t others = 0;
  for (ObjectId i : ub.candidates) {
    EXPECT_EQ(ExactScore(grid, i, nullptr, nullptr, nullptr, &comps, true,
                         nullptr, &arena),
              exact[i])
        << "object " << i;
    std::set<std::uint32_t> own;
    for (std::size_t j = 0; j < set[i].points.size(); ++j) {
      own.insert(grid.LargeCellOf(i, j));
    }
    points += set[i].points.size();
    cells += own.size();
    PlainBitset seed;
    SeedPartners(grid, i, nullptr, &seed);
    unseeded += exact[i] - (seed.Count() - 1);
    others += set.size() - seed.Count();
  }
  EXPECT_GT(comps, 0u);
  EXPECT_GE(points, 2 * cells)
      << "fixture is not dense enough to put several points in one cell";
  obs::MetricsSnapshot m = obs::SnapshotMetrics();
  auto counter = [&m](obs::Counter c) {
    return m.counters[static_cast<std::size_t>(c)];
  };
  EXPECT_EQ(counter(obs::Counter::kVerifyPoints), points);
  EXPECT_EQ(counter(obs::Counter::kVerifyPartnersConfirmed), unseeded);
  EXPECT_GT(unseeded, 0u);
  // Decided: the confirmed partners plus at least one ruled-out object,
  // and never an object the seed already holds.
  EXPECT_GT(counter(obs::Counter::kVerifyObjectsDecided), unseeded);
  EXPECT_LE(counter(obs::Counter::kVerifyObjectsDecided), others);
  EXPECT_EQ(counter(obs::Counter::kVerifyStops), 0u);
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

// Descending upper bound, then descending lower bound, then ascending id.
TEST(SortCandidatesTest, DescendingWithIdTies) {
  std::vector<std::uint32_t> upp = {3, 9, 9, 1, 9, 3};
  std::vector<std::uint32_t> low = {2, 4, 4, 0, 1, 2};
  std::vector<ObjectId> cand = {5, 4, 3, 2, 1, 0};
  SortCandidates(upp, low, &cand);
  EXPECT_EQ(cand, (std::vector<ObjectId>{1, 2, 4, 0, 5, 3}));
}

// A higher lower bound goes first among equal upper bounds, whatever the
// ids: here the larger id.
TEST(SortCandidatesTest, LowerBoundOrdersEqualUpperBounds) {
  std::vector<std::uint32_t> upp = {7, 7};
  std::vector<std::uint32_t> low = {2, 5};
  std::vector<ObjectId> cand = {0, 1};
  SortCandidates(upp, low, &cand);
  EXPECT_EQ(cand, (std::vector<ObjectId>{1, 0}));
}

// The fixture of the recorded-label tests: clustered objects with several
// points per large cell, plus one object far from everything, alone in
// its neighbourhood.
ObjectSet LabelFixture() {
  ObjectSet set = testing::MakeRandomObjects(40, 6, 16, 20.0, 17, 1.5);
  Object alone;
  for (int j = 0; j < 5; ++j) {
    alone.points.push_back(Point{500.2 + 0.1 * j, 500.5, 500.5});
  }
  set.Add(std::move(alone));
  return set;
}

// Algorithm 5 with Labeling-1/2, one OR per point, over the public
// EnsureAdj: the reference the recorded labels must equal byte for byte.
LabelSet PerPointUpperLabels(const ObjectSet& set, double r,
                             std::vector<std::uint32_t>* tau_upp) {
  BiGrid grid(set, r);
  grid.Build();
  LabelSet labels = LabelSet::MakeAllOnes(set);
  tau_upp->assign(set.size(), 0);
  for (ObjectId i = 0; i < set.size(); ++i) {
    PlainBitset acc;
    std::size_t acc_count = 0;
    for (std::size_t j = 0; j < set[i].points.size(); ++j) {
      LargeCell& cell = grid.EnsureAdj(grid.LargeCellOf(i, j));
      if (cell.adj_count == 1) {
        labels.labels[i][j] &= static_cast<std::uint8_t>(~label::kMap);
        continue;
      }
      acc.OrWith(cell.adj.ToPlain());
      if (acc.Count() == acc_count) {
        labels.labels[i][j] &= static_cast<std::uint8_t>(~label::kUpper);
      }
      acc_count = acc.Count();
    }
    (*tau_upp)[i] =
        acc_count > 0 ? static_cast<std::uint32_t>(acc_count - 1) : 0;
  }
  return labels;
}

TEST(RecordedLabelsTest, UpperBoundingLabelsMatchPerPointLoop) {
  const ObjectSet set = LabelFixture();
  const ObjectId alone = static_cast<ObjectId>(set.size() - 1);
  for (double r : {1.5, 2.5, 4.0}) {
    std::vector<std::uint32_t> want_upp;
    const LabelSet want = PerPointUpperLabels(set, r, &want_upp);

    BiGrid grid(set, r);
    grid.Build();
    LabelSet got = LabelSet::MakeAllOnes(set);
    UpperBoundResult ub = UpperBounding(grid, 0, nullptr, &got, nullptr);
    EXPECT_EQ(got.labels, want.labels) << "r=" << r;
    EXPECT_EQ(ub.tau_upp, want_upp) << "r=" << r;

    // The fixture exercises every outcome: the lone object's points all
    // clear kMap, and repeated cells clear kUpper.
    for (std::uint8_t l : got.labels[alone]) {
      EXPECT_EQ(l, label::kAll & ~label::kMap) << "r=" << r;
    }
    std::size_t upper_cleared = 0;
    for (const auto& object : got.labels) {
      for (std::uint8_t l : object) {
        if ((l & label::kMap) != 0 && (l & label::kUpper) == 0) {
          ++upper_cleared;
        }
      }
    }
    EXPECT_GT(upper_cleared, set.size()) << "r=" << r;
  }
}

TEST(RecordedLabelsTest, KeptLowerBoundBitsetsAreOrFolds) {
  const ObjectSet set = LabelFixture();
  BiGrid grid(set, 2.5);
  grid.Build();
  LowerBoundResult lb = LowerBounding(grid, /*keep_bitsets=*/true);
  ASSERT_EQ(lb.lb_bitsets.size(), set.size());
  for (ObjectId i = 0; i < set.size(); ++i) {
    Ewah fold;
    for (std::uint32_t id : grid.KeyList(i)) {
      fold = Ewah::Or(fold, grid.SmallCellAt(id).bits);
    }
    EXPECT_EQ(lb.lb_bitsets[i].buffer(), fold.buffer()) << "object " << i;
    EXPECT_EQ(lb.lb_bitsets[i].SizeInBits(), fold.SizeInBits());
    const std::size_t count = fold.Count();
    EXPECT_EQ(lb.tau_low[i], count > 0 ? count - 1 : 0) << "object " << i;
  }
}

}  // namespace
}  // namespace mio
