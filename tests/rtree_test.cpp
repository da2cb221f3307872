// R-tree substrate and the RT (MBR filter) baseline: structural tests,
// differential agreement with NL, and the dead-space property the paper
// uses to dismiss MBR indexing for point-set objects.
#include "rtree/rtree.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <set>

#include "baseline/rtree_mbr.hpp"
#include "test_utils.hpp"

namespace mio {
namespace {

std::vector<RTree::Entry> BoxesFor(const ObjectSet& set) {
  std::vector<RTree::Entry> entries;
  for (ObjectId i = 0; i < set.size(); ++i) {
    Aabb box;
    for (const Point& p : set[i].points) box.Extend(p);
    entries.push_back(RTree::Entry{box, i});
  }
  return entries;
}

TEST(RTreeTest, EmptyTree) {
  RTree tree({});
  EXPECT_TRUE(tree.empty());
  int visits = 0;
  Aabb probe;
  probe.Extend(Point{0, 0, 0});
  tree.ForEachWithin(probe, 100.0, [&](std::uint32_t) {
    ++visits;
    return true;
  });
  EXPECT_EQ(visits, 0);
}

TEST(RTreeTest, RangeProbeMatchesBruteForce) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    ObjectSet set = testing::MakeRandomObjects(200, 2, 6, 80.0, seed, 3.0);
    std::vector<RTree::Entry> entries = BoxesFor(set);
    RTree tree(entries, /*fanout=*/8);
    EXPECT_EQ(tree.size(), entries.size());

    Pcg32 rng(seed + 100);
    for (int q = 0; q < 20; ++q) {
      const RTree::Entry& probe = entries[rng.NextBounded(
          static_cast<std::uint32_t>(entries.size()))];
      double r = rng.NextDouble(0.5, 15.0);
      std::set<std::uint32_t> got;
      tree.ForEachWithin(probe.box, r, [&](std::uint32_t id) {
        got.insert(id);
        return true;
      });
      std::set<std::uint32_t> want;
      for (const RTree::Entry& e : entries) {
        if (e.box.MinSquaredDistanceTo(probe.box) <= r * r) want.insert(e.id);
      }
      EXPECT_EQ(got, want) << "seed=" << seed << " q=" << q;
    }
  }
}

TEST(RTreeTest, EarlyStopHonored) {
  ObjectSet set = testing::MakeRandomObjects(100, 2, 4, 10.0, 7, 2.0);
  RTree tree(BoxesFor(set));
  int visits = 0;
  tree.ForEachWithin(tree.Bounds(), 1e9, [&](std::uint32_t) {
    ++visits;
    return visits < 5;  // stop after 5
  });
  EXPECT_EQ(visits, 5);
}

TEST(RTreeTest, BoundsCoverAllEntries) {
  ObjectSet set = testing::MakeRandomObjects(50, 2, 6, 60.0, 8);
  std::vector<RTree::Entry> entries = BoxesFor(set);
  RTree tree(entries);
  for (const RTree::Entry& e : entries) {
    EXPECT_DOUBLE_EQ(tree.Bounds().MinSquaredDistanceTo(e.box), 0.0);
  }
  EXPECT_GT(tree.MemoryUsageBytes(), 0u);
}

TEST(RtreeMbrTest, ElongatedObjectsHaveMostlyEmptyMbrs) {
  // Long thin diagonal trajectories: each MBR is huge vs its content —
  // the paper's "uselessly large rectangles with large empty spaces".
  ObjectSet diagonal;
  Pcg32 rng(5);
  for (int i = 0; i < 30; ++i) {
    Object o;
    double x0 = rng.NextDouble(0, 100), y0 = rng.NextDouble(0, 100);
    for (int j = 0; j < 40; ++j) {
      o.points.push_back(Point{x0 + j * 2.0, y0 + j * 2.0, j * 2.0});
    }
    diagonal.Add(std::move(o));
  }
  EXPECT_GT(MbrEmptinessFraction(diagonal, 4.0), 0.9);

  // Compact blobs fill their MBRs far better.
  ObjectSet blobs = testing::MakeRandomObjects(30, 40, 40, 50.0, 6, 2.0);
  EXPECT_LT(MbrEmptinessFraction(blobs, 4.0),
            MbrEmptinessFraction(diagonal, 4.0));
}

struct RtCase {
  std::size_t n;
  double r;
  std::uint64_t seed;
};

// Names the ctest entry after the case, not its raw bytes.
void PrintTo(const RtCase& c, std::ostream* os) {
  *os << "n=" << c.n << " r=" << c.r << " seed=" << c.seed;
}

class RtreeMbrTest : public ::testing::TestWithParam<RtCase> {};

TEST_P(RtreeMbrTest, ScoresMatchNestedLoop) {
  const RtCase& c = GetParam();
  ObjectSet set = testing::MakeRandomObjects(c.n, 4, 10, 30.0, c.seed, 5.0);
  EXPECT_EQ(RtreeMbrScores(set, c.r), NestedLoopScores(set, c.r));
  EXPECT_EQ(RtreeMbrScores(set, c.r, /*threads=*/3),
            NestedLoopScores(set, c.r));
}

INSTANTIATE_TEST_SUITE_P(Sweep, RtreeMbrTest,
                         ::testing::Values(RtCase{30, 4.0, 1},
                                           RtCase{30, 10.0, 2},
                                           RtCase{60, 2.0, 3},
                                           RtCase{20, 0.5, 4}));

TEST(RtreeMbrTest, FilterStatsExposeUselessness) {
  // Crossing diagonal trajectories through a shared region: every MBR
  // covers most of the domain, so the filter passes nearly every pair
  // although few pairs actually interact at small r.
  ObjectSet set;
  Pcg32 rng(9);
  for (int i = 0; i < 40; ++i) {
    Object o;
    // Random rising/falling diagonal across a shared domain: every MBR
    // spans most of the space, but two trajectories meet (if at all) at
    // a single crossing where their z phases rarely coincide.
    double dir = rng.NextDouble() < 0.5 ? 1.0 : -1.0;
    double y0 = rng.NextDouble(0.0, 300.0);
    for (int j = 0; j < 30; ++j) {
      o.points.push_back(Point{j * 10.0, y0 + dir * j * 10.0, j * 3.0});
    }
    set.Add(std::move(o));
  }
  MbrFilterStats stats;
  RtreeMbrScores(set, 0.5, 1, &stats);
  EXPECT_EQ(stats.total_pairs, 40u * 39u / 2);
  EXPECT_GT(stats.PassRate(), 0.5);  // filter passes most pairs
  EXPECT_LT(stats.interacting_pairs, stats.candidate_pairs / 10);
}

TEST(RtreeMbrTest, QueryWinnerAgrees) {
  ObjectSet set = testing::MakeRandomObjects(40, 4, 8, 25.0, 10);
  std::vector<std::uint32_t> exact = testing::OracleScores(set, 5.0);
  QueryResult res = RtreeMbrQuery(set, 5.0);
  EXPECT_EQ(res.best().score, testing::MaxScore(exact));
}

}  // namespace
}  // namespace mio
