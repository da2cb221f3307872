// kd-tree differential tests against brute force, parameterised over
// dataset shapes (uniform, clustered, collinear — the degenerate cases
// trajectories produce).
#include "kdtree/kdtree.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <ostream>

#include "common/random.hpp"
#include "kdtree/closest_pair.hpp"
#include "test_utils.hpp"

namespace mio {
namespace {

std::vector<Point> UniformPoints(std::size_t n, double side,
                                 std::uint64_t seed) {
  Pcg32 rng(seed);
  std::vector<Point> pts;
  for (std::size_t i = 0; i < n; ++i) {
    pts.push_back(Point{rng.NextDouble(0, side), rng.NextDouble(0, side),
                        rng.NextDouble(0, side)});
  }
  return pts;
}

std::vector<Point> CollinearPoints(std::size_t n) {
  std::vector<Point> pts;
  for (std::size_t i = 0; i < n; ++i) {
    pts.push_back(Point{static_cast<double>(i), 2.0 * i, 0.0});
  }
  return pts;
}

TEST(KdTreeTest, EmptyTree) {
  KdTree tree({});
  EXPECT_TRUE(tree.empty());
  EXPECT_FALSE(tree.ContainsWithin(Point{0, 0, 0}, 100.0));
  EXPECT_TRUE(std::isinf(tree.NearestDistance(Point{0, 0, 0})));
}

TEST(KdTreeTest, SinglePoint) {
  KdTree tree({Point{1, 2, 3}});
  EXPECT_TRUE(tree.ContainsWithin(Point{1, 2, 3}, 0.0));
  EXPECT_TRUE(tree.ContainsWithin(Point{2, 2, 3}, 1.0));
  EXPECT_FALSE(tree.ContainsWithin(Point{3, 2, 3}, 1.0));
  EXPECT_DOUBLE_EQ(tree.NearestDistance(Point{1, 2, 7}), 4.0);
}

struct TreeCase {
  std::size_t n;
  int kind;  // 0 uniform, 1 clustered, 2 collinear
  std::uint64_t seed;
};

// Names the ctest entry after the case, not its raw bytes.
void PrintTo(const TreeCase& c, std::ostream* os) {
  static const char* const kKinds[] = {"uniform", "clustered", "collinear"};
  *os << "n=" << c.n << " kind=" << kKinds[c.kind] << " seed=" << c.seed;
}

class KdTreeParamTest : public ::testing::TestWithParam<TreeCase> {
 protected:
  std::vector<Point> MakePoints() const {
    const TreeCase& c = GetParam();
    switch (c.kind) {
      case 1: {
        ObjectSet set = testing::MakeRandomObjects(5, c.n / 5, c.n / 5, 40.0,
                                                   c.seed, 2.0);
        std::vector<Point> pts;
        for (const Object& o : set.objects()) {
          pts.insert(pts.end(), o.points.begin(), o.points.end());
        }
        return pts;
      }
      case 2:
        return CollinearPoints(c.n);
      default:
        return UniformPoints(c.n, 50.0, c.seed);
    }
  }
};

TEST_P(KdTreeParamTest, NearestMatchesBruteForce) {
  std::vector<Point> pts = MakePoints();
  KdTree tree(pts);
  Pcg32 rng(GetParam().seed + 99);
  for (int q = 0; q < 50; ++q) {
    Point query{rng.NextDouble(-10, 60), rng.NextDouble(-10, 60),
                rng.NextDouble(-10, 60)};
    double want = std::numeric_limits<double>::infinity();
    for (const Point& p : pts) want = std::min(want, Distance(p, query));
    EXPECT_NEAR(tree.NearestDistance(query), want, 1e-9);
  }
}

TEST_P(KdTreeParamTest, ContainsWithinMatchesBruteForce) {
  std::vector<Point> pts = MakePoints();
  KdTree tree(pts);
  Pcg32 rng(GetParam().seed + 7);
  for (int q = 0; q < 50; ++q) {
    Point query{rng.NextDouble(-10, 60), rng.NextDouble(-10, 60),
                rng.NextDouble(-10, 60)};
    double r = rng.NextDouble(0.1, 20.0);
    bool want = false;
    for (const Point& p : pts) {
      if (WithinDistance(p, query, r)) {
        want = true;
        break;
      }
    }
    EXPECT_EQ(tree.ContainsWithin(query, r), want);
  }
}

TEST_P(KdTreeParamTest, CollectWithinMatchesBruteForce) {
  std::vector<Point> pts = MakePoints();
  KdTree tree(pts);
  Pcg32 rng(GetParam().seed + 31);
  for (int q = 0; q < 20; ++q) {
    Point query{rng.NextDouble(0, 50), rng.NextDouble(0, 50),
                rng.NextDouble(0, 50)};
    double r = rng.NextDouble(1.0, 15.0);
    std::vector<std::uint32_t> got;
    tree.CollectWithin(query, r, &got);
    std::sort(got.begin(), got.end());
    std::vector<std::uint32_t> want;
    for (std::uint32_t i = 0; i < pts.size(); ++i) {
      if (WithinDistance(pts[i], query, r)) want.push_back(i);
    }
    EXPECT_EQ(got, want);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, KdTreeParamTest,
    ::testing::Values(TreeCase{100, 0, 1}, TreeCase{1000, 0, 2},
                      TreeCase{500, 1, 3}, TreeCase{100, 2, 4},
                      TreeCase{17, 0, 5},   // smaller than one leaf
                      TreeCase{16, 0, 6},   // exactly one leaf
                      TreeCase{2000, 1, 7}));

TEST(ClosestPairTest, MatchesBruteForce) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    ObjectSet set = testing::MakeRandomObjects(2, 50, 120, 30.0, seed, 4.0);
    const Object& a = set[0];
    const Object& b = set[1];
    KdTree tree_b(b.points);
    double got = MinDistanceBetween(a, tree_b);
    double want = MinDistanceBruteForce(a, b);
    EXPECT_NEAR(got, want, 1e-9) << "seed=" << seed;
  }
}

TEST(ClosestPairTest, IdenticalObjectsHaveZeroDistance) {
  ObjectSet set = testing::MakeRandomObjects(1, 30, 30, 10.0, 9);
  KdTree tree(set[0].points);
  EXPECT_DOUBLE_EQ(MinDistanceBetween(set[0], tree), 0.0);
}

TEST(KdTreeTest, MemoryAccountingIsPositive) {
  KdTree tree(UniformPoints(500, 10.0, 3));
  EXPECT_GT(tree.MemoryUsageBytes(), 500 * sizeof(Point));
}

}  // namespace
}  // namespace mio
