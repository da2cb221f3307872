// The candidate queue's tie order (DESIGN.md "Tie order"): equal upper
// bounds are verified in descending Lemma-1 lower bound, then ascending
// id, on every path that builds a queue. On a tie run at tau* the winner
// is then the first candidate verified, and Corollary 1 stops at once.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "core/batch.hpp"
#include "core/bigrid.hpp"
#include "core/labels.hpp"
#include "core/lower_bound.hpp"
#include "core/mio_engine.hpp"
#include "core/temporal.hpp"
#include "core/upper_bound.hpp"
#include "core/verification.hpp"

namespace mio {
namespace {

// Two radii of one ceil(r) class (both have ceil = 3).
constexpr double kR = 2.5;
constexpr double kClassR = 2.125;
constexpr ObjectId kHub = 10;
constexpr std::uint32_t kHubScore = 8;

// A tie run at tau*. Eight spokes sit at the corners of a cube of edge
// 2.75 inside one large cell, so every cluster object has the upper bound
// 8, but two spokes are at least 2.6875 apart (> r) and interact only
// with the hub. The hub has a point in each spoke's small cell:
// tau_low(hub) = 8 = its score, tau_low(spoke) = 1 = its score. The hub
// has the highest id in the cluster, so an ascending-id tie order scores
// all eight spokes first. Loners far away, with ids on both sides, give a
// recording query points to clear kMap on. Every coordinate is a multiple
// of 1/16, so every distance test is exact.
ObjectSet MakeTieCluster(bool with_times) {
  ObjectSet set;
  auto add = [&](std::vector<Point> points) {
    Object o;
    o.points = std::move(points);
    if (with_times) o.times.assign(o.points.size(), 0.0);
    set.Add(std::move(o));
  };
  add({{100.125, 0.5, 0.5}, {100.25, 0.5, 0.5}});
  add({{0.5, 200.125, 0.5}});
  std::vector<Point> hub;
  for (int c = 0; c < 8; ++c) {
    auto at = [c](int axis, double lo, double hi) {
      return (c >> axis & 1) != 0 ? hi : lo;
    };
    const double x = at(0, 0.125, 2.875);
    const double y = at(1, 0.125, 2.875);
    const double z = at(2, 0.125, 2.875);
    add({{x, y, z}, {x, y, at(2, 0.1875, 2.8125)}});
    hub.push_back(Point{at(0, 0.25, 2.75), at(1, 0.25, 2.75),
                        at(2, 0.25, 2.75)});
  }
  add(std::move(hub));
  add({{-150.5, 0.5, 0.5}});
  return set;
}

void ExpectHubFirst(const QueryResult& res, const std::string& path) {
  SCOPED_TRACE(path);
  ASSERT_TRUE(res.status.ok()) << res.status.ToString();
  ASSERT_FALSE(res.topk.empty());
  EXPECT_EQ(res.best().id, kHub);
  EXPECT_EQ(res.best().score, kHubScore);
  EXPECT_EQ(res.stats.num_verified, 1u);
}

TEST(TieOrderTest, FixtureIsOneTieRunAtTauStar) {
  const ObjectSet set = MakeTieCluster(false);
  BiGrid grid(set, kR);
  grid.Build();
  LowerBoundResult lb = LowerBounding(grid, false);
  UpperBoundResult ub = UpperBounding(grid, 0, nullptr, nullptr, nullptr);
  EXPECT_EQ(lb.tau_low_max, kHubScore);
  for (ObjectId i = 2; i <= kHub; ++i) {
    EXPECT_EQ(ub.tau_upp[i], kHubScore) << i;
    EXPECT_EQ(lb.tau_low[i], i == kHub ? kHubScore : 1u) << i;
  }
}

TEST(TieOrderTest, EveryQueryPathVerifiesTheWinnerFirst) {
  const ObjectSet set = MakeTieCluster(false);
  {
    MioEngine engine(set);
    ExpectHubFirst(engine.Query(kR), "serial");
    ExpectHubFirst(engine.Query(kClassR), "serial, second radius");
  }
  for (int threads : {2, 4}) {
    for (UbStrategy ub : {UbStrategy::kCostBasedGreedy,
                          UbStrategy::kGreedyDivideObjects}) {
      for (LbStrategy lb : {LbStrategy::kGreedyDivideObjects,
                            LbStrategy::kHashPartitionPoints}) {
        MioEngine engine(set);
        QueryOptions opt;
        opt.threads = threads;
        opt.ub_strategy = ub;
        opt.lb_strategy = lb;
        ExpectHubFirst(engine.Query(kR, opt),
                       "threads=" + std::to_string(threads) +
                           " ub=" + std::to_string(static_cast<int>(ub)) +
                           " lb=" + std::to_string(static_cast<int>(lb)));
      }
    }
  }
  for (int threads : {1, 2}) {
    const std::string t = " threads=" + std::to_string(threads);
    MioEngine engine(set);
    QueryOptions opt;
    opt.threads = threads;
    opt.use_labels = true;
    opt.record_labels = true;
    QueryResult recorded = engine.Query(kR, opt);
    EXPECT_EQ(recorded.stats.label_outcome, LabelOutcome::kMissRecorded);
    EXPECT_GT(recorded.stats.points_pruned_by_labels, 0u);
    ExpectHubFirst(recorded, "labels recorded" + t);
    QueryResult used = engine.Query(kR, opt);
    EXPECT_EQ(used.stats.label_outcome, LabelOutcome::kHitMemory);
    ExpectHubFirst(used, "labels used at the recorded r" + t);
    QueryResult other = engine.Query(kClassR, opt);
    EXPECT_EQ(other.stats.label_outcome, LabelOutcome::kHitMemory);
    ExpectHubFirst(other, "labels used at a second r of the class" + t);
  }
  {
    MioEngine engine(set);
    QueryOptions opt;
    opt.reuse_grid = true;
    ExpectHubFirst(engine.Query(kR, opt), "reuse_grid, building");
    QueryResult reused = engine.Query(kR, opt);
    EXPECT_TRUE(reused.stats.reused_grid);
    ExpectHubFirst(reused, "reuse_grid, adopting");
  }
  {
    MioEngine engine(set);
    BatchResult batch = engine.QueryBatch(
        {BatchQuery{kR, {}}, BatchQuery{kClassR, {}}, BatchQuery{kR, {}}});
    ASSERT_EQ(batch.results.size(), 3u);
    for (const QueryResult& res : batch.results) {
      ExpectHubFirst(res, "QueryBatch");
    }
  }
}

// Ladder step 3 sheds the kept lower-bound unions; the queue order comes
// from lower bounding's tau_low either way.
TEST(TieOrderTest, MemoryLadderStepThreeKeepsTheOrder) {
  const ObjectSet set = MakeTieCluster(false);
  LabelSet labels = LabelSet::MakeAllOnes(set);
  {
    BiGrid grid(set, kR);
    grid.Build();
    UpperBounding(grid, 0, nullptr, &labels, nullptr);  // Labeling-1
  }
  BiGrid labelled(set, kR);
  labelled.Build(&labels);
  MioEngine engine(set);
  QueryOptions opt;
  opt.use_labels = true;
  opt.record_labels = true;
  ExpectHubFirst(engine.Query(kR, opt), "recording");
  opt.record_labels = false;
  opt.memory_budget_bytes = labelled.MemoryUsage().Total();
  QueryResult res = engine.Query(kR, opt);
  EXPECT_EQ(res.stats.degradation_level, 3);
  ExpectHubFirst(res, "ladder step 3");
}

// The phase sequence miobench's traced replay runs: no tau_low is passed,
// so upper bounding recomputes the candidates' bounds from the key lists.
TEST(TieOrderTest, PublicPhasesWithoutTauLowQueueTheSameOrder) {
  const ObjectSet set = MakeTieCluster(false);
  MioEngine engine(set);
  for (double r : {kR, kClassR}) {
    QueryResult want = engine.Query(r);
    QueryStats stats;
    BiGrid grid(set, r, set.IsPlanar());
    grid.Build();
    LowerBoundResult lb = LowerBounding(grid, false);
    UpperBoundResult ub =
        UpperBounding(grid, lb.tau_low_max, nullptr, nullptr, &stats);
    UpperBoundResult with_low = UpperBounding(grid, lb.tau_low_max, nullptr,
                                              nullptr, nullptr, nullptr,
                                              &lb.tau_low);
    EXPECT_EQ(ub.candidates, with_low.candidates) << "r=" << r;
    ASSERT_FALSE(ub.candidates.empty());
    EXPECT_EQ(ub.candidates.front(), kHub) << "r=" << r;
    std::vector<ScoredObject> topk =
        Verification(grid, ub, 1, nullptr, nullptr, nullptr, &stats);
    ASSERT_EQ(topk.size(), 1u);
    EXPECT_EQ(topk[0].id, want.best().id) << "r=" << r;
    EXPECT_EQ(topk[0].score, want.best().score) << "r=" << r;
    EXPECT_EQ(stats.num_verified, want.stats.num_verified) << "r=" << r;
    EXPECT_EQ(stats.num_verified, 1u) << "r=" << r;
  }
}

TEST(TieOrderTest, TemporalQueryVerifiesTheWinnerFirst) {
  const ObjectSet set = MakeTieCluster(true);
  for (double delta : {0.0, 1.0}) {
    QueryResult res = TemporalMioQuery(set, kR, delta);
    ExpectHubFirst(res, "temporal delta=" + std::to_string(delta));
    EXPECT_EQ(res.stats.num_candidates, 9u);
  }
}

}  // namespace
}  // namespace mio
