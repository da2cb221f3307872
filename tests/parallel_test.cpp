// Parallel phases must agree with the serial pipeline for every strategy
// and thread count, label mode included.
#include <gtest/gtest.h>

#include <ostream>

#include "core/bigrid.hpp"
#include "core/lower_bound.hpp"
#include "core/mio_engine.hpp"
#include "core/parallel_phases.hpp"
#include "core/partition.hpp"
#include "core/upper_bound.hpp"
#include "test_utils.hpp"

namespace mio {
namespace {

TEST(GreedyAssignTest, BalancesUniformWeights) {
  std::vector<std::uint64_t> weights(100, 5);
  std::vector<int> assign = GreedyAssign(weights, 4);
  PartitionQuality q = EvaluatePartition(weights, assign, 4);
  EXPECT_EQ(q.max_load, q.min_load);  // perfectly balanced
  EXPECT_DOUBLE_EQ(q.imbalance, 0.0);
}

TEST(GreedyAssignTest, HandlesSkewReasonably) {
  // One huge item plus many small ones: greedy puts the huge one alone.
  std::vector<std::uint64_t> weights = {1000};
  for (int i = 0; i < 50; ++i) weights.push_back(10);
  std::vector<int> assign = GreedyAssign(weights, 4);
  int huge_part = assign[0];
  std::uint64_t huge_part_rest = 0;
  for (std::size_t i = 1; i < weights.size(); ++i) {
    if (assign[i] == huge_part) huge_part_rest += weights[i];
  }
  EXPECT_LE(huge_part_rest, 20u);  // almost nothing shares its core
}

TEST(GreedyAssignTest, SinglePartTrivial) {
  std::vector<std::uint64_t> weights = {3, 1, 4};
  EXPECT_EQ(GreedyAssign(weights, 1), (std::vector<int>{0, 0, 0}));
  EXPECT_FALSE(EvaluatePartition(weights, GreedyAssign(weights, 1), 1)
                   .ToString()
                   .empty());
}

struct ParallelCase {
  int threads;
  double r;
  std::uint64_t seed;
};

// Names the ctest entry after the case, not its raw bytes.
void PrintTo(const ParallelCase& c, std::ostream* os) {
  *os << "threads=" << c.threads << " r=" << c.r << " seed=" << c.seed;
}

class ParallelPhaseTest : public ::testing::TestWithParam<ParallelCase> {
 protected:
  ObjectSet MakeSet() const {
    return testing::MakeRandomObjects(50, 4, 12, 30.0, GetParam().seed, 5.0);
  }
};

TEST_P(ParallelPhaseTest, LowerBoundingStrategiesMatchSerial) {
  const ParallelCase& c = GetParam();
  ObjectSet set = MakeSet();
  BiGrid grid(set, c.r);
  grid.Build();

  LowerBoundResult serial = LowerBounding(grid, true);
  for (LbStrategy strategy : {LbStrategy::kGreedyDivideObjects,
                              LbStrategy::kHashPartitionPoints}) {
    LowerBoundResult par =
        ParallelLowerBounding(grid, strategy, c.threads, true);
    EXPECT_EQ(par.tau_low, serial.tau_low);
    EXPECT_EQ(par.tau_low_max, serial.tau_low_max);
    for (ObjectId i = 0; i < set.size(); ++i) {
      EXPECT_TRUE(par.lb_bitsets[i] == serial.lb_bitsets[i]) << i;
    }
  }
}

TEST_P(ParallelPhaseTest, UpperBoundingStrategiesMatchSerial) {
  const ParallelCase& c = GetParam();
  ObjectSet set = MakeSet();

  BiGrid sgrid(set, c.r);
  sgrid.Build();
  UpperBoundResult serial = UpperBounding(sgrid, 0, nullptr, nullptr, nullptr);

  for (UbStrategy strategy :
       {UbStrategy::kCostBasedGreedy, UbStrategy::kGreedyDivideObjects}) {
    BiGrid pgrid(set, c.r);
    pgrid.BuildParallel(c.threads);
    UpperBoundResult par = ParallelUpperBounding(
        pgrid, 0, strategy, c.threads, nullptr, nullptr, nullptr);
    EXPECT_EQ(par.tau_upp, serial.tau_upp)
        << "strategy=" << static_cast<int>(strategy);
  }
}

TEST_P(ParallelPhaseTest, FullParallelQueryMatchesSerial) {
  const ParallelCase& c = GetParam();
  ObjectSet set = MakeSet();
  std::vector<std::uint32_t> exact = testing::OracleScores(set, c.r);
  std::uint32_t best = testing::MaxScore(exact);

  for (UbStrategy ub : {UbStrategy::kCostBasedGreedy,
                        UbStrategy::kGreedyDivideObjects}) {
    for (LbStrategy lb : {LbStrategy::kGreedyDivideObjects,
                          LbStrategy::kHashPartitionPoints}) {
      QueryOptions opt;
      opt.threads = c.threads;
      opt.lb_strategy = lb;
      opt.ub_strategy = ub;
      MioEngine engine(set);
      QueryResult res = engine.Query(c.r, opt);
      ASSERT_FALSE(res.topk.empty());
      EXPECT_EQ(res.best().score, best);
      EXPECT_EQ(exact[res.best().id], best);
    }
  }
}

TEST_P(ParallelPhaseTest, ParallelTopKMatchesOracle) {
  const ParallelCase& c = GetParam();
  ObjectSet set = MakeSet();
  std::vector<std::uint32_t> exact = testing::OracleScores(set, c.r);
  std::vector<ScoredObject> want = TopKFromScores(exact, 5);

  QueryOptions opt;
  opt.threads = c.threads;
  opt.k = 5;
  MioEngine engine(set);
  QueryResult res = engine.Query(c.r, opt);
  ASSERT_EQ(res.topk.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(res.topk[i].score, want[i].score) << "pos " << i;
    EXPECT_EQ(exact[res.topk[i].id], res.topk[i].score);
  }
}

TEST_P(ParallelPhaseTest, ParallelLabelRunsMatchOracle) {
  const ParallelCase& c = GetParam();
  ObjectSet set = MakeSet();
  std::vector<std::uint32_t> exact = testing::OracleScores(set, c.r);
  std::uint32_t best = testing::MaxScore(exact);

  QueryOptions opt;
  opt.threads = c.threads;
  opt.record_labels = true;
  opt.use_labels = true;
  MioEngine engine(set);
  QueryResult first = engine.Query(c.r, opt);
  QueryResult second = engine.Query(c.r, opt);
  EXPECT_EQ(first.best().score, best);
  EXPECT_EQ(second.best().score, best);
  EXPECT_EQ(exact[second.best().id], best);
}

INSTANTIATE_TEST_SUITE_P(
    ThreadsAndRadii, ParallelPhaseTest,
    ::testing::Values(ParallelCase{2, 4.0, 1}, ParallelCase{2, 8.0, 2},
                      ParallelCase{3, 5.5, 3}, ParallelCase{4, 4.0, 4},
                      ParallelCase{4, 10.0, 5}, ParallelCase{8, 6.0, 6}));

// Dense fixture (sigma 1, r 3.5): most large cells hold several points
// of one object, so most reachable cells hold a run of several candidate
// points. Cores split each candidate's undecided objects differently at
// every thread count; the answer must not move.
TEST(ParallelGroupedVerificationTest, DenseTopKIdenticalAcrossThreads) {
  const double r = 3.5;
  ObjectSet set = testing::MakeRandomObjects(60, 20, 40, 25.0, 23, 1.0);
  std::vector<std::uint32_t> exact = testing::OracleScores(set, r);
  std::vector<ScoredObject> want = TopKFromScores(exact, 10);

  QueryOptions opt;
  opt.k = 10;
  MioEngine serial_engine(set);
  QueryResult serial = serial_engine.Query(r, opt);
  ASSERT_EQ(serial.topk.size(), 10u);
  for (std::size_t pos = 0; pos < want.size(); ++pos) {
    EXPECT_EQ(serial.topk[pos].score, want[pos].score) << "pos " << pos;
  }
  for (int threads : {2, 4}) {
    opt.threads = threads;
    MioEngine engine(set);
    QueryResult par = engine.Query(r, opt);
    ASSERT_EQ(par.topk.size(), serial.topk.size()) << threads;
    for (std::size_t pos = 0; pos < serial.topk.size(); ++pos) {
      EXPECT_EQ(par.topk[pos].id, serial.topk[pos].id)
          << "threads=" << threads << " pos " << pos;
      EXPECT_EQ(par.topk[pos].score, serial.topk[pos].score)
          << "threads=" << threads << " pos " << pos;
    }
  }
}

TEST(ParallelCrossModeTest, SerialLabelsUsableByParallelRunAndViceVersa) {
  ObjectSet set = testing::MakeRandomObjects(40, 4, 10, 25.0, 9, 5.0);
  double r = 5.0;
  std::uint32_t best = testing::MaxScore(testing::OracleScores(set, r));

  {
    // Record serially, consume in parallel.
    MioEngine engine(set);
    QueryOptions rec;
    rec.record_labels = true;
    engine.Query(r, rec);
    QueryOptions use;
    use.use_labels = true;
    use.threads = 4;
    EXPECT_EQ(engine.Query(r, use).best().score, best);
  }
  {
    // Record in parallel, consume serially.
    MioEngine engine(set);
    QueryOptions rec;
    rec.record_labels = true;
    rec.threads = 4;
    engine.Query(r, rec);
    QueryOptions use;
    use.use_labels = true;
    EXPECT_EQ(engine.Query(r, use).best().score, best);
  }
}

}  // namespace
}  // namespace mio
