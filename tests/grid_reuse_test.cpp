// Large-grid reuse across queries sharing ceil(r): answers must be
// identical with and without the cache, in every mode combination.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#include "core/mio_engine.hpp"
#include "test_utils.hpp"

namespace mio {
namespace {

class GridReuseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    set_ = testing::MakeRandomObjects(50, 4, 10, 30.0, 11, 5.0);
  }
  std::uint32_t Oracle(double r) {
    return testing::MaxScore(testing::OracleScores(set_, r));
  }
  ObjectSet set_;
};

TEST_F(GridReuseTest, SecondQuerySameCeilingReusesAndAgrees) {
  MioEngine engine(set_);
  QueryOptions opt;
  opt.reuse_grid = true;
  QueryResult first = engine.Query(4.0, opt);
  EXPECT_FALSE(first.stats.reused_grid);  // nothing cached yet
  QueryResult second = engine.Query(4.0, opt);
  EXPECT_TRUE(second.stats.reused_grid);
  QueryResult third = engine.Query(3.2, opt);  // ceil(3.2) = 4: same grid
  EXPECT_TRUE(third.stats.reused_grid);

  EXPECT_EQ(first.best().score, Oracle(4.0));
  EXPECT_EQ(second.best().score, Oracle(4.0));
  EXPECT_EQ(third.best().score, Oracle(3.2));
}

TEST_F(GridReuseTest, DifferentCeilingBuildsFresh) {
  MioEngine engine(set_);
  QueryOptions opt;
  opt.reuse_grid = true;
  engine.Query(4.0, opt);
  QueryResult res = engine.Query(6.0, opt);  // ceil 6 != 4
  EXPECT_FALSE(res.stats.reused_grid);
  EXPECT_EQ(res.best().score, Oracle(6.0));
  // And the 6-grid is now cached too.
  EXPECT_TRUE(engine.Query(5.5, opt).stats.reused_grid);
}

TEST_F(GridReuseTest, ReuseMatchesNonReuseExactly) {
  for (double r : {2.5, 4.0, 7.3}) {
    MioEngine plain_engine(set_);
    QueryResult plain = plain_engine.Query(r);

    MioEngine reuse_engine(set_);
    QueryOptions opt;
    opt.reuse_grid = true;
    reuse_engine.Query(r, opt);                       // warm the cache
    QueryResult reused = reuse_engine.Query(r, opt);  // cached run
    ASSERT_TRUE(reused.stats.reused_grid);
    EXPECT_EQ(reused.best().score, plain.best().score) << r;
    EXPECT_EQ(reused.best().id, plain.best().id) << r;
  }
}

TEST_F(GridReuseTest, ReuseWithLabels) {
  std::uint32_t best = Oracle(4.0);
  MioEngine engine(set_);
  QueryOptions opt;
  opt.reuse_grid = true;
  opt.use_labels = true;
  opt.record_labels = true;
  EXPECT_EQ(engine.Query(4.0, opt).best().score, best);  // records both
  QueryResult res = engine.Query(4.0, opt);  // labels + cached grid
  EXPECT_TRUE(res.stats.reused_grid);
  EXPECT_EQ(res.best().score, best);
  // A labelled query must never poison the cache with a pruned grid:
  QueryResult clean = engine.Query(4.0, opt);
  EXPECT_EQ(clean.best().score, best);
  EXPECT_GE(clean.stats.cells_large, res.stats.cells_large);
}

TEST_F(GridReuseTest, ReuseAcrossThreadCounts) {
  std::uint32_t best = Oracle(4.0);
  MioEngine engine(set_);
  QueryOptions serial;
  serial.reuse_grid = true;
  engine.Query(4.0, serial);  // cache built by the serial path (1 shard)

  QueryOptions parallel = serial;
  parallel.threads = 4;
  QueryResult res = engine.Query(4.0, parallel);  // reused by 4 threads
  EXPECT_TRUE(res.stats.reused_grid);
  EXPECT_EQ(res.best().score, best);

  // And the other direction: parallel-built cache consumed serially.
  MioEngine engine2(set_);
  engine2.Query(4.0, parallel);
  QueryResult res2 = engine2.Query(4.0, serial);
  EXPECT_TRUE(res2.stats.reused_grid);
  EXPECT_EQ(res2.best().score, best);

  // The large grid is the same at every thread count, so a serial query
  // that records labels over a grid cached at 4 threads does the serial
  // query's work and records its label bytes.
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("mio_grid_reuse_" + std::to_string(::testing::UnitTest::GetInstance()
                                              ->random_seed()));
  std::filesystem::remove_all(dir);
  QueryOptions record = serial;
  record.record_labels = true;
  MioEngine fresh(set_, (dir / "fresh").string());
  QueryResult want = fresh.Query(4.0, record);
  MioEngine warmed(set_, (dir / "warmed").string());
  warmed.Query(4.0, parallel);
  QueryResult got = warmed.Query(4.0, record);
  EXPECT_FALSE(want.stats.reused_grid);
  EXPECT_TRUE(got.stats.reused_grid);
  EXPECT_EQ(got.best().score, best);
  EXPECT_EQ(got.stats.distance_computations,
            want.stats.distance_computations);
  auto bytes = [](const std::filesystem::path& file) {
    std::ifstream in(file, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
  };
  const std::string want_labels = bytes(dir / "fresh" / "labels_4.bin");
  EXPECT_FALSE(want_labels.empty());
  EXPECT_EQ(bytes(dir / "warmed" / "labels_4.bin"), want_labels);
  std::filesystem::remove_all(dir);
}

TEST_F(GridReuseTest, TopKWithReuse) {
  std::vector<std::uint32_t> exact = testing::OracleScores(set_, 5.0);
  std::vector<ScoredObject> want = TopKFromScores(exact, 5);
  MioEngine engine(set_);
  QueryOptions opt;
  opt.reuse_grid = true;
  opt.k = 5;
  engine.Query(5.0, opt);
  QueryResult res = engine.Query(5.0, opt);
  ASSERT_TRUE(res.stats.reused_grid);
  ASSERT_EQ(res.topk.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(res.topk[i].score, want[i].score);
  }
}

TEST_F(GridReuseTest, ClearGridCacheForcesRebuild) {
  MioEngine engine(set_);
  QueryOptions opt;
  opt.reuse_grid = true;
  engine.Query(4.0, opt);
  engine.ClearGridCache();
  EXPECT_FALSE(engine.Query(4.0, opt).stats.reused_grid);
}

TEST_F(GridReuseTest, FineGrainedSweepStaysExact) {
  // The motivating workload: many fine-grained radii under one ceiling.
  MioEngine engine(set_);
  QueryOptions opt;
  opt.reuse_grid = true;
  opt.use_labels = true;
  opt.record_labels = true;
  for (double r : {4.0, 3.9, 3.7, 3.5, 3.3, 3.1}) {
    EXPECT_EQ(engine.Query(r, opt).best().score, Oracle(r)) << r;
  }
}

}  // namespace
}  // namespace mio
