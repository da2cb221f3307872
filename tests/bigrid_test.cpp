// Structural tests of the BIGrid index: cell contents, key lists,
// postings, lazy neighbourhood bitsets, and serial/parallel build
// equivalence.
#include "core/bigrid.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "test_utils.hpp"

namespace mio {
namespace {

/// The lockstep invariant verification's posting walk relies on: a large
/// cell's set bits, in ascending order, are exactly its post_obj, so an
/// object's rank in `bits` is the index of its posting.
void ExpectBitsInLockstep(const LargeCell& cell) {
  std::vector<ObjectId> from_bits;
  cell.bits.ForEachSetBit([&](std::size_t obj) {
    from_bits.push_back(static_cast<ObjectId>(obj));
  });
  EXPECT_EQ(from_bits, cell.post_obj);
  EXPECT_EQ(cell.post_start.size(), cell.post_obj.size());
}

TEST(BiGridTest, WidthsFollowDefinitions) {
  ObjectSet set = testing::MakeRandomObjects(5, 3, 5, 20.0, 1);
  BiGrid grid(set, 4.3);
  EXPECT_DOUBLE_EQ(grid.small_width(), SmallGridWidth(4.3));
  EXPECT_DOUBLE_EQ(grid.large_width(), 5.0);
}

TEST(BiGridTest, SmallCellBitsMatchBruteForce) {
  ObjectSet set = testing::MakeRandomObjects(20, 5, 10, 25.0, 2);
  double r = 5.0;
  BiGrid grid(set, r);
  grid.Build();

  // Recompute cell membership by hand.
  std::map<std::tuple<int, int, int>, std::set<ObjectId>> want;
  double w = SmallGridWidth(r);
  for (ObjectId i = 0; i < set.size(); ++i) {
    for (const Point& p : set[i].points) {
      CellKey k = KeyForWidth(p, w);
      want[{k.x, k.y, k.z}].insert(i);
    }
  }
  EXPECT_EQ(grid.NumSmallCells(), want.size());
  for (const auto& [kt, objs] : want) {
    const SmallCell* cell =
        grid.FindSmall(CellKey{std::get<0>(kt), std::get<1>(kt), std::get<2>(kt)});
    ASSERT_NE(cell, nullptr);
    EXPECT_EQ(cell->bits.Count(), objs.size());
    EXPECT_EQ(cell->num_objects, objs.size());
    for (ObjectId o : objs) EXPECT_TRUE(cell->bits.Test(o));
  }
}

TEST(BiGridTest, KeyListsAreExactlyMultiObjectCells) {
  ObjectSet set = testing::MakeRandomObjects(15, 5, 10, 20.0, 3);
  double r = 4.0;
  BiGrid grid(set, r);
  grid.Build();

  double w = SmallGridWidth(r);
  std::map<std::tuple<int, int, int>, std::set<ObjectId>> cells;
  for (ObjectId i = 0; i < set.size(); ++i) {
    for (const Point& p : set[i].points) {
      CellKey k = KeyForWidth(p, w);
      cells[{k.x, k.y, k.z}].insert(i);
    }
  }
  for (ObjectId i = 0; i < set.size(); ++i) {
    std::set<std::tuple<int, int, int>> want;
    for (const auto& [kt, objs] : cells) {
      if (objs.size() >= 2 && objs.count(i)) want.insert(kt);
    }
    std::set<std::tuple<int, int, int>> got;
    for (const CellKey& k : grid.KeyList(i)) got.insert({k.x, k.y, k.z});
    EXPECT_EQ(got, want) << "object " << i;
    EXPECT_EQ(grid.KeyList(i).size(), got.size()) << "duplicate keys";
  }
}

TEST(BiGridTest, LargeCellPostingsHoldEveryPoint) {
  ObjectSet set = testing::MakeRandomObjects(10, 4, 8, 15.0, 4);
  double r = 3.0;
  BiGrid grid(set, r);
  grid.Build();

  std::size_t total_postings = 0;
  for (ObjectId i = 0; i < set.size(); ++i) {
    for (const Point& p : set[i].points) {
      CellKey k = KeyForWidth(p, grid.large_width());
      const LargeCell* cell = grid.FindLarge(k);
      ASSERT_NE(cell, nullptr);
      EXPECT_TRUE(cell->bits.Test(i));
      PostingView posting = cell->Posting(i);
      bool present = false;
      for (std::size_t pi = 0; pi < posting.size; ++pi) {
        if (posting[pi] == p) present = true;
      }
      EXPECT_TRUE(present);
    }
  }
  grid.ForEachLargeCell([&](const CellKey&, LargeCell& cell) {
    total_postings += cell.NumPostingPoints();
    // Posting object ids ascend (build order).
    EXPECT_TRUE(std::is_sorted(cell.post_obj.begin(), cell.post_obj.end()));
    ExpectBitsInLockstep(cell);
  });
  EXPECT_EQ(total_postings, set.Stats().nm);
}

TEST(BiGridTest, PostingOfAbsentObjectIsEmpty) {
  ObjectSet set = testing::MakeRandomObjects(3, 2, 2, 5.0, 5);
  BiGrid grid(set, 2.0);
  grid.Build();
  grid.ForEachLargeCell([&](const CellKey&, LargeCell& cell) {
    EXPECT_TRUE(cell.Posting(9999).empty());
  });
}

TEST(BiGridTest, EnsureAdjIsNeighborhoodUnion) {
  ObjectSet set = testing::MakeRandomObjects(12, 4, 8, 12.0, 6);
  double r = 3.0;
  BiGrid grid(set, r);
  grid.Build();

  CellKey key = KeyForWidth(set[0].points[0], grid.large_width());
  LargeCell& cell = grid.EnsureAdj(key);
  ASSERT_TRUE(cell.adj_computed);

  PlainBitset want;
  ForEachNeighbor(key, true, [&](const CellKey& nk) {
    if (const LargeCell* nc = grid.FindLarge(nk)) {
      want.OrWith(nc->bits.ToPlain());
    }
  });
  EXPECT_TRUE(cell.adj.ToPlain() == want);
  EXPECT_EQ(cell.adj_count, want.Count());
  // Second call is a memo hit (same object, no recompute).
  EXPECT_EQ(&grid.EnsureAdj(key), &cell);

  // Every cell's b_adj is encoded word for word as the Ewah::Or fold that
  // starts from the cell's own bitset.
  grid.ForEachLargeCell([&](const CellKey& k, LargeCell& c) {
    Ewah fold = c.bits;
    ForEachNeighbor(k, false, [&](const CellKey& nk) {
      if (const LargeCell* nc = grid.FindLarge(nk)) {
        fold = Ewah::Or(fold, nc->bits);
      }
    });
    const LargeCell& adj = grid.EnsureAdj(k);
    EXPECT_EQ(adj.adj.buffer(), fold.buffer());
    EXPECT_EQ(adj.adj.SizeInBits(), fold.SizeInBits());
    EXPECT_EQ(adj.adj_count, fold.Count());
  });
}

TEST(BiGridTest, NoEmptyCells) {
  ObjectSet set = testing::MakeRandomObjects(10, 3, 5, 30.0, 7);
  BiGrid grid(set, 4.0);
  grid.Build();
  grid.ForEachLargeCell([&](const CellKey&, LargeCell& cell) {
    EXPECT_GT(cell.NumPostingPoints(), 0u);
    EXPECT_GT(cell.bits.Count(), 0u);
  });
}

TEST(BiGridTest, ParallelBuildMatchesSerial) {
  ObjectSet set = testing::MakeRandomObjects(30, 5, 12, 25.0, 8);
  double r = 4.5;
  BiGrid serial(set, r);
  serial.Build(nullptr, true);
  for (int threads : {2, 4}) {
    BiGrid parallel(set, r);
    parallel.BuildParallel(threads, nullptr, true);
    EXPECT_EQ(parallel.NumSmallCells(), serial.NumSmallCells());
    EXPECT_EQ(parallel.NumLargeCells(), serial.NumLargeCells());

    // Key lists agree as sets per object.
    for (ObjectId i = 0; i < set.size(); ++i) {
      auto as_set = [](const std::vector<CellKey>& keys) {
        std::set<std::tuple<int, int, int>> s;
        for (const CellKey& k : keys) s.insert({k.x, k.y, k.z});
        return s;
      };
      EXPECT_EQ(as_set(parallel.KeyList(i)), as_set(serial.KeyList(i)))
          << "object " << i << " threads " << threads;
    }
    // Large cells agree bit-for-bit and posting-for-posting.
    serial.ForEachLargeCell([&](const CellKey& k, LargeCell& scell) {
      const LargeCell* pcell = parallel.FindLarge(k);
      ASSERT_NE(pcell, nullptr);
      EXPECT_TRUE(pcell->bits == scell.bits);
      EXPECT_EQ(pcell->NumPostingPoints(), scell.NumPostingPoints());
      ExpectBitsInLockstep(*pcell);
    });
    // Groups cover every point exactly once.
    for (ObjectId i = 0; i < set.size(); ++i) {
      std::size_t covered = 0;
      for (const PointGroup& g : parallel.LargeGroups(i)) {
        covered += g.point_idx.size();
      }
      EXPECT_EQ(covered, set[i].NumPoints());
    }
  }
}

TEST(BiGridTest, MemoryBreakdownIsPopulated) {
  ObjectSet set = testing::MakeRandomObjects(20, 5, 10, 20.0, 9);
  BiGrid grid(set, 4.0);
  grid.Build();
  MemoryBreakdown mb = grid.MemoryUsage();
  EXPECT_GT(mb.Total(), 0u);
  EXPECT_GE(mb.parts.size(), 3u);
}

TEST(BiGridTest, CompressionStatsCoverAllCells) {
  ObjectSet set = testing::MakeRandomObjects(20, 5, 10, 20.0, 10);
  BiGrid grid(set, 4.0);
  grid.Build();
  BitsetCompressionStats stats = grid.CompressionStats();
  EXPECT_EQ(stats.num_bitsets, grid.NumSmallCells() + grid.NumLargeCells());
  EXPECT_GT(stats.uncompressed_bytes, 0u);
}

TEST(BiGridTest, BuildWithLabelsSkipsPrunedPoints) {
  ObjectSet set = testing::MakeRandomObjects(8, 4, 6, 15.0, 11);
  LabelSet labels = LabelSet::MakeAllOnes(set);
  // Prune every point of object 0.
  for (auto& l : labels.labels[0]) l &= ~label::kMap;
  BiGrid grid(set, 4.0);
  grid.Build(&labels);
  // Object 0 must appear in no large cell.
  grid.ForEachLargeCell([&](const CellKey&, LargeCell& cell) {
    EXPECT_FALSE(cell.bits.Test(0));
    ExpectBitsInLockstep(cell);
  });
  EXPECT_TRUE(grid.KeyList(0).empty());
}

// A cached large grid is adopted verbatim by later queries of its
// ceiling, after earlier ones memoised b_adj into it; its postings stay in
// lockstep with its bits for every adopter.
TEST(BiGridTest, ReusedGridKeepsPostingsInLockstep) {
  ObjectSet set = testing::MakeRandomObjects(40, 5, 12, 20.0, 12, 2.0);
  BiGrid first(set, 3.2);
  first.BuildParallel(2, nullptr, true);
  first.ForEachLargeCell(
      [&](const CellKey& k, LargeCell&) { first.EnsureAdj(k); });
  ASSERT_TRUE(first.large_grid_complete());
  BiGrid adopter(set, 3.7, /*planar=*/false, first.ShareLargeGrid());
  adopter.Build();
  ASSERT_TRUE(adopter.reused_large_grid());
  std::size_t cells = 0;
  adopter.ForEachLargeCell([&](const CellKey&, LargeCell& cell) {
    EXPECT_TRUE(cell.AdjReady());
    ExpectBitsInLockstep(cell);
    ++cells;
  });
  EXPECT_EQ(cells, first.NumLargeCells());
}

}  // namespace
}  // namespace mio
