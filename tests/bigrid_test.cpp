// Structural tests of the BIGrid index: cell contents, key lists,
// postings, lazy neighbourhood bitsets, and serial/parallel build
// equivalence.
#include "core/bigrid.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <utility>

#include "common/fault_injection.hpp"
#include "common/guardrails.hpp"
#include "core/mio_engine.hpp"
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
  EXPECT_EQ(from_bits, std::vector<ObjectId>(cell.post_obj.begin(),
                                              cell.post_obj.end()));
}

using KeyTuple = std::tuple<int, int, int>;
KeyTuple AsTuple(const CellKey& k) { return {k.x, k.y, k.z}; }
CellKey AsKey(const KeyTuple& t) {
  return CellKey{std::get<0>(t), std::get<1>(t), std::get<2>(t)};
}

/// Clears kMap on every third point of the even objects and on every
/// point of object 1, so labelled builds skip points and a whole object.
LabelSet PruneSome(const ObjectSet& set) {
  LabelSet labels = LabelSet::MakeAllOnes(set);
  for (ObjectId i = 0; i < set.size(); ++i) {
    for (std::size_t j = 0; j < set[i].points.size(); ++j) {
      if (i == 1 || (i % 2 == 0 && j % 3 == 0)) {
        labels.labels[i][j] &= static_cast<std::uint8_t>(~label::kMap);
      }
    }
  }
  return labels;
}

bool Mapped(const LabelSet* labels, ObjectId i, std::size_t j) {
  return labels == nullptr || (labels->Get(i, j) & label::kMap) != 0;
}

/// Every small cell's key by its id, base[t] + its place in shard t, read
/// from the shards' hash indexes.
std::map<std::uint32_t, CellKey> SmallKeys(const BiGrid& grid) {
  const SmallGrid& small = grid.small_grid();
  std::map<std::uint32_t, CellKey> keys;
  for (std::size_t t = 0; t < small.index.size(); ++t) {
    small.index[t].ForEach([&](const CellKey& k, std::uint32_t slot) {
      keys[small.base[t] + slot - 1] = k;
    });
  }
  return keys;
}

/// Every large cell's key by its id, read from the points: the key of
/// each point the grid holds, under the id the point names.
std::map<std::uint32_t, CellKey> LargeKeys(const BiGrid& grid) {
  const ObjectSet& set = grid.objects();
  std::map<std::uint32_t, CellKey> keys;
  for (ObjectId i = 0; i < set.size(); ++i) {
    for (std::size_t j = 0; j < set[i].points.size(); ++j) {
      const std::uint32_t id = grid.LargeCellOf(i, j);
      if (id != kNoCell) {
        keys.emplace(id, KeyForWidth(set[i].points[j], grid.large_width()));
      }
    }
  }
  return keys;
}

/// The id of the large cell with key k, or kNoCell.
std::uint32_t LargeId(const BiGrid& grid, const CellKey& k) {
  const LargeCell* cell = grid.FindLarge(k);
  if (cell == nullptr) return kNoCell;
  return static_cast<std::uint32_t>(cell -
                                    grid.ShareLargeGrid()->cells.data());
}

/// The neighbour table agrees with the hash index: each large cell lists
/// exactly the cells FindLarge finds among its 26 neighbours, by id, in
/// ForEachNeighbor order, and nbr_dirs marks which neighbour each one is.
void ExpectNeighborTable(const BiGrid& grid) {
  for (const auto& [id, key] : LargeKeys(grid)) {
    std::vector<std::uint32_t> want;
    std::uint32_t dirs = 0;
    int d = 0;
    ForEachNeighbor(key, /*include_self=*/true, [&](const CellKey& nk) {
      if (d != kNeighborhoodSize / 2 && grid.FindLarge(nk) != nullptr) {
        want.push_back(LargeId(grid, nk));
        dirs |= std::uint32_t{1} << d;
      }
      ++d;
    });
    const std::span<const std::uint32_t> got = grid.LargeNeighbors(id);
    EXPECT_EQ(std::vector<std::uint32_t>(got.begin(), got.end()), want)
        << key.ToString();
    EXPECT_EQ(grid.LargeCellAt(id).nbr_dirs, dirs) << key.ToString();
  }
}

/// What names cells by id agrees with the keys: ids ascend by key across
/// the whole large grid, and so do the cells' posting blocks; each point's
/// id names the cell of its key, and a point the build skipped holds
/// kNoCell; each key list names exactly the small cells of the object
/// shared with another.
void ExpectIdLayer(const BiGrid& grid, const LabelSet* labels) {
  const std::vector<LargeCell>& cells = grid.ShareLargeGrid()->cells;
  const std::map<std::uint32_t, CellKey> large_keys = LargeKeys(grid);
  ASSERT_EQ(large_keys.size(), cells.size());
  ASSERT_TRUE(cells.empty() || large_keys.rbegin()->first == cells.size() - 1);
  for (std::uint32_t id = 1; id < cells.size(); ++id) {
    EXPECT_TRUE(large_keys.at(id - 1) < large_keys.at(id)) << "cell " << id;
    EXPECT_LT(cells[id - 1].post_obj.data(), cells[id].post_obj.data());
    EXPECT_LT(cells[id - 1].post_xyz, cells[id].post_xyz);
  }
  const ObjectSet& set = grid.objects();
  const bool skips = labels != nullptr && !grid.reused_large_grid();
  std::map<KeyTuple, std::set<ObjectId>> small;
  for (ObjectId i = 0; i < set.size(); ++i) {
    for (std::size_t j = 0; j < set[i].points.size(); ++j) {
      const Point& p = set[i].points[j];
      const bool mapped =
          labels == nullptr || (labels->Get(i, j) & label::kMap) != 0;
      if (mapped) small[AsTuple(KeyForWidth(p, grid.small_width()))].insert(i);
      if (!mapped && skips) {
        EXPECT_EQ(grid.LargeCellOf(i, j), kNoCell);
      } else {
        const std::uint32_t id = grid.LargeCellOf(i, j);
        ASSERT_NE(id, kNoCell);
        EXPECT_EQ(&grid.LargeCellAt(id),
                  grid.FindLarge(KeyForWidth(p, grid.large_width())));
      }
    }
  }
  const std::map<std::uint32_t, CellKey> small_keys = SmallKeys(grid);
  for (ObjectId i = 0; i < set.size(); ++i) {
    std::set<KeyTuple> want;
    for (const auto& [kt, objs] : small) {
      if (objs.size() >= 2 && objs.count(i) != 0) want.insert(kt);
    }
    std::set<KeyTuple> got;
    for (std::uint32_t id : grid.KeyList(i)) {
      ASSERT_EQ(small_keys.count(id), 1u) << "object " << i;
      EXPECT_EQ(&grid.SmallCellAt(id), grid.FindSmall(small_keys.at(id)));
      got.insert(AsTuple(small_keys.at(id)));
    }
    EXPECT_EQ(got, want) << "object " << i;
    EXPECT_EQ(grid.KeyList(i).size(), got.size()) << "duplicate cells";
  }
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
    const std::map<std::uint32_t, CellKey> keys = SmallKeys(grid);
    for (std::uint32_t id : grid.KeyList(i)) got.insert(AsTuple(keys.at(id)));
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

// b_adj is the OR over the cell and the neighbours its table lists, and
// the table lists exactly the neighbours the hash index finds: shard
// counts 1-4, with and without labels, and over an adopted cached grid.
TEST(BiGridTest, EnsureAdjIsNeighborhoodUnion) {
  ObjectSet set = testing::MakeRandomObjects(12, 4, 8, 12.0, 6);
  double r = 3.0;
  BiGrid grid(set, r);
  grid.Build();

  const std::uint32_t id = grid.LargeCellOf(0, 0);
  const CellKey key = KeyForWidth(set[0].points[0], grid.large_width());
  LargeCell& cell = grid.EnsureAdj(id);
  ASSERT_EQ(&cell, grid.FindLarge(key));
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
  EXPECT_EQ(&grid.EnsureAdj(id), &cell);

  // Every cell's b_adj is encoded word for word as the Ewah::Or fold that
  // starts from the cell's own bitset.
  auto expect_folds = [](BiGrid& g) {
    for (const auto& [cid, k] : LargeKeys(g)) {
      Ewah fold = g.FindLarge(k)->bits;
      ForEachNeighbor(k, false, [&](const CellKey& nk) {
        if (const LargeCell* nc = g.FindLarge(nk)) {
          fold = Ewah::Or(fold, nc->bits);
        }
      });
      const LargeCell& adj = g.EnsureAdj(cid);
      EXPECT_EQ(&adj, g.FindLarge(k));
      EXPECT_EQ(adj.adj.buffer(), fold.buffer());
      EXPECT_EQ(adj.adj.SizeInBits(), fold.SizeInBits());
      EXPECT_EQ(adj.adj_count, fold.Count());
    }
  };
  ExpectNeighborTable(grid);
  expect_folds(grid);

  const ObjectSet dense = testing::MakeRandomObjects(40, 5, 12, 14.0, 24, 2.0);
  const LabelSet labels = PruneSome(dense);
  BiGrid cached(dense, r);
  cached.BuildParallel(3);
  for (const LabelSet* lab : {static_cast<const LabelSet*>(nullptr), &labels}) {
    for (int threads : {1, 2, 3, 4}) {
      SCOPED_TRACE("threads " + std::to_string(threads) +
                   (lab != nullptr ? " labelled" : ""));
      BiGrid built(dense, r);
      built.BuildParallel(threads, lab);
      ExpectNeighborTable(built);
      expect_folds(built);
      BiGrid adopter(dense, r, /*planar=*/false, cached.ShareLargeGrid());
      adopter.BuildParallel(threads, lab);
      ASSERT_TRUE(adopter.reused_large_grid());
      ExpectNeighborTable(adopter);
      expect_folds(adopter);
    }
  }
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

/// One large cell's postings, from the points directly: each object's
/// points in input order, objects ascending.
using Postings = std::vector<std::pair<ObjectId, std::vector<Point>>>;

/// Every cell's contents recomputed by hand from the mapped points.
struct BruteGrid {
  std::map<KeyTuple, std::vector<ObjectId>> small;  // distinct, ascending
  std::map<KeyTuple, Postings> large;
  std::size_t mapped_points = 0;
};

BruteGrid Brute(const ObjectSet& set, double r, const LabelSet* labels) {
  BruteGrid g;
  for (ObjectId i = 0; i < set.size(); ++i) {
    for (std::size_t j = 0; j < set[i].points.size(); ++j) {
      if (!Mapped(labels, i, j)) continue;
      const Point& p = set[i].points[j];
      ++g.mapped_points;
      auto& objs = g.small[AsTuple(KeyForWidth(p, SmallGridWidth(r)))];
      if (objs.empty() || objs.back() != i) objs.push_back(i);
      Postings& post = g.large[AsTuple(KeyForWidth(p, LargeGridWidth(r)))];
      if (post.empty() || post.back().first != i) post.push_back({i, {}});
      post.back().second.push_back(p);
    }
  }
  return g;
}

/// The encoding an incremental Set build gives `ids`.
Ewah SetEach(const std::vector<ObjectId>& ids) {
  Ewah e;
  for (ObjectId id : ids) e.Set(id);
  return e;
}

std::vector<ObjectId> PostObjs(const LargeCell& cell) {
  return {cell.post_obj.begin(), cell.post_obj.end()};
}

void ExpectSameSmallGrid(const BiGrid& want, const BiGrid& got) {
  EXPECT_EQ(got.NumSmallCells(), want.NumSmallCells());
  for (const auto& [id, k] : SmallKeys(want)) {
    const SmallCell& cell = want.SmallCellAt(id);
    const SmallCell* g = got.FindSmall(k);
    ASSERT_NE(g, nullptr) << k.ToString();
    EXPECT_EQ(g->bits.buffer(), cell.bits.buffer()) << k.ToString();
    EXPECT_EQ(g->bits.SizeInBits(), cell.bits.SizeInBits());
  }
  // Key lists name the same cells per object, without duplicates.
  const std::map<std::uint32_t, CellKey> want_keys = SmallKeys(want);
  const std::map<std::uint32_t, CellKey> got_keys = SmallKeys(got);
  auto as_set = [](std::span<const std::uint32_t> ids,
                   const std::map<std::uint32_t, CellKey>& keys) {
    std::set<KeyTuple> s;
    for (std::uint32_t id : ids) s.insert(AsTuple(keys.at(id)));
    return s;
  };
  for (ObjectId i = 0; i < want.objects().size(); ++i) {
    EXPECT_EQ(as_set(got.KeyList(i), got_keys),
              as_set(want.KeyList(i), want_keys))
        << "object " << i;
    EXPECT_EQ(got.KeyList(i).size(), as_set(got.KeyList(i), got_keys).size());
  }
}

/// `got`'s large grid equals `want`'s array for array: each cell, by id,
/// has the same bitset, neighbour mask and places in the arrays, and the
/// posting arrays, the neighbour table and the points' ids are equal.
void ExpectSameLargeGrid(const BiGrid& want, const BiGrid& got) {
  const LargeGridData& w = *want.ShareLargeGrid();
  const LargeGridData& g = *got.ShareLargeGrid();
  ASSERT_EQ(g.cells.size(), w.cells.size());
  for (std::size_t c = 0; c < w.cells.size(); ++c) {
    const LargeCell& wc = w.cells[c];
    const LargeCell& gc = g.cells[c];
    EXPECT_EQ(gc.bits.buffer(), wc.bits.buffer()) << "cell " << c;
    EXPECT_EQ(gc.bits.SizeInBits(), wc.bits.SizeInBits()) << "cell " << c;
    EXPECT_EQ(gc.nbr_dirs, wc.nbr_dirs) << "cell " << c;
    EXPECT_EQ(gc.num_points, wc.num_points) << "cell " << c;
    EXPECT_EQ(gc.post_obj.data() - g.post_obj.data(),
              wc.post_obj.data() - w.post_obj.data());
    EXPECT_EQ(gc.post_obj.size(), wc.post_obj.size());
    EXPECT_EQ(gc.post_start - g.post_start.data(),
              wc.post_start - w.post_start.data());
    EXPECT_EQ(gc.post_xyz - g.post_xyz.data(), wc.post_xyz - w.post_xyz.data());
    ExpectBitsInLockstep(gc);
  }
  EXPECT_EQ(g.post_obj, w.post_obj);
  EXPECT_EQ(g.post_start, w.post_start);
  EXPECT_EQ(g.post_xyz, w.post_xyz);
  EXPECT_EQ(g.nbr_off, w.nbr_off);
  EXPECT_EQ(g.nbr_ids, w.nbr_ids);
  EXPECT_EQ(g.point_cell, w.point_cell);
}

/// BiGrid::PointsByCell's contract, object by object: every mapped point
/// appears once, with its cell's id; runs come in ascending cell id, point
/// indices ascend within a run, and pruned points are absent.
void ExpectGroupsCover(const BiGrid& grid, const LabelSet* labels) {
  const ObjectSet& set = grid.objects();
  std::vector<CellPoint> points;
  for (ObjectId i = 0; i < set.size(); ++i) {
    grid.PointsByCell(i, &points);
    std::vector<std::uint32_t> want, got;
    for (std::size_t j = 0; j < set[i].points.size(); ++j) {
      if (Mapped(labels, i, j)) want.push_back(static_cast<std::uint32_t>(j));
    }
    for (std::size_t a = 0; a < points.size(); ++a) {
      const CellPoint& p = points[a];
      got.push_back(p.idx);
      EXPECT_EQ(grid.LargeCellOf(i, p.idx), p.cell) << "object " << i;
      if (a == 0) continue;
      EXPECT_LE(points[a - 1].cell, p.cell) << "object " << i;
      if (points[a - 1].cell == p.cell) {
        EXPECT_LT(points[a - 1].idx, p.idx) << "object " << i;
      }
    }
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, want) << "object " << i;
  }
}

// One build path serves every thread count: shard counts 1-4, with and
// without labels, and an adopted grid cached from a 3-shard build, give
// the serial build's small-cell bitsets byte for byte and its key-list
// sets, and its large grid array for array; every grid names its cells by
// id as its keys do (ExpectIdLayer), and groups its points by cell
// (ExpectGroupsCover).
TEST(BiGridTest, ParallelBuildMatchesSerial) {
  ObjectSet set = testing::MakeRandomObjects(30, 5, 12, 25.0, 8);
  double r = 4.5;
  const LabelSet labels = PruneSome(set);
  BiGrid complete(set, r);
  complete.Build();
  BiGrid cached(set, r);
  cached.BuildParallel(3);
  ASSERT_TRUE(cached.large_grid_complete());
  ExpectIdLayer(complete, nullptr);
  for (const LabelSet* lab : {static_cast<const LabelSet*>(nullptr), &labels}) {
    BiGrid serial(set, r);
    serial.Build(lab);
    ExpectIdLayer(serial, lab);
    ExpectGroupsCover(serial, lab);
    for (int threads : {1, 2, 3, 4}) {
      SCOPED_TRACE("threads " + std::to_string(threads) +
                   (lab != nullptr ? " labelled" : ""));
      BiGrid parallel(set, r);
      parallel.BuildParallel(threads, lab);
      ExpectSameSmallGrid(serial, parallel);
      ExpectSameLargeGrid(serial, parallel);
      ExpectGroupsCover(parallel, lab);
      ExpectIdLayer(parallel, lab);

      BiGrid adopter(set, r, /*planar=*/false, cached.ShareLargeGrid());
      adopter.BuildParallel(threads, lab);
      ASSERT_TRUE(adopter.reused_large_grid());
      ExpectSameSmallGrid(serial, adopter);
      ExpectSameLargeGrid(complete, adopter);
      ExpectGroupsCover(adopter, nullptr);  // a cached grid is complete
      ExpectIdLayer(adopter, lab);
    }
  }
}

// FindLarge binary-searches the cells by key: every cell's key finds it,
// and a key before the first cell, one between two cells, one after the
// last and the key of a cell whose every point the labels pruned find
// nothing.
TEST(BiGridTest, FindLargeMissesAbsentKeys) {
  const ObjectSet set = testing::MakeRandomObjects(30, 5, 12, 25.0, 8);
  const double r = 4.5;
  BiGrid grid(set, r);
  grid.Build();
  const std::map<std::uint32_t, CellKey> keys = LargeKeys(grid);
  ASSERT_GE(keys.size(), 2u);
  for (const auto& [id, k] : keys) {
    EXPECT_EQ(grid.FindLarge(k), &grid.LargeCellAt(id)) << k.ToString();
  }
  const CellKey first = keys.begin()->second;
  const CellKey last = keys.rbegin()->second;
  EXPECT_EQ(grid.FindLarge(CellKey{first.x, first.y, first.z - 1}), nullptr);
  EXPECT_EQ(grid.FindLarge(CellKey{last.x, last.y, last.z + 1}), nullptr);
  // (x, y, z + 1) follows (x, y, z) at once in key order, so unless it
  // is the next cell's key it lies between the two.
  bool between = false;
  for (std::uint32_t id = 0; id + 1 < keys.size() && !between; ++id) {
    const CellKey k = keys.at(id);
    const CellKey next{k.x, k.y, k.z + 1};
    if (next == keys.at(id + 1)) continue;
    EXPECT_EQ(grid.FindLarge(next), nullptr) << next.ToString();
    between = true;
  }
  EXPECT_TRUE(between);

  // Prune every point of the middle cell: a labelled build has no cell
  // there, and its neighbours in key order are still found.
  const std::uint32_t middle = static_cast<std::uint32_t>(keys.size() / 2);
  const CellKey pruned = keys.at(middle);
  LabelSet labels = LabelSet::MakeAllOnes(set);
  for (ObjectId i = 0; i < set.size(); ++i) {
    for (std::size_t j = 0; j < set[i].points.size(); ++j) {
      if (grid.LargeCellOf(i, j) == middle) {
        labels.labels[i][j] &= static_cast<std::uint8_t>(~label::kMap);
      }
    }
  }
  BiGrid labelled(set, r);
  labelled.Build(&labels);
  EXPECT_EQ(labelled.NumLargeCells(), grid.NumLargeCells() - 1);
  EXPECT_EQ(labelled.FindLarge(pruned), nullptr);
  EXPECT_NE(labelled.FindLarge(keys.at(middle - 1)), nullptr);
  EXPECT_NE(labelled.FindLarge(keys.at(middle + 1)), nullptr);
}

/// Random objects, plus one cell every object shares (runs of ones) and
/// one that objects 0-63 share (a last word of all ones).
ObjectSet DenseSet() {
  ObjectSet base = testing::MakeRandomObjects(260, 3, 8, 30.0, 21);
  ObjectSet set;
  for (ObjectId i = 0; i < base.size(); ++i) {
    Object o = base[i];
    o.points.push_back(Point{0.1, 0.1, 0.1});
    if (i < 64) o.points.push_back(Point{90.1, 90.1, 90.1});
    set.Add(std::move(o));
  }
  return set;
}

// Each cell bitset is encoded once, byte for byte as ascending Set calls
// over its objects encode it, at exact capacity; each large cell's bits
// list exactly its posting objects.
TEST(BiGridTest, CellBitsetsAreIncrementalEncodings) {
  const ObjectSet set = DenseSet();
  const double r = 3.0;
  const LabelSet labels = PruneSome(set);
  for (const LabelSet* lab : {static_cast<const LabelSet*>(nullptr), &labels}) {
    const BruteGrid want = Brute(set, r, lab);
    for (int threads : {1, 2, 3, 4}) {
      SCOPED_TRACE("threads " + std::to_string(threads));
      BiGrid grid(set, r);
      grid.BuildParallel(threads, lab);
      EXPECT_EQ(grid.NumSmallCells(), want.small.size());
      EXPECT_EQ(grid.NumLargeCells(), want.large.size());
      for (const auto& [kt, ids] : want.small) {
        const SmallCell* cell = grid.FindSmall(AsKey(kt));
        ASSERT_NE(cell, nullptr);
        const Ewah inc = SetEach(ids);
        EXPECT_EQ(cell->bits.buffer(), inc.buffer());
        EXPECT_EQ(cell->bits.SizeInBits(), inc.SizeInBits());
        EXPECT_EQ(cell->bits.MemoryUsageBytes(), cell->bits.CompressedBytes());
      }
      for (const auto& [kt, postings] : want.large) {
        const LargeCell* cell = grid.FindLarge(AsKey(kt));
        ASSERT_NE(cell, nullptr);
        std::vector<ObjectId> ids;
        for (const auto& [obj, pts] : postings) ids.push_back(obj);
        const Ewah inc = SetEach(ids);
        EXPECT_EQ(cell->bits.buffer(), inc.buffer());
        EXPECT_EQ(cell->bits.SizeInBits(), inc.SizeInBits());
        EXPECT_EQ(cell->bits.MemoryUsageBytes(), cell->bits.CompressedBytes());
        EXPECT_EQ(PostObjs(*cell), ids);
        ExpectBitsInLockstep(*cell);
      }
    }
  }
  // The shared cells hit both word shapes the fold treats specially.
  BiGrid grid(set, r);
  grid.Build();
  const SmallCell* all = grid.FindSmall(KeyForWidth({0.1, 0.1, 0.1},
                                                    grid.small_width()));
  ASSERT_NE(all, nullptr);
  EXPECT_EQ(all->bits.Count(), set.size());
  const SmallCell* first64 = grid.FindSmall(
      KeyForWidth({90.1, 90.1, 90.1}, grid.small_width()));
  ASSERT_NE(first64, nullptr);
  EXPECT_EQ(first64->bits.buffer(),
            (std::vector<std::uint64_t>{std::uint64_t(1) << 33,
                                        ~std::uint64_t(0)}));
}

// The cells' postings tile the grid's three arrays in id order: every
// mapped point once, objects ascending, each object's points in input
// order, and each cell's block [xs | ys | zs].
TEST(BiGridTest, PostingsPartitionTheirShardArrays) {
  const ObjectSet set = testing::MakeRandomObjects(40, 4, 12, 20.0, 22, 2.0);
  const double r = 3.5;
  const LabelSet labels = PruneSome(set);
  for (const LabelSet* lab : {static_cast<const LabelSet*>(nullptr), &labels}) {
    const BruteGrid want = Brute(set, r, lab);
    for (int threads : {1, 2, 3, 4}) {
      SCOPED_TRACE("threads " + std::to_string(threads));
      BiGrid grid(set, r);
      grid.BuildParallel(threads, lab);
      const LargeGridData& large = *grid.ShareLargeGrid();
      std::size_t objs = 0, points = 0;
      for (const LargeCell& c : large.cells) {
        EXPECT_EQ(c.post_obj.data(), large.post_obj.data() + objs);
        EXPECT_EQ(c.post_start, large.post_start.data() + objs);
        EXPECT_EQ(c.post_xyz, large.post_xyz.data() + 3 * points);
        ASSERT_FALSE(c.post_obj.empty());
        EXPECT_EQ(c.post_start[0], 0u);
        for (std::size_t k = 1; k < c.post_obj.size(); ++k) {
          EXPECT_LT(c.post_obj[k - 1], c.post_obj[k]);
          EXPECT_LT(c.post_start[k - 1], c.post_start[k]);
        }
        EXPECT_LT(c.post_start[c.post_obj.size() - 1], c.NumPostingPoints());
        objs += c.post_obj.size();
        points += c.NumPostingPoints();
      }
      EXPECT_EQ(objs, large.post_obj.size());
      EXPECT_EQ(objs, large.post_start.size());
      EXPECT_EQ(3 * points, large.post_xyz.size());
      EXPECT_EQ(points, want.mapped_points);
      for (const auto& [kt, postings] : want.large) {
        const LargeCell* cell = grid.FindLarge(AsKey(kt));
        ASSERT_NE(cell, nullptr);
        ASSERT_EQ(cell->post_obj.size(), postings.size());
        const std::size_t size = cell->NumPostingPoints();
        for (std::size_t idx = 0; idx < postings.size(); ++idx) {
          const PostingView view = cell->PostingAt(idx);
          EXPECT_EQ(view.xs, cell->post_xyz + cell->post_start[idx]);
          EXPECT_EQ(view.ys, view.xs + size);
          EXPECT_EQ(view.zs, view.xs + 2 * size);
          const std::vector<Point>& pts = postings[idx].second;
          ASSERT_EQ(view.size, pts.size());
          for (std::size_t q = 0; q < pts.size(); ++q) {
            EXPECT_EQ(view[q], pts[q]);
          }
        }
      }
    }
  }
}

/// MemoryUsage recomputed by walking every structure: index tables,
/// cell arrays, posting arrays, the neighbour table, every cell bitset,
/// every ready b_adj, the points' cell ids and the key lists.
std::vector<std::pair<std::string, std::size_t>> ReferenceMemory(
    const BiGrid& grid) {
  std::vector<std::pair<std::string, std::size_t>> parts;
  const SmallGrid& sg = grid.small_grid();
  std::size_t small = sg.cells.capacity() * sizeof(SmallCell) +
                      sg.base.capacity() * sizeof(std::uint32_t);
  for (const CellIndex& index : sg.index) small += index.TableBytes();
  for (const SmallCell& cell : sg.cells) small += cell.bits.MemoryUsageBytes();
  parts.emplace_back("small_grid", small);
  const LargeGridData& data = *grid.ShareLargeGrid();
  std::size_t large = data.cells.capacity() * sizeof(LargeCell) +
                      data.post_obj.capacity() * sizeof(ObjectId) +
                      data.post_start.capacity() * sizeof(std::uint32_t) +
                      data.post_xyz.capacity() * sizeof(double) +
                      data.nbr_off.capacity() * sizeof(std::uint32_t) +
                      data.nbr_ids.capacity() * sizeof(std::uint32_t);
  for (const LargeCell& cell : data.cells) {
    large += cell.bits.MemoryUsageBytes();
    if (cell.AdjReady()) large += cell.adj.MemoryUsageBytes();
  }
  large += data.point_begin.capacity() * sizeof(std::size_t) +
           data.point_cell.capacity() * sizeof(std::uint32_t);
  parts.emplace_back("large_grid", large);
  const std::size_t n = grid.objects().size();
  std::size_t keys = (n + 1) * sizeof(std::uint32_t);
  for (ObjectId i = 0; i < n; ++i) {
    keys += grid.KeyList(i).size() * sizeof(std::uint32_t);
  }
  parts.emplace_back("key_lists", keys);
  return parts;
}

void ExpectTallyMatchesWalk(const BiGrid& grid) {
  EXPECT_EQ(grid.MemoryUsage().parts, ReferenceMemory(grid));
}

/// A tripped build leaves an empty, incomplete grid that any read may
/// still touch: no cell, no key, only empty tables.
void ExpectAbandoned(const BiGrid& grid) {
  EXPECT_FALSE(grid.large_grid_complete());
  EXPECT_EQ(grid.NumSmallCells(), 0u);
  EXPECT_EQ(grid.NumLargeCells(), 0u);
  for (ObjectId i = 0; i < grid.objects().size(); ++i) {
    EXPECT_TRUE(grid.KeyList(i).empty());
  }
  ExpectTallyMatchesWalk(grid);
  const ObjectSet& set = grid.objects();
  for (ObjectId i = 0; i < set.size(); ++i) {
    for (const Point& p : set[i].points) {
      ASSERT_EQ(grid.FindSmall(KeyForWidth(p, grid.small_width())), nullptr);
      ASSERT_EQ(grid.FindLarge(KeyForWidth(p, grid.large_width())), nullptr);
    }
  }
}

// A guard that trips during the first pass, by cancellation or by an
// injected allocation fault, abandons the build: the grid is empty and
// incomplete, and the engine never caches it. An adopter that trips
// leaves the shared grid as it was.
TEST(BiGridTest, TrippedBuildIsIncompleteAndUncached) {
  const ObjectSet set = testing::MakeRandomObjects(600, 3, 6, 40.0, 6);
  const double r = 3.0;
  BiGrid cached(set, r);
  cached.Build();
  CancelToken token;
  token.Cancel();
  for (int threads : {1, 3}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    QueryGuard guard;
    guard.SetCancelToken(&token);
    BiGrid grid(set, r);
    grid.BuildParallel(threads, nullptr, &guard);
    EXPECT_EQ(guard.code(), StatusCode::kCancelled);
    ExpectAbandoned(grid);

    QueryGuard adopter_guard;
    adopter_guard.SetCancelToken(&token);
    BiGrid adopter(set, r, /*planar=*/false, cached.ShareLargeGrid());
    adopter.BuildParallel(threads, nullptr, &adopter_guard);
    EXPECT_EQ(adopter.NumSmallCells(), 0u);
    EXPECT_TRUE(cached.large_grid_complete());
    EXPECT_EQ(adopter.NumLargeCells(), cached.NumLargeCells());
  }
  if (!fault::kCompiledIn) return;
  struct Disarm {
    ~Disarm() { fault::Reset(); }
  } disarm;
  for (int threads : {1, 3}) {
    // The second check trips, once a stride of objects is mapped.
    ASSERT_TRUE(fault::Arm("alloc.bigrid", "nth=2").ok());
    QueryGuard guard;
    BiGrid grid(set, r);
    grid.BuildParallel(threads, nullptr, &guard);
    fault::Reset();
    EXPECT_EQ(guard.code(), StatusCode::kResourceExhausted);
    ExpectAbandoned(grid);
  }
  MioEngine engine(set);
  QueryOptions opt;
  opt.reuse_grid = true;
  ASSERT_TRUE(fault::Arm("alloc.bigrid", "nth=1").ok());
  EXPECT_FALSE(engine.Query(r, opt).complete);
  fault::Reset();
  QueryResult rebuilt = engine.Query(r, opt);
  EXPECT_TRUE(rebuilt.complete);
  EXPECT_FALSE(rebuilt.stats.reused_grid);
  EXPECT_TRUE(engine.Query(r, opt).stats.reused_grid);
}

// MemoryUsage reads byte tallies, not the cells, and they equal a walk
// of every structure: after a build, after EnsureAdj (also from several
// threads at once), and on a grid adopting a cached large grid an earlier
// query extended.
TEST(BiGridTest, MemoryTalliesMatchAReferenceWalk) {
  const ObjectSet set = testing::MakeRandomObjects(60, 4, 12, 25.0, 23, 3.0);
  const double r = 3.2;
  const LabelSet labels = PruneSome(set);
  for (int threads : {1, 3}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    BiGrid labelled(set, r);
    labelled.BuildParallel(threads, &labels);
    ExpectTallyMatchesWalk(labelled);

    BiGrid grid(set, r);
    grid.BuildParallel(threads);
    ExpectTallyMatchesWalk(grid);
    std::vector<std::uint32_t> ids;
    for (const auto& [id, key] : LargeKeys(grid)) ids.push_back(id);
    for (std::size_t c = 0; c < ids.size(); c += 2) grid.EnsureAdj(ids[c]);
    ExpectTallyMatchesWalk(grid);
    std::vector<std::thread> racers;
    for (int t = 0; t < 4; ++t) {
      racers.emplace_back([&] {
        for (std::uint32_t id : ids) grid.EnsureAdj(id);
      });
    }
    for (std::thread& racer : racers) racer.join();
    ExpectTallyMatchesWalk(grid);

    BiGrid shared(set, r);
    shared.BuildParallel(threads);
    shared.EnsureAdj(shared.LargeCellOf(0, 0));
    BiGrid adopter(set, 3.7, /*planar=*/false, shared.ShareLargeGrid());
    adopter.Build(&labels);
    ASSERT_TRUE(adopter.reused_large_grid());
    ExpectTallyMatchesWalk(adopter);

    // LargeGridPostingBytes: the posting arrays' bytes, which are the
    // cells' postings.
    const LargeGridData& large = *grid.ShareLargeGrid();
    const std::size_t arrays = large.post_obj.size() * sizeof(ObjectId) +
                               large.post_start.size() * sizeof(std::uint32_t) +
                               large.post_xyz.size() * sizeof(double);
    std::size_t cells = 0;
    grid.ForEachLargeCell([&](const CellKey&, LargeCell& cell) {
      cells += cell.post_obj.size() * sizeof(ObjectId) +
               cell.post_obj.size() * sizeof(std::uint32_t) +
               cell.NumPostingPoints() * 3 * sizeof(double);
    });
    EXPECT_EQ(LargeGridPostingBytes(*grid.ShareLargeGrid()), arrays);
    EXPECT_EQ(arrays, cells);
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
  first.BuildParallel(2);
  for (const auto& [id, key] : LargeKeys(first)) first.EnsureAdj(id);
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
