// Structural tests of the BIGrid index: cell contents, key lists,
// postings, lazy neighbourhood bitsets, and serial/parallel build
// equivalence.
#include "core/bigrid.hpp"

#include <gtest/gtest.h>

#include <algorithm>
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

using KeyTuple = std::tuple<int, int, int>;
KeyTuple AsTuple(const CellKey& k) { return {k.x, k.y, k.z}; }
CellKey AsKey(const KeyTuple& t) {
  return CellKey{std::get<0>(t), std::get<1>(t), std::get<2>(t)};
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
  for (const SmallShard& shard : want.small_shards()) {
    shard.ForEach([&](const CellKey& k, const SmallCell& cell) {
      const SmallCell* g = got.FindSmall(k);
      ASSERT_NE(g, nullptr) << k.ToString();
      EXPECT_EQ(g->bits.buffer(), cell.bits.buffer()) << k.ToString();
      EXPECT_EQ(g->bits.SizeInBits(), cell.bits.SizeInBits());
    });
  }
  // Key lists agree as sets per object, without duplicates.
  auto as_set = [](std::span<const CellKey> keys) {
    std::set<KeyTuple> s;
    for (const CellKey& k : keys) s.insert(AsTuple(k));
    return s;
  };
  for (ObjectId i = 0; i < want.objects().size(); ++i) {
    EXPECT_EQ(as_set(got.KeyList(i)), as_set(want.KeyList(i))) << "object " << i;
    EXPECT_EQ(got.KeyList(i).size(), as_set(got.KeyList(i)).size());
  }
}

void ExpectSameLargeGrid(const BiGrid& want, const BiGrid& got) {
  EXPECT_EQ(got.NumLargeCells(), want.NumLargeCells());
  for (const LargeShard& shard : want.ShareLargeGrid()->shards) {
    shard.ForEach([&](const CellKey& k, const LargeCell& cell) {
      const LargeCell* g = got.FindLarge(k);
      ASSERT_NE(g, nullptr) << k.ToString();
      EXPECT_EQ(g->bits.buffer(), cell.bits.buffer()) << k.ToString();
      EXPECT_EQ(g->bits.SizeInBits(), cell.bits.SizeInBits());
      EXPECT_EQ(PostObjs(*g), PostObjs(cell));
      ASSERT_EQ(g->NumPostingPoints(), cell.NumPostingPoints());
      EXPECT_TRUE(std::equal(cell.post_start.begin(), cell.post_start.end(),
                             g->post_start.begin(), g->post_start.end()));
      EXPECT_TRUE(std::equal(cell.post_xyz,
                             cell.post_xyz + 3 * cell.NumPostingPoints(),
                             g->post_xyz));
      ExpectBitsInLockstep(*g);
    });
  }
}

/// Every group of every object, over the points the groups must cover.
void ExpectGroupsCover(const BiGrid& grid, const LabelSet* labels) {
  const ObjectSet& set = grid.objects();
  for (ObjectId i = 0; i < set.size(); ++i) {
    std::size_t want = 0;
    for (std::size_t j = 0; j < set[i].points.size(); ++j) {
      want += Mapped(labels, i, j);
    }
    std::size_t covered = 0;
    for (const PointGroup& g : grid.LargeGroups(i)) covered += g.point_idx.size();
    EXPECT_EQ(covered, want) << "object " << i;
  }
}

// One build path serves every thread count: shard counts 1-4, with and
// without labels, and over an adopted cached grid, give the serial
// build's cell bitsets byte for byte, its postings (ids and coordinates)
// and its key-list sets.
TEST(BiGridTest, ParallelBuildMatchesSerial) {
  ObjectSet set = testing::MakeRandomObjects(30, 5, 12, 25.0, 8);
  double r = 4.5;
  const LabelSet labels = PruneSome(set);
  BiGrid complete(set, r);
  complete.Build(nullptr, true);
  BiGrid cached(set, r);
  cached.BuildParallel(3, nullptr, true);
  ASSERT_TRUE(cached.large_grid_complete());
  for (const LabelSet* lab : {static_cast<const LabelSet*>(nullptr), &labels}) {
    BiGrid serial(set, r);
    serial.Build(lab, true);
    for (int threads : {1, 2, 3, 4}) {
      SCOPED_TRACE("threads " + std::to_string(threads) +
                   (lab != nullptr ? " labelled" : ""));
      BiGrid parallel(set, r);
      parallel.BuildParallel(threads, lab, true);
      ExpectSameSmallGrid(serial, parallel);
      ExpectSameLargeGrid(serial, parallel);
      ExpectGroupsCover(parallel, lab);

      BiGrid adopter(set, r, /*planar=*/false, cached.ShareLargeGrid());
      adopter.BuildParallel(threads, lab, true);
      ASSERT_TRUE(adopter.reused_large_grid());
      ExpectSameSmallGrid(serial, adopter);
      ExpectSameLargeGrid(complete, adopter);
      ExpectGroupsCover(adopter, nullptr);  // a cached grid is complete
    }
  }
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

// The cells' postings tile their shard's three arrays in cell order:
// every mapped point once, objects ascending, each object's points in
// input order, and each cell's block [xs | ys | zs].
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
      std::size_t points = 0;
      for (const LargeShard& shard : grid.ShareLargeGrid()->shards) {
        std::vector<const LargeCell*> cells;
        shard.ForEach([&](const CellKey&, const LargeCell& c) {
          cells.push_back(&c);
        });
        std::sort(cells.begin(), cells.end(),
                  [](const LargeCell* a, const LargeCell* b) {
                    return a->post_obj.data() < b->post_obj.data();
                  });
        std::size_t objs = 0, pts = 0;
        for (const LargeCell* c : cells) {
          EXPECT_EQ(c->post_obj.data(), shard.post_obj.data() + objs);
          EXPECT_EQ(c->post_start.data(), shard.post_start.data() + objs);
          EXPECT_EQ(c->post_xyz, shard.post_xyz.data() + 3 * pts);
          ASSERT_FALSE(c->post_obj.empty());
          EXPECT_EQ(c->post_start.size(), c->post_obj.size());
          EXPECT_EQ(c->post_start[0], 0u);
          for (std::size_t k = 1; k < c->post_obj.size(); ++k) {
            EXPECT_LT(c->post_obj[k - 1], c->post_obj[k]);
            EXPECT_LT(c->post_start[k - 1], c->post_start[k]);
          }
          EXPECT_LT(c->post_start.back(), c->NumPostingPoints());
          objs += c->post_obj.size();
          pts += c->NumPostingPoints();
        }
        EXPECT_EQ(objs, shard.post_obj.size());
        EXPECT_EQ(objs, shard.post_start.size());
        EXPECT_EQ(3 * pts, shard.post_xyz.size());
        points += pts;
      }
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
/// cell arrays, shard posting arrays, every cell bitset, every ready
/// b_adj, the key lists and the groups.
std::vector<std::pair<std::string, std::size_t>> ReferenceMemory(
    const BiGrid& grid) {
  std::vector<std::pair<std::string, std::size_t>> parts;
  std::size_t small = 0;
  for (const SmallShard& shard : grid.small_shards()) {
    small += shard.index.TableBytes() +
             shard.cells.capacity() * sizeof(SmallCell);
    for (const SmallCell& cell : shard.cells) {
      small += cell.bits.MemoryUsageBytes();
    }
  }
  parts.emplace_back("small_grid", small);
  std::size_t large = 0;
  for (const LargeShard& shard : grid.ShareLargeGrid()->shards) {
    large += shard.index.TableBytes() +
             shard.cells.capacity() * sizeof(LargeCell) +
             shard.post_obj.capacity() * sizeof(ObjectId) +
             shard.post_start.capacity() * sizeof(std::uint32_t) +
             shard.post_xyz.capacity() * sizeof(double);
    for (const LargeCell& cell : shard.cells) {
      large += cell.bits.MemoryUsageBytes();
      if (cell.AdjReady()) large += cell.adj.MemoryUsageBytes();
    }
  }
  parts.emplace_back("large_grid", large);
  const std::size_t n = grid.objects().size();
  std::size_t keys = (n + 1) * sizeof(std::uint32_t);
  for (ObjectId i = 0; i < n; ++i) {
    keys += grid.KeyList(i).size() * sizeof(CellKey);
  }
  parts.emplace_back("key_lists", keys);
  if (grid.has_groups()) {
    const auto& all = grid.ShareLargeGrid()->groups;
    std::size_t bytes = all.capacity() * sizeof(std::vector<PointGroup>);
    for (const auto& groups : all) {
      bytes += groups.capacity() * sizeof(PointGroup);
      for (const PointGroup& g : groups) {
        bytes += g.point_idx.capacity() * sizeof(std::uint32_t);
      }
    }
    parts.emplace_back("point_groups", bytes);
  }
  return parts;
}

void ExpectTallyMatchesWalk(const BiGrid& grid) {
  EXPECT_EQ(grid.MemoryUsage().parts, ReferenceMemory(grid));
}

/// A tripped build leaves an empty, incomplete grid that any read may
/// still touch: no cell, no key, no group, only empty tables.
void ExpectAbandoned(const BiGrid& grid) {
  EXPECT_FALSE(grid.large_grid_complete());
  EXPECT_EQ(grid.NumSmallCells(), 0u);
  EXPECT_EQ(grid.NumLargeCells(), 0u);
  EXPECT_FALSE(grid.has_groups());
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
    grid.BuildParallel(threads, nullptr, /*build_groups=*/true, &guard);
    EXPECT_EQ(guard.code(), StatusCode::kCancelled);
    ExpectAbandoned(grid);

    QueryGuard adopter_guard;
    adopter_guard.SetCancelToken(&token);
    BiGrid adopter(set, r, /*planar=*/false, cached.ShareLargeGrid());
    adopter.BuildParallel(threads, nullptr, false, &adopter_guard);
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
    grid.BuildParallel(threads, nullptr, false, &guard);
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
// threads at once), after the groups, and on a grid adopting a cached
// large grid an earlier query extended.
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
    std::vector<CellKey> keys;
    grid.ForEachLargeCell([&](const CellKey& k, LargeCell&) {
      keys.push_back(k);
    });
    for (std::size_t c = 0; c < keys.size(); c += 2) grid.EnsureAdj(keys[c]);
    ExpectTallyMatchesWalk(grid);
    std::vector<std::thread> racers;
    for (int t = 0; t < 4; ++t) {
      racers.emplace_back([&] {
        for (const CellKey& k : keys) grid.EnsureAdj(k);
      });
    }
    for (std::thread& racer : racers) racer.join();
    ExpectTallyMatchesWalk(grid);

    BiGrid grouped(set, r);
    grouped.BuildParallel(threads, nullptr, /*build_groups=*/true);
    ASSERT_TRUE(grouped.has_groups());
    ExpectTallyMatchesWalk(grouped);
    grouped.EnsureAdj(keys.front());
    BiGrid adopter(set, 3.7, /*planar=*/false, grouped.ShareLargeGrid());
    adopter.Build(&labels);
    ASSERT_TRUE(adopter.reused_large_grid());
    ExpectTallyMatchesWalk(adopter);

    // LargeGridPostingBytes: the shard arrays' posting bytes, which are
    // the cells' postings.
    std::size_t arrays = 0, cells = 0;
    for (const LargeShard& shard : grid.ShareLargeGrid()->shards) {
      arrays += shard.post_obj.size() * sizeof(ObjectId) +
                shard.post_start.size() * sizeof(std::uint32_t) +
                shard.post_xyz.size() * sizeof(double);
    }
    grid.ForEachLargeCell([&](const CellKey&, LargeCell& cell) {
      cells += cell.post_obj.size() * sizeof(ObjectId) +
               cell.post_start.size() * sizeof(std::uint32_t) +
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
