// BIGrid (paper §III-A): the hybrid of compressed Bitsets, Inverted lists
// and spatial Grids. Two uniform hash grids are built online per query:
//
//   small grid  — cell width r/sqrt(3) (r/sqrt(2) for planar data); each
//     cell holds one compressed bitset b(c) of the objects with a point in
//     the cell. Two points in one cell are certainly within r (the cell
//     diagonal is exactly r), so the small grid drives lower-bounding.
//   large grid  — cell width ceil(r); each cell holds its bitset b(c), a
//     lazily computed neighbourhood union b_adj(c) = OR of b over the cell
//     and its 26 neighbours, and an inverted list of postings (the points
//     of each object inside the cell). Points within r of a point in the
//     cell must lie in the 27-cell neighbourhood, so the large grid drives
//     upper-bounding and verification.
//
// Cells exist only where points fall (no empty cells), and every point
// maps to exactly one cell per grid (no replication). GRID-MAPPING
// (paper Algorithm 3) is two O(nm) passes over the points in (object,
// point) order: the first gives each point a dense cell id per grid and
// counts each cell's points and distinct objects, the second scatters
// object ids and coordinates into a few exact-size arrays per grid. Each
// cell bitset is then encoded once, and the key lists are derived from
// the cells that hold two or more objects.
//
// The query phases name cells by id, never by key. A large cell's id is
// its rank in key order, so the large grid has one layout at every thread
// count: one cell array, one set of posting arrays and one neighbour
// table, all in key order. A small cell's id is its shard's base plus its
// index in the shard. Each point keeps its large cell's id and each key
// list holds small-cell ids; hash indexes intern cells while the grid is
// mapped, and only the small grid keeps its index afterwards (for
// FindSmall: a small cell holds no point to recover its key from).
//
// Because the large grid depends only on ceil(r) (the observation behind
// the paper's label mechanism, §III-D), it is held in a shareable
// LargeGridData block: the engine can cache it — including the memoised
// b_adj bitsets — and reuse it verbatim for every later query with the
// same ceiling, skipping half of grid mapping and all first-touch
// neighbourhood unions. This grid reuse is an engineering extension of
// the paper's "leveraging previous results" idea.
#pragma once

#include <atomic>
#include <compare>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "bitset/bitset_stats.hpp"
#include "bitset/ewah.hpp"
#include "common/flat_hash_map.hpp"
#include "common/memory_tracker.hpp"
#include "core/labels.hpp"
#include "geo/cell_key.hpp"
#include "object/object_set.hpp"

namespace mio {

class QueryGuard;  // common/guardrails.hpp

/// One small-grid cell: the compressed bitset b(c) of the objects with a
/// point in the cell.
struct SmallCell {
  Ewah bits;
};

/// Structure-of-arrays view over one posting list: three parallel
/// coordinate spans, consumable directly by the batch kernels
/// (geo/kernels.hpp) with zero pointer chasing.
struct PostingView {
  const double* xs = nullptr;
  const double* ys = nullptr;
  const double* zs = nullptr;
  std::size_t size = 0;

  bool empty() const { return size == 0; }
  Point operator[](std::size_t i) const { return Point{xs[i], ys[i], zs[i]}; }
};

/// The id of no cell: what a point the build skipped holds.
inline constexpr std::uint32_t kNoCell = ~std::uint32_t{0};

/// One large-grid cell: bitset, lazy neighbourhood bitset, and the
/// inverted list I(c): postings grouped by object id, ascending. The
/// postings live in the grid's arrays (LargeGridData): the cell's points
/// form one [xs | ys | zs] block there, and each object's posting
/// is one index range of all three thirds, so verification's inner loop
/// is one batch-kernel call per (point, candidate-object) pair.
struct LargeCell {
  Ewah bits;

  Ewah adj;                      ///< b_adj(c); valid iff adj_computed
  bool adj_computed = false;
  std::uint32_t adj_count = 0;   ///< |b_adj(c)| memoised for Labeling-1

  /// Acquire-load of adj_computed. Cells of a cached large grid are
  /// shared across concurrently running queries, and b_adj is memoised
  /// lazily: EnsureAdj release-stores the flag only after adj/adj_count
  /// are fully written, so a reader that observes true may use them
  /// without further synchronisation. Every cross-query read of
  /// adj_computed must go through this (a plain read races the store).
  bool AdjReady() const {
    return std::atomic_ref<const bool>(adj_computed)
        .load(std::memory_order_acquire);
  }

  std::span<const ObjectId> post_obj;         ///< object ids (ascending)
  /// post_obj-parallel offsets: post_obj.size() entries
  const std::uint32_t* post_start = nullptr;
  const double* post_xyz = nullptr;           ///< the [xs | ys | zs] block
  std::uint32_t num_points = 0;               ///< points in the block
  /// Which neighbours exist: bit d for the d-th cell of
  /// ForEachNeighbor(key, /*include_self=*/true), so bit 13, the cell
  /// itself, is clear. The grid's neighbour table lists these cells by
  /// id in ascending d.
  std::uint32_t nbr_dirs = 0;

  /// Posting list I(c)[obj], empty when the object has no points here.
  PostingView Posting(ObjectId obj) const;

  /// Posting list of post_obj[idx] (no binary search).
  PostingView PostingAt(std::size_t idx) const;

  /// Total points stored across all postings.
  std::size_t NumPostingPoints() const { return num_points; }
};

/// One point of an object and its large cell's id, ordered by cell, then
/// point index: sorted, an object's points form one run per cell, its
/// P_{i,K} groups (paper §IV).
struct CellPoint {
  std::uint32_t cell = kNoCell;
  std::uint32_t idx = 0;

  auto operator<=>(const CellPoint&) const = default;
};

using CellIndex = FlatHashMap<CellKey, std::uint32_t, CellKeyHash>;

/// The small grid: its cells, shard after shard, and each shard's index
/// from key to the cell's place in the shard plus one (0 means absent).
/// Shard t's cells start at base[t], so a cell's id is base[t] + its
/// place. A build gives each thread one shard, the cells whose key hashes
/// to it; the serial build has one shard.
struct SmallGrid {
  std::vector<SmallCell> cells;
  std::vector<CellIndex> index;
  std::vector<std::uint32_t> base;

  /// Bytes of the indexes, the cell array and the bases.
  std::size_t TableBytes() const;
};

/// The shareable half of a BIGrid: everything that depends only on
/// ceil(r) — the large-grid cells (with their lazily memoised b_adj), in
/// ascending key order, so that a cell's id is its index; their postings,
/// cell after cell, in three exact-size arrays that the cells' spans point
/// into; the neighbour table, where cell c's existing neighbours are
/// nbr_ids[nbr_off[c], nbr_off[c + 1]) in ForEachNeighbor order; and each
/// point's cell id. The layout is the same at every thread count.
/// `complete` marks grids built from every point (no label pruning); only
/// complete grids may be cached, since a labelled build omits points.
struct LargeGridData {
  double width = 0.0;
  std::vector<LargeCell> cells;
  std::vector<ObjectId> post_obj;         ///< each cell's posting objects
  std::vector<std::uint32_t> post_start;  ///< post_obj-parallel offsets
  std::vector<double> post_xyz;           ///< each cell's [xs | ys | zs]
  std::vector<std::uint32_t> nbr_off;     ///< by cell, then the end
  std::vector<std::uint32_t> nbr_ids;     ///< each cell's neighbours
  /// Point j of object i is point_begin[i] + j of point_cell, which holds
  /// its cell's id, or kNoCell for a point the build skipped.
  std::vector<std::size_t> point_begin;
  std::vector<std::uint32_t> point_cell;
  bool complete = false;

  /// Byte tallies read by BiGrid::MemoryUsage, so that it walks no cell:
  /// the grid as built (cell array, posting arrays, cell bitsets,
  /// neighbour table, point ids), and every memoised b_adj (EnsureAdj
  /// adds each one, possibly from concurrent queries).
  std::size_t built_bytes = 0;
  std::atomic<std::size_t> adj_bytes{0};
};

/// Bytes held by the SoA posting arrays across all cells of the grid —
/// the payload a batch class shares instead of rebuilding per member.
std::size_t LargeGridPostingBytes(const LargeGridData& grid);

/// The BIGrid index for one query threshold r over one object collection.
class BiGrid {
 public:
  /// Prepares an empty index; call Build (or the parallel builder) next.
  /// `objects` must outlive the BiGrid. `planar` selects the 2-D small
  /// grid (width r/sqrt(2)) for constant-z data — sound only when every
  /// point shares one z value (the engine auto-detects this). `reuse`
  /// (optional) adopts a cached large grid for the same ceiling; Build
  /// then maps only the small grid.
  BiGrid(const ObjectSet& objects, double r, bool planar = false,
         std::shared_ptr<LargeGridData> reuse = nullptr);

  /// GRID-MAPPING(O, r) (paper Algorithm 3) on one thread: BuildParallel
  /// with one shard per grid.
  void Build(const LabelSet* labels = nullptr, QueryGuard* guard = nullptr) {
    BuildParallel(1, labels, guard);
  }

  /// GRID-MAPPING(O, r), hash-partitioned (paper §IV,
  /// PARALLEL-GRID-MAPPING): thread t owns shard t of each grid, the cells
  /// whose key hashes to it, so no cell is written by two threads; one
  /// thread is the one-shard case. The shards partition the work only:
  /// the large grid comes out the same at every thread count. When
  /// `labels` is non-empty, points with a cleared kMap bit are skipped
  /// entirely (GRID-MAPPING-WITH-LABEL, Lemma 3). `guard` (optional) is
  /// polled on an amortised stride of the first pass and checked against
  /// the "alloc.bigrid" fault site; a tripped guard abandons the build
  /// (the grid is then empty and incomplete, and must be discarded).
  void BuildParallel(int threads, const LabelSet* labels = nullptr,
                     QueryGuard* guard = nullptr);

  const ObjectSet& objects() const { return *objects_; }
  double r() const { return r_; }
  double small_width() const { return small_width_; }
  double large_width() const { return large_->width; }

  /// The cell with key k, or nullptr, for the tests: a hash probe of the
  /// small grid's index, and a binary search of the large cells by the
  /// key of each cell's first posting point. The query phases name cells
  /// by id.
  const SmallCell* FindSmall(const CellKey& k) const;
  const LargeCell* FindLarge(const CellKey& k) const;

  /// The small cell with id `id` (a KeyList entry).
  const SmallCell& SmallCellAt(std::uint32_t id) const {
    return small_.cells[id];
  }
  /// The large cell with id `id`.
  LargeCell& LargeCellAt(std::uint32_t id) { return large_->cells[id]; }
  const LargeCell& LargeCellAt(std::uint32_t id) const {
    return large_->cells[id];
  }
  /// The ids of large cell `id`'s existing neighbours, in ForEachNeighbor
  /// order; LargeCellAt(id).nbr_dirs says which neighbour each one is.
  std::span<const std::uint32_t> LargeNeighbors(std::uint32_t id) const {
    const std::uint32_t* off = large_->nbr_off.data() + id;
    return {large_->nbr_ids.data() + off[0], off[1] - off[0]};
  }
  /// The id of point j of object i's large cell, or kNoCell when the
  /// build skipped the point (its kMap label was cleared).
  std::uint32_t LargeCellOf(ObjectId i, std::size_t j) const {
    return large_->point_cell[large_->point_begin[i] + j];
  }
  /// Object i's points the large grid holds, sorted into `out`: one run
  /// per cell, its P_{i,K} group, with ascending point indices. Ids
  /// ascend by key, so the runs come in key order at every thread count.
  void PointsByCell(ObjectId i, std::vector<CellPoint>* out) const;

  /// o_i.L — the ids of the small cells shared with at least one other
  /// object (exactly the cells that contribute to the lower bound).
  std::span<const std::uint32_t> KeyList(ObjectId i) const {
    return {key_cells_.data() + key_offsets_[i],
            key_offsets_[i + 1] - key_offsets_[i]};
  }

  /// Computes (memoises) b_adj of large cell `id`; returns the cell.
  /// Thread-safe, including against other BiGrids sharing this cell via a
  /// cached LargeGridData: the memoised path is one acquire load, and
  /// builders serialise on a per-cell stripe lock (double-checked), so a
  /// cell's union is computed exactly once across all concurrent readers.
  LargeCell& EnsureAdj(std::uint32_t id);

  /// b_adj of large cell `id`, computed afresh: its bitset ORed with
  /// those of its listed neighbours in this thread's UnionAccumulator,
  /// encoded as the Ewah::Or fold from the cell's own bitset would be
  /// (which keeps that bitset verbatim when no neighbour exists). Writes
  /// |b_adj| to `count`. EnsureAdj memoises it; UB-greedy-d keeps private
  /// per-thread memos of it.
  Ewah NeighborhoodUnion(std::uint32_t id, std::uint32_t* count) const;

  /// Shares the ceil(r)-dependent half for reuse by later queries with
  /// the same ceiling (includes memoised b_adj).
  std::shared_ptr<LargeGridData> ShareLargeGrid() const { return large_; }
  /// True when the large grid covers every point (cacheable).
  bool large_grid_complete() const { return large_->complete; }
  /// True when this index adopted a cached large grid.
  bool reused_large_grid() const { return reused_large_; }

  std::size_t NumSmallCells() const { return small_.cells.size(); }
  std::size_t NumLargeCells() const { return large_->cells.size(); }

  /// Structure footprint (the paper's memory-usage figures), read from
  /// byte tallies the build and EnsureAdj keep.
  MemoryBreakdown MemoryUsage() const;

  /// Compression accounting over every cell bitset (paper footnote 4).
  BitsetCompressionStats CompressionStats() const;

  /// Iterates large cells in key order.
  template <typename F>
  void ForEachLargeCell(F&& f) {
    for (LargeCell& cell : large_->cells) f(LargeKey(cell), cell);
  }

  /// The small grid (its cells and indexes).
  const SmallGrid& small_grid() const { return small_; }

 private:
  /// A large cell's key: that of its first posting point.
  CellKey LargeKey(const LargeCell& cell) const {
    return KeyForWidth(cell.PostingAt(0)[0], large_->width);
  }

  const ObjectSet* objects_;
  double r_;
  double small_width_;

  SmallGrid small_;
  std::size_t small_bytes_ = 0;  ///< small_'s tables, cells and bitsets
  std::shared_ptr<LargeGridData> large_;
  bool reused_large_ = false;
  /// Key lists: object i's small-cell ids are
  /// key_cells_[key_offsets_[i], key_offsets_[i+1]).
  std::vector<std::uint32_t> key_offsets_;
  std::vector<std::uint32_t> key_cells_;
};

}  // namespace mio
