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
// object ids and coordinates into a few exact-size arrays per shard. Each
// cell bitset is then encoded once, and the key lists are derived from
// the cells that hold two or more objects.
//
// The query phases name cells by id, never by key. A cell's id is
// (its index in its shard << shard bits) | shard. Each large shard
// numbers its cells in ascending key order, and one sweep over all of
// them in key order lists every large cell's existing neighbours by id.
// Each point keeps its large cell's id and each key list holds small-cell
// ids, so the hash index only interns cells while the grid is mapped.
//
// Because the large grid depends only on ceil(r) (the observation behind
// the paper's label mechanism, §III-D), it is held in a shareable
// LargeGridData block: the engine can cache it — including the memoised
// b_adj bitsets and the P_{i,K} groups — and reuse it verbatim for every
// later query with the same ceiling, skipping half of grid mapping and
// all first-touch neighbourhood unions. This grid reuse is an engineering
// extension of the paper's "leveraging previous results" idea.
#pragma once

#include <algorithm>
#include <atomic>
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
/// postings live in the owning shard's arrays (LargeShard): the cell's
/// points form one [xs | ys | zs] block there, and each object's posting
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
  /// itself, is clear. The shard's neighbour table lists these cells by
  /// id in ascending d.
  std::uint32_t nbr_dirs = 0;

  /// Posting list I(c)[obj], empty when the object has no points here.
  PostingView Posting(ObjectId obj) const;

  /// Posting list of post_obj[idx] (no binary search).
  PostingView PostingAt(std::size_t idx) const;

  /// Total points stored across all postings.
  std::size_t NumPostingPoints() const { return num_points; }
};

/// Per-object grouping of points by large-grid cell (paper §IV: P_{i,K}),
/// the unit of the cost-based parallel partitioning.
struct PointGroup {
  std::uint32_t cell = kNoCell;  ///< the large cell's id
  std::vector<std::uint32_t> point_idx;
};

/// One grid shard: a flat open-addressing index (16-byte slots, cheap to
/// probe and to rehash) from key to dense cell id, over an exact-size
/// array of cells. A build gives each thread one shard per grid, the
/// cells whose key hashes to it; the serial build has one shard. The
/// index interns cells while the grid is mapped; queries reach cells by
/// id.
template <typename Cell>
struct CellShard {
  // Slot values are id+1; 0 means absent.
  FlatHashMap<CellKey, std::uint32_t, CellKeyHash> index;
  std::vector<Cell> cells;

  Cell* Find(const CellKey& k) {
    std::uint32_t* slot = index.Find(k);
    return slot != nullptr ? &cells[*slot - 1] : nullptr;
  }
  const Cell* Find(const CellKey& k) const {
    const std::uint32_t* slot = index.Find(k);
    return slot != nullptr ? &cells[*slot - 1] : nullptr;
  }
  std::size_t size() const { return cells.size(); }
  template <typename F>
  void ForEach(F&& f) {
    index.ForEach(
        [&](const CellKey& k, std::uint32_t slot) { f(k, cells[slot - 1]); });
  }
  template <typename F>
  void ForEach(F&& f) const {
    index.ForEach([&](const CellKey& k, std::uint32_t slot) {
      f(k, static_cast<const Cell&>(cells[slot - 1]));
    });
  }
  std::size_t TableBytes() const {
    return index.TableBytes() + cells.capacity() * sizeof(Cell);
  }
};

using SmallShard = CellShard<SmallCell>;

/// A large-grid shard: cells in ascending key order, their postings, cell
/// after cell, in three exact-size arrays that the cells' spans point
/// into, and the neighbour table: cell c's existing neighbours are
/// nbr_ids[nbr_off[c], nbr_off[c + 1]), global ids in ForEachNeighbor
/// order.
struct LargeShard : CellShard<LargeCell> {
  std::vector<ObjectId> post_obj;         ///< each cell's posting objects
  std::vector<std::uint32_t> post_start;  ///< post_obj-parallel offsets
  std::vector<double> post_xyz;           ///< each cell's [xs | ys | zs]
  std::vector<std::uint32_t> nbr_off;     ///< by cell, then the end
  std::vector<std::uint32_t> nbr_ids;     ///< each cell's neighbours

  /// Bytes of the three posting arrays.
  std::size_t PostingBytes() const {
    return post_obj.capacity() * sizeof(ObjectId) +
           post_start.capacity() * sizeof(std::uint32_t) +
           post_xyz.capacity() * sizeof(double);
  }
  /// Bytes of the neighbour table.
  std::size_t NeighborBytes() const {
    return (nbr_off.capacity() + nbr_ids.capacity()) * sizeof(std::uint32_t);
  }
};

/// The shareable half of a BIGrid: everything that depends only on
/// ceil(r) — the large-grid cells (with their lazily memoised b_adj),
/// their neighbour table, each point's cell id and the per-object P_{i,K}
/// groups. `complete` marks grids built from every point (no label
/// pruning); only complete grids may be cached, since a labelled build
/// omits points and its groups reference fewer cells.
struct LargeGridData {
  double width = 0.0;
  /// A cell's id is (its index in its shard << shard_bits) | its shard.
  int shard_bits = 0;
  std::vector<LargeShard> shards;
  /// Point j of object i is point_begin[i] + j of point_cell, which holds
  /// its cell's id, or kNoCell for a point the build skipped.
  std::vector<std::size_t> point_begin;
  std::vector<std::uint32_t> point_cell;
  std::vector<std::vector<PointGroup>> groups;
  bool has_groups = false;
  bool complete = false;

  /// Byte tallies read by BiGrid::MemoryUsage, so that it walks no cell:
  /// the shards as built (tables, cell arrays, posting arrays, cell
  /// bitsets, neighbour tables) with the point ids, every memoised b_adj
  /// (EnsureAdj adds each one, possibly from concurrent queries), and the
  /// groups (set before they are marked ready).
  std::size_t built_bytes = 0;
  std::atomic<std::size_t> adj_bytes{0};
  std::size_t group_bytes = 0;

  /// Acquire-load of has_groups. Like LargeCell::AdjReady: a cached grid
  /// is shared across concurrent queries and the P_{i,K} groups are built
  /// lazily by the first query that needs them (under the grid's stripe
  /// lock); the flag is release-stored after the groups are complete, so
  /// observing true licenses lock-free reads of `groups`.
  bool GroupsReady() const {
    return std::atomic_ref<const bool>(has_groups)
        .load(std::memory_order_acquire);
  }
  void MarkGroupsReady() {
    std::atomic_ref<bool>(has_groups).store(true, std::memory_order_release);
  }
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
  void Build(const LabelSet* labels = nullptr, bool build_groups = false,
             QueryGuard* guard = nullptr) {
    BuildParallel(1, labels, build_groups, guard);
  }

  /// GRID-MAPPING(O, r), hash-partitioned (paper §IV,
  /// PARALLEL-GRID-MAPPING): thread t owns shard t of each grid, the cells
  /// whose key hashes to it, so no cell is written by two threads; one
  /// thread is the one-shard case. When `labels` is non-empty, points with
  /// a cleared kMap bit are skipped entirely (GRID-MAPPING-WITH-LABEL,
  /// Lemma 3). `build_groups` additionally materialises the P_{i,K}
  /// groups needed by the parallel phases. `guard` (optional) is polled
  /// on an amortised stride of the first pass and checked against the
  /// "alloc.bigrid" fault site; a tripped guard abandons the build (the
  /// grid is then empty and incomplete, and must be discarded).
  void BuildParallel(int threads, const LabelSet* labels = nullptr,
                     bool build_groups = false, QueryGuard* guard = nullptr);

  const ObjectSet& objects() const { return *objects_; }
  double r() const { return r_; }
  double small_width() const { return small_width_; }
  double large_width() const { return large_->width; }

  /// The cell with key k, or nullptr: a hash probe, which the build's
  /// interning and the tests use; the query phases name cells by id.
  const SmallCell* FindSmall(const CellKey& k) const;
  const LargeCell* FindLarge(const CellKey& k) const;
  LargeCell* FindLarge(const CellKey& k);

  /// The small cell with id `id` (a KeyList entry).
  const SmallCell& SmallCellAt(std::uint32_t id) const {
    return small_[id & ((std::uint32_t{1} << small_bits_) - 1)]
        .cells[id >> small_bits_];
  }
  /// The large cell with id `id`.
  LargeCell& LargeCellAt(std::uint32_t id) {
    return LargeShardOf(id).cells[id >> large_->shard_bits];
  }
  const LargeCell& LargeCellAt(std::uint32_t id) const {
    return LargeShardOf(id).cells[id >> large_->shard_bits];
  }
  /// The ids of large cell `id`'s existing neighbours, in ForEachNeighbor
  /// order; LargeCellAt(id).nbr_dirs says which neighbour each one is.
  std::span<const std::uint32_t> LargeNeighbors(std::uint32_t id) const {
    const LargeShard& shard = LargeShardOf(id);
    const std::uint32_t c = id >> large_->shard_bits;
    return {shard.nbr_ids.data() + shard.nbr_off[c],
            shard.nbr_off[c + 1] - shard.nbr_off[c]};
  }
  /// One more than the largest large-cell id: the size of an array
  /// indexed by large-cell id.
  std::size_t LargeIdLimit() const {
    std::size_t limit = 0;
    for (std::size_t t = 0; t < large_->shards.size(); ++t) {
      const std::size_t cells = large_->shards[t].size();
      if (cells > 0) {
        limit = std::max(limit, ((cells - 1) << large_->shard_bits) + t + 1);
      }
    }
    return limit;
  }
  /// The id of point j of object i's large cell, or kNoCell when the
  /// build skipped the point (its kMap label was cleared).
  std::uint32_t LargeCellOf(ObjectId i, std::size_t j) const {
    return large_->point_cell[large_->point_begin[i] + j];
  }

  /// o_i.L — the ids of the small cells shared with at least one other
  /// object (exactly the cells that contribute to the lower bound).
  std::span<const std::uint32_t> KeyList(ObjectId i) const {
    return {key_cells_.data() + key_offsets_[i],
            key_offsets_[i + 1] - key_offsets_[i]};
  }

  /// P_{i,K} groups; only populated when built with build_groups.
  const std::vector<PointGroup>& LargeGroups(ObjectId i) const {
    return large_->groups[i];
  }
  bool has_groups() const { return large_->GroupsReady(); }

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
  /// the same ceiling (includes memoised b_adj and groups).
  std::shared_ptr<LargeGridData> ShareLargeGrid() const { return large_; }
  /// True when the large grid covers every point (cacheable).
  bool large_grid_complete() const { return large_->complete; }
  /// True when this index adopted a cached large grid.
  bool reused_large_grid() const { return reused_large_; }

  std::size_t NumSmallCells() const {
    std::size_t n = 0;
    for (const auto& shard : small_) n += shard.size();
    return n;
  }
  std::size_t NumLargeCells() const {
    std::size_t n = 0;
    for (const auto& shard : large_->shards) n += shard.size();
    return n;
  }

  /// Structure footprint (the paper's memory-usage figures), read from
  /// byte tallies the build, EnsureAdj and BuildGroups keep.
  MemoryBreakdown MemoryUsage() const;

  /// Compression accounting over every cell bitset (paper footnote 4).
  BitsetCompressionStats CompressionStats() const;

  /// Iterates large cells.
  template <typename F>
  void ForEachLargeCell(F&& f) {
    for (auto& shard : large_->shards) {
      shard.ForEach([&](const CellKey& key, LargeCell& cell) { f(key, cell); });
    }
  }

  /// The small grid's shards (its cells and tables).
  const std::vector<SmallShard>& small_shards() const { return small_; }

 private:
  LargeShard& LargeShardOf(std::uint32_t id) {
    return large_->shards[id & ((std::uint32_t{1} << large_->shard_bits) - 1)];
  }
  const LargeShard& LargeShardOf(std::uint32_t id) const {
    return large_->shards[id & ((std::uint32_t{1} << large_->shard_bits) - 1)];
  }
  // Small and large shard counts may differ when a cached large grid
  // (built under a different thread count) is adopted.
  std::size_t ShardOfSmall(const CellKey& k) const {
    return small_.size() == 1 ? 0 : CellKeyHash{}(k) % small_.size();
  }
  std::size_t ShardOfLarge(const CellKey& k) const {
    return large_->shards.size() == 1
               ? 0
               : CellKeyHash{}(k) % large_->shards.size();
  }

  /// Builds the P_{i,K} groups once per LargeGridData, over the points
  /// the large grid holds. On a reused (shared) grid the build happens
  /// under the grid's stripe lock with a double check, so concurrent
  /// queries adopting the same cached grid race safely: one builds, the
  /// rest adopt.
  void BuildGroups(int threads);
  void BuildGroupsFor(ObjectId i);

  const ObjectSet* objects_;
  double r_;
  double small_width_;

  std::vector<SmallShard> small_;
  int small_bits_ = 0;           ///< as LargeGridData::shard_bits
  std::size_t small_bytes_ = 0;  ///< small_'s tables, cells and bitsets
  std::shared_ptr<LargeGridData> large_;
  bool reused_large_ = false;
  /// Key lists: object i's small-cell ids are
  /// key_cells_[key_offsets_[i], key_offsets_[i+1]).
  std::vector<std::uint32_t> key_offsets_;
  std::vector<std::uint32_t> key_cells_;
};

}  // namespace mio
