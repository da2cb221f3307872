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
// Cells are created on demand (no empty cells), every point maps to
// exactly one cell per grid (no replication), and each build operation is
// O(1) amortised — GRID-MAPPING is O(nm) (paper Algorithm 3).
//
// Because the large grid depends only on ceil(r) (the observation behind
// the paper's label mechanism, §III-D), it is held in a shareable
// LargeGridData block: the engine can cache it — including the memoised
// b_adj bitsets and the P_{i,K} groups — and reuse it verbatim for every
// later query with the same ceiling, skipping half of grid mapping and
// all first-touch neighbourhood unions. This grid reuse is an engineering
// extension of the paper's "leveraging previous results" idea.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <unordered_map>
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

/// One small-grid cell: the compressed bitset plus the build-time
/// bookkeeping that feeds the key lists (Algorithm 3 lines 5-13).
struct SmallCell {
  Ewah bits;
  /// First object mapped into the cell; when a second distinct object
  /// arrives, this one retroactively receives the key in its key list.
  ObjectId first_obj = 0;
  /// Last object that touched the cell (dedups same-object points: the
  /// build iterates objects in ascending id order).
  ObjectId last_obj = static_cast<ObjectId>(-1);
  /// Number of distinct objects in the cell (|b| without a popcount).
  std::uint32_t num_objects = 0;
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

/// One large-grid cell: bitset, lazy neighbourhood bitset, and the
/// inverted list I(c) stored as postings grouped by object id (ascending,
/// because the build visits objects in id order). Posting coordinates are
/// kept structure-of-arrays (contiguous xs/ys/zs) so verification's inner
/// loop is one batch-kernel call per (point, candidate-object) pair.
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

  ObjectId last_obj = static_cast<ObjectId>(-1);

  std::vector<ObjectId> post_obj;        ///< object ids (ascending)
  std::vector<std::uint32_t> post_start; ///< post_obj-parallel offsets
  std::vector<double> post_xs;           ///< concatenated posting xs
  std::vector<double> post_ys;           ///< concatenated posting ys
  std::vector<double> post_zs;           ///< concatenated posting zs

  /// Appends a point to object `obj`'s posting (obj must be >= the last
  /// object added — the ascending build order).
  void AddPostingPoint(ObjectId obj, const Point& p);

  /// Posting list I(c)[obj], empty when the object has no points here.
  PostingView Posting(ObjectId obj) const;

  /// Posting list of post_obj[idx] (no binary search).
  PostingView PostingAt(std::size_t idx) const;

  /// Total points stored across all postings.
  std::size_t NumPostingPoints() const { return post_xs.size(); }

  std::size_t MemoryUsageBytes() const;
};

/// Per-object grouping of points by large-grid key (paper §IV: P_{i,K}),
/// the unit of the cost-based parallel partitioning.
struct PointGroup {
  CellKey key;
  std::vector<std::uint32_t> point_idx;
};

/// One grid shard: a flat open-addressing index (16-byte slots, cheap to
/// probe and to rehash) pointing into a stable deque pool of cells (fat
/// structs never move, so rehashing never copies them and cell pointers
/// stay valid across inserts).
template <typename Cell>
struct CellShard {
  // Slot values are index+1; 0 means absent.
  FlatHashMap<CellKey, std::uint32_t, CellKeyHash> index;
  std::deque<Cell> cells;

  Cell& GetOrCreate(const CellKey& k) {
    std::uint32_t& slot = index[k];
    if (slot == 0) {
      cells.emplace_back();
      slot = static_cast<std::uint32_t>(cells.size());
    }
    return cells[slot - 1];
  }
  Cell* Find(const CellKey& k) {
    std::uint32_t* slot = index.Find(k);
    return (slot != nullptr && *slot != 0) ? &cells[*slot - 1] : nullptr;
  }
  const Cell* Find(const CellKey& k) const {
    const std::uint32_t* slot = index.Find(k);
    return (slot != nullptr && *slot != 0) ? &cells[*slot - 1] : nullptr;
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
    return index.TableBytes() + cells.size() * sizeof(Cell);
  }
};

/// The shareable half of a BIGrid: everything that depends only on
/// ceil(r) — the large-grid cells (with their lazily memoised b_adj) and
/// the per-object P_{i,K} groups. `complete` marks grids built from every
/// point (no label pruning); only complete grids may be cached, since a
/// labelled build omits points and its groups reference fewer cells.
struct LargeGridData {
  double width = 0.0;
  std::vector<CellShard<LargeCell>> shards;
  std::vector<std::vector<PointGroup>> groups;
  bool has_groups = false;
  bool complete = false;

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

  /// GRID-MAPPING(O, r), serial (paper Algorithm 3). When `labels` is
  /// non-empty, points with a cleared kMap bit are skipped entirely
  /// (GRID-MAPPING-WITH-LABEL, Lemma 3). `build_groups` additionally
  /// materialises the P_{i,K} groups needed by the parallel phases.
  /// `guard` (optional) is polled on an amortised stride and checked
  /// against the "alloc.bigrid" fault site; a tripped guard abandons the
  /// build early (the grid is then incomplete and must be discarded).
  void Build(const LabelSet* labels = nullptr, bool build_groups = false,
             QueryGuard* guard = nullptr);

  /// Hash-partitioned parallel build (paper §IV, PARALLEL-GRID-MAPPING):
  /// each thread owns the cells whose key hashes to it, so no cell is
  /// written by two threads; the key lists are derived in a post-pass,
  /// which yields exactly the sets Algorithm 3 builds incrementally.
  void BuildParallel(int threads, const LabelSet* labels = nullptr,
                     bool build_groups = false, QueryGuard* guard = nullptr);

  const ObjectSet& objects() const { return *objects_; }
  double r() const { return r_; }
  double small_width() const { return small_width_; }
  double large_width() const { return large_->width; }

  const SmallCell* FindSmall(const CellKey& k) const;
  const LargeCell* FindLarge(const CellKey& k) const;
  LargeCell* FindLarge(const CellKey& k);

  /// o_i.L — small-grid keys of cells shared with at least one other
  /// object (exactly the cells that contribute to the lower bound).
  const std::vector<CellKey>& KeyList(ObjectId i) const {
    return key_lists_[i];
  }

  /// P_{i,K} groups; only populated when built with build_groups.
  const std::vector<PointGroup>& LargeGroups(ObjectId i) const {
    return large_->groups[i];
  }
  bool has_groups() const { return large_->GroupsReady(); }

  /// Computes (memoises) b_adj of the cell with key k; returns the cell.
  /// Thread-safe, including against other BiGrids sharing this cell via a
  /// cached LargeGridData: the memoised path is one acquire load, and
  /// builders serialise on a per-cell stripe lock (double-checked), so a
  /// cell's union is computed exactly once across all concurrent readers.
  LargeCell& EnsureAdj(const CellKey& k);

  /// b_adj of `cell`, the cell with key k, computed afresh: its bitset
  /// ORed with those of its existing neighbours in this thread's
  /// UnionAccumulator, encoded as the Ewah::Or fold from the cell's own
  /// bitset would be (which keeps that bitset verbatim when no neighbour
  /// exists). Writes |b_adj| to `count`. EnsureAdj memoises it; UB-greedy-d
  /// keeps private per-thread memos of it.
  Ewah NeighborhoodUnion(const CellKey& k, const LargeCell& cell,
                         std::uint32_t* count) const;

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

  /// Structure footprint (the paper's memory-usage figures).
  MemoryBreakdown MemoryUsage() const;

  /// Compression accounting over every cell bitset (paper footnote 4).
  BitsetCompressionStats CompressionStats() const;

  /// Iterates large cells (used by the parallel builder's post passes).
  template <typename F>
  void ForEachLargeCell(F&& f) {
    for (auto& shard : large_->shards) {
      shard.ForEach([&](const CellKey& key, LargeCell& cell) { f(key, cell); });
    }
  }

 private:
  using SmallMap = CellShard<SmallCell>;
  using LargeMap = CellShard<LargeCell>;

  // The grids are sharded by key hash: the serial build uses one shard;
  // the parallel build gives each thread exclusive ownership of one shard
  // per grid, so cell creation and bitset updates need no synchronisation.
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

  void MapPointSmall(ObjectId i, const Point& p, bool update_key_lists);
  void MapPointLarge(ObjectId i, const Point& p);
  /// Builds the P_{i,K} groups once per LargeGridData. On a reused
  /// (shared) grid the build happens under the grid's stripe lock with a
  /// double check, so concurrent queries adopting the same cached grid
  /// race safely: one builds, the rest adopt.
  void BuildGroups(const LabelSet* labels, int threads);
  void BuildGroupsFor(ObjectId i, const LabelSet* labels);
  void DeriveKeyListsFromCells(int threads);

  const ObjectSet* objects_;
  double r_;
  double small_width_;

  std::vector<SmallMap> small_;
  std::shared_ptr<LargeGridData> large_;
  bool reused_large_ = false;
  std::vector<std::vector<CellKey>> key_lists_;
};

}  // namespace mio
