#include "core/bigrid.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <mutex>

#include "common/fault_injection.hpp"
#include "common/guardrails.hpp"
#include "common/omp_utils.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace mio {

namespace {

// Striped locks guarding the lazy mutations of shared LargeGridData —
// b_adj memoisation (per cell) and group building (per grid). Keyed by
// address so the shared structs stay plain copyable data; 64 stripes keep
// cross-cell contention negligible while bounding lock storage. Stripe
// collisions between unrelated cells only serialise two builders, never
// deadlock (no path holds two stripes at once).
std::mutex& StripeFor(const void* p) {
  static std::array<std::mutex, 64> stripes;
  auto h = reinterpret_cast<std::uintptr_t>(p);
  h ^= h >> 9;  // drop allocation-alignment zeros before folding
  return stripes[h % stripes.size()];
}

/// Runs f(t) for every shard t < shards, one thread per shard; one shard
/// runs on the calling thread.
template <typename F>
void ForEachShard(std::size_t shards, F&& f) {
  if (shards == 1) {
    f(std::size_t{0});
    return;
  }
  const auto count = static_cast<std::int64_t>(shards);
#pragma omp parallel for schedule(static, 1) num_threads(static_cast<int>(shards))
  for (std::int64_t t = 0; t < count; ++t) f(static_cast<std::size_t>(t));
}

/// Index and cell-array bytes of a grid's shards.
template <typename Shard>
std::size_t TableBytes(const std::vector<Shard>& shards) {
  std::size_t bytes = 0;
  for (const Shard& shard : shards) bytes += shard.TableBytes();
  return bytes;
}

constexpr ObjectId kNoObject = static_cast<ObjectId>(-1);

/// One cell's pass-1 counts, which pass 2 turns into its write cursors.
struct CellTally {
  ObjectId last_obj = kNoObject;  ///< last object seen (dedup)
  std::uint32_t objects = 0;      ///< distinct objects, then object cursor
  std::uint32_t points = 0;       ///< points, then point cursor (large)
};

using CellIndex = FlatHashMap<CellKey, std::uint32_t, CellKeyHash>;

/// One shard's build state for one grid, dropped when the build ends.
struct ShardScratch {
  std::vector<CellTally> tally;        ///< by cell id
  std::vector<std::uint32_t> obj_off;  ///< by cell id, then the end
  std::vector<std::uint32_t> pt_off;   ///< large grid: by cell id, then end
  std::vector<CellKey> keys;           ///< by cell id
  std::vector<ObjectId> members;       ///< small grid: each cell's objects
  std::vector<std::uint32_t> renum;    ///< large grid: pass-1 id -> id
  std::vector<std::uint32_t> dirs;     ///< large grid: nbr_dirs by id

  /// Dense id of the cell with key k in `index`, created on first sight.
  std::uint32_t Intern(CellIndex* index, const CellKey& k) {
    std::uint32_t& slot = (*index)[k];
    if (slot == 0) {
      tally.emplace_back();
      keys.push_back(k);
      slot = static_cast<std::uint32_t>(tally.size());
    }
    return slot - 1;
  }

  /// Moves each cell's tally to its new id and points `index` at the new
  /// ids: the renumbering SortLargeCells left in `renum`.
  void Renumber(CellIndex* index) {
    std::vector<CellTally> moved(tally.size());
    for (std::size_t c = 0; c < tally.size(); ++c) moved[renum[c]] = tally[c];
    tally.swap(moved);
    index->ForEach([&](const CellKey&, std::uint32_t& slot) {
      slot = renum[slot - 1] + 1;
    });
  }

  /// Exclusive prefix sums of the tallies into obj_off (and pt_off), which
  /// resets each tally into its cell's cursors.
  void Offsets(bool points) {
    const std::size_t cells = tally.size();
    obj_off.resize(cells + 1);
    if (points) pt_off.resize(cells + 1);
    std::uint32_t objs = 0, pts = 0;
    for (std::size_t c = 0; c < cells; ++c) {
      CellTally& tl = tally[c];
      obj_off[c] = objs;
      objs += tl.objects;
      tl.objects = obj_off[c];
      if (points) {
        pt_off[c] = pts;
        pts += tl.points;
        tl.points = pt_off[c];
      }
      tl.last_obj = kNoObject;
    }
    obj_off[cells] = objs;
    if (points) pt_off[cells] = pts;
  }

  std::span<const ObjectId> Objects(const std::vector<ObjectId>& all,
                                    std::size_t c) const {
    return {all.data() + obj_off[c], obj_off[c + 1] - obj_off[c]};
  }
};

/// A large cell in the sweep's key order: its lattice coordinates with
/// the sign bit flipped, so that unsigned order is signed order, x and y
/// packed into one word.
struct SweepCell {
  std::uint64_t xy;
  std::uint32_t z;
  std::uint32_t id;
};

std::uint32_t Ordered(std::int32_t v) {
  return static_cast<std::uint32_t>(v) ^ 0x80000000u;
}

/// Sorts `cells` into key order (CellKey::operator<): an LSD radix sort,
/// z first, eleven bits at a time, that skips each digit all cells share.
/// One read counts every digit.
void RadixSortByKey(std::vector<SweepCell>* cells) {
  constexpr int kBits = 11;
  constexpr int kDigits = 9;  // 3 of z, then 6 of xy
  constexpr std::size_t kRadix = std::size_t{1} << kBits;
  auto digit = [](const SweepCell& c, int d) -> std::size_t {
    const std::uint64_t word = d < 3 ? c.z : c.xy;
    const int shift = kBits * (d < 3 ? d : d - 3);
    return static_cast<std::size_t>(word >> shift) & (kRadix - 1);
  };
  std::vector<std::uint32_t> count(kDigits * kRadix, 0);
  for (const SweepCell& c : *cells) {
    for (int d = 0; d < kDigits; ++d) ++count[d * kRadix + digit(c, d)];
  }
  std::vector<SweepCell> out(cells->size());
  for (int d = 0; d < kDigits; ++d) {
    std::uint32_t* bucket = count.data() + d * kRadix;
    if (cells->empty() || bucket[digit(cells->front(), d)] == cells->size()) {
      continue;
    }
    std::uint32_t sum = 0;
    for (std::size_t b = 0; b < kRadix; ++b) {
      const std::uint32_t n = bucket[b];
      bucket[b] = sum;
      sum += n;
    }
    for (const SweepCell& c : *cells) out[bucket[digit(c, d)]++] = c;
    cells->swap(out);
  }
}

/// Numbers every large shard's cells in ascending key order and lists
/// each cell's existing neighbours. Sorts all cells by key once; a shard's
/// cells take their new ids in that order (in `renum`), so each shard
/// ascends by key. Then one sweep over the sorted cells finds each cell's
/// neighbours: those of (x, y, z) in column (x + dx, y + dy) are the cells
/// (x + dx, y + dy, z - 1..z + 1), a run of at most three in key order.
/// Each of the nine columns keeps a cursor at the first cell not below
/// (x + dx, y + dy, z - 1), which only moves forward as the sweep does.
/// Columns in (dx, dy) order, each run by dz, is ForEachNeighbor order.
/// The table goes to the shards, nbr_dirs to `dirs`; the keys are freed.
void SortLargeCells(std::vector<ShardScratch>* scratch, LargeGridData* grid) {
  const int bits = grid->shard_bits;
  const std::uint32_t mask = (std::uint32_t{1} << bits) - 1;
  std::size_t total = 0;
  for (const ShardScratch& sx : *scratch) total += sx.keys.size();
  std::vector<SweepCell> cells;
  cells.reserve(total);
  for (std::size_t t = 0; t < scratch->size(); ++t) {
    std::vector<CellKey>& keys = (*scratch)[t].keys;
    for (std::size_t c = 0; c < keys.size(); ++c) {
      const CellKey& k = keys[c];
      cells.push_back(SweepCell{
          (std::uint64_t{Ordered(k.x)} << 32) | Ordered(k.y), Ordered(k.z),
          static_cast<std::uint32_t>((c << bits) | t)});
    }
    (*scratch)[t].renum.resize(keys.size());
    (*scratch)[t].dirs.resize(keys.size());
    std::vector<CellKey>().swap(keys);
  }
  RadixSortByKey(&cells);
  std::vector<std::uint32_t> next(scratch->size(), 0);
  for (SweepCell& c : cells) {
    const std::uint32_t t = c.id & mask;
    const std::uint32_t id = next[t]++;
    (*scratch)[t].renum[c.id >> bits] = id;
    c.id = (id << bits) | t;
  }

  for (std::size_t t = 0; t < scratch->size(); ++t) {
    grid->shards[t].nbr_off.resize((*scratch)[t].renum.size() + 1);
    grid->shards[t].nbr_ids.clear();
  }
  std::array<std::size_t, 9> cursor{};
  for (const SweepCell& c : cells) {
    const std::uint32_t t = c.id & mask;
    LargeShard& shard = grid->shards[t];
    const std::uint32_t id = c.id >> bits;
    shard.nbr_off[id] = static_cast<std::uint32_t>(shard.nbr_ids.size());
    const std::uint32_t x = static_cast<std::uint32_t>(c.xy >> 32);
    const std::uint32_t y = static_cast<std::uint32_t>(c.xy);
    std::uint32_t dirs = 0;
    for (std::uint32_t col = 0; col < 9; ++col) {
      // x + dx and y + dy; a query's domain check leaves one cell of
      // headroom on each side, so neither wraps.
      const std::uint64_t xy = (std::uint64_t{x + col / 3 - 1} << 32) |
                               std::uint32_t{y + col % 3 - 1};
      const std::uint32_t z = c.z - 1;
      std::size_t& p = cursor[col];
      while (p < cells.size() &&
             (cells[p].xy < xy || (cells[p].xy == xy && cells[p].z < z))) {
        ++p;
      }
      for (std::size_t q = p; q < cells.size() && q < p + 3; ++q) {
        if (cells[q].xy != xy || cells[q].z > c.z + 1) break;
        const std::uint32_t d = 3 * col + (cells[q].z - z);
        if (d == kNeighborhoodSize / 2) continue;  // the cell itself
        dirs |= std::uint32_t{1} << d;
        shard.nbr_ids.push_back(cells[q].id);
      }
    }
    (*scratch)[t].dirs[id] = dirs;
  }
  for (LargeShard& shard : grid->shards) {
    shard.nbr_off.back() = static_cast<std::uint32_t>(shard.nbr_ids.size());
    shard.nbr_ids.shrink_to_fit();
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// LargeCell
// ---------------------------------------------------------------------------

PostingView LargeCell::PostingAt(std::size_t idx) const {
  std::uint32_t begin = post_start[idx];
  std::uint32_t end = idx + 1 < post_obj.size() ? post_start[idx + 1]
                                                : num_points;
  const double* xs = post_xyz + begin;
  return PostingView{xs, xs + num_points, xs + 2 * std::size_t{num_points},
                     end - begin};
}

PostingView LargeCell::Posting(ObjectId obj) const {
  auto it = std::lower_bound(post_obj.begin(), post_obj.end(), obj);
  if (it == post_obj.end() || *it != obj) return {};
  return PostingAt(static_cast<std::size_t>(it - post_obj.begin()));
}

std::size_t LargeGridPostingBytes(const LargeGridData& grid) {
  std::size_t bytes = 0;
  for (const auto& shard : grid.shards) bytes += shard.PostingBytes();
  return bytes;
}

// ---------------------------------------------------------------------------
// BiGrid build
// ---------------------------------------------------------------------------

BiGrid::BiGrid(const ObjectSet& objects, double r, bool planar,
               std::shared_ptr<LargeGridData> reuse)
    : objects_(&objects),
      r_(r),
      small_width_(planar ? SmallGridWidth2D(r) : SmallGridWidth(r)),
      key_offsets_(objects.size() + 1, 0) {
  double width = LargeGridWidth(r);
  if (reuse != nullptr && reuse->width == width && reuse->complete) {
    large_ = std::move(reuse);
    reused_large_ = true;
  } else {
    large_ = std::make_shared<LargeGridData>();
    large_->width = width;
  }
}

void BiGrid::BuildParallel(int threads, const LabelSet* labels,
                           bool build_groups, QueryGuard* guard) {
  MIO_TRACE_SPAN_CAT("grid.build", "grid");
  threads = ResolveThreads(threads);
  const std::size_t shards = static_cast<std::size_t>(threads);
  const ObjectSet& objs = *objects_;
  const std::size_t n = objs.size();
  const bool build_large = !reused_large_;
  const int shard_bits = static_cast<int>(std::bit_width(shards - 1));
  const std::uint32_t shard_mask = (std::uint32_t{1} << shard_bits) - 1;
  auto reset = [&] {
    small_.clear();
    small_.resize(shards);
    small_bits_ = shard_bits;
    std::fill(key_offsets_.begin(), key_offsets_.end(), 0);
    key_cells_ = std::vector<std::uint32_t>();
    if (build_large) {
      large_->shard_bits = shard_bits;
      large_->shards.clear();
      large_->shards.resize(shards);
      large_->point_begin = std::vector<std::size_t>();
      large_->point_cell = std::vector<std::uint32_t>();
      large_->groups.clear();
      large_->has_groups = false;
      large_->complete = labels == nullptr;
      large_->built_bytes = 0;
      large_->adj_bytes = 0;
      large_->group_bytes = 0;
    }
  };
  reset();

  // Pass 1 writes each mapped point's cell, per grid, as (id << bits) | t,
  // t the owning shard, so that pass 2 finds its shard's points without
  // hashing their keys again. Unmapped points keep no code: pass 2 skips
  // them by their label, as pass 1 did. Pass 2 writes each point's
  // renumbered large cell into point_cell, kNoCell for an unmapped one.
  std::vector<std::size_t> first_point(n + 1, 0);
  for (ObjectId i = 0; i < n; ++i) {
    first_point[i + 1] = first_point[i] + objs[i].points.size();
  }
  const std::size_t num_points = first_point[n];
  auto small_code = std::make_unique_for_overwrite<std::uint32_t[]>(
      num_points);
  auto large_code = std::make_unique_for_overwrite<std::uint32_t[]>(
      build_large ? num_points : 0);
  std::vector<ShardScratch> small_scratch(shards);
  std::vector<ShardScratch> large_scratch(build_large ? shards : 0);
  auto mapped = [&](ObjectId i, std::size_t j) {
    return labels == nullptr || (labels->Get(i, j) & label::kMap) != 0;
  };

  // Pass 1: intern every mapped point's cell in the shard owning its key,
  // counting each cell's distinct objects and (large grid) points. The
  // points arrive in (object, point) order, so an object is new to a cell
  // exactly when it differs from the cell's last one.
  ForEachShard(shards, [&](std::size_t t) {
    MIO_TRACE_SPAN_CAT("grid.map.worker", "grid");
    SmallShard& ss = small_[t];
    ShardScratch& sx = small_scratch[t];
    for (ObjectId i = 0; i < n; ++i) {
      if (guard != nullptr && (i % kGuardStrideObjects) == 0) {
        if (t == 0 && MIO_FAULT_HIT("alloc.bigrid")) guard->TripResource();
        if (guard->Poll()) return;  // each shard drains independently
      }
      const Object& o = objs[i];
      for (std::size_t j = 0; j < o.points.size(); ++j) {
        if (!mapped(i, j)) continue;  // Labeling-1: prunable (Lemma 3)
        const Point& p = o.points[j];
        const std::size_t pt = first_point[i] + j;
        const CellKey ks = KeyForWidth(p, small_width_);
        if (shards == 1 || CellKeyHash{}(ks) % shards == t) {
          const std::uint32_t c = sx.Intern(&ss.index, ks);
          CellTally& tl = sx.tally[c];
          if (tl.last_obj != i) {
            tl.last_obj = i;
            ++tl.objects;
          }
          small_code[pt] = (c << shard_bits) | static_cast<std::uint32_t>(t);
        }
        if (!build_large) continue;
        const CellKey kl = KeyForWidth(p, large_->width);
        if (shards == 1 || CellKeyHash{}(kl) % shards == t) {
          ShardScratch& lx = large_scratch[t];
          const std::uint32_t c = lx.Intern(&large_->shards[t].index, kl);
          CellTally& tl = lx.tally[c];
          if (tl.last_obj != i) {
            tl.last_obj = i;
            ++tl.objects;
          }
          ++tl.points;
          large_code[pt] = (c << shard_bits) | static_cast<std::uint32_t>(t);
        }
      }
    }
  });
  if (guard != nullptr && guard->tripped()) {
    // Abandoned mid-map: the cells miss points, so the grid is emptied,
    // never cached and never queried; the engine discards it.
    reset();
    small_bytes_ = TableBytes(small_);
    if (build_large) {
      large_->complete = false;
      large_->built_bytes = TableBytes(large_->shards);
    }
    return;
  }

  // Number the large cells in key order and list their neighbours.
  std::vector<std::uint32_t>& point_cell = large_->point_cell;
  if (build_large) {
    SortLargeCells(&large_scratch, large_.get());
    point_cell.resize(num_points);
  }

  // Pass 2: scatter each cell's distinct objects (small grid), and its
  // posting objects, their offsets and its coordinates (large grid), into
  // the shard's arrays at the offsets the counts give. The large cells'
  // blocks thus follow their keys.
  ForEachShard(shards, [&](std::size_t t) {
    ShardScratch& sx = small_scratch[t];
    sx.Offsets(/*points=*/false);
    sx.members.resize(sx.obj_off.back());
    LargeShard* ls = build_large ? &large_->shards[t] : nullptr;
    if (ls != nullptr) {
      ShardScratch& lx = large_scratch[t];
      lx.Renumber(&ls->index);
      lx.Offsets(/*points=*/true);
      ls->post_obj.resize(lx.obj_off.back());
      ls->post_start.resize(lx.obj_off.back());
      ls->post_xyz.resize(3 * std::size_t{lx.pt_off.back()});
    }
    for (ObjectId i = 0; i < n; ++i) {
      const Object& o = objs[i];
      for (std::size_t j = 0; j < o.points.size(); ++j) {
        const std::size_t pt = first_point[i] + j;
        if (!mapped(i, j)) {
          if (ls != nullptr && t == 0) point_cell[pt] = kNoCell;
          continue;
        }
        const std::uint32_t sc = small_code[pt];
        if ((sc & shard_mask) == t) {
          CellTally& tl = sx.tally[sc >> shard_bits];
          if (tl.last_obj != i) {
            tl.last_obj = i;
            sx.members[tl.objects++] = i;
          }
        }
        if (ls == nullptr) continue;
        const std::uint32_t lc = large_code[pt];
        if ((lc & shard_mask) != t) continue;
        ShardScratch& lx = large_scratch[t];
        const std::uint32_t c = lx.renum[lc >> shard_bits];
        point_cell[pt] = (c << shard_bits) | static_cast<std::uint32_t>(t);
        CellTally& tl = lx.tally[c];
        const std::uint32_t first = lx.pt_off[c];
        if (tl.last_obj != i) {
          tl.last_obj = i;
          ls->post_obj[tl.objects] = i;
          ls->post_start[tl.objects] = tl.points - first;
          ++tl.objects;
        }
        const std::size_t size = lx.pt_off[c + 1] - first;
        double* xs = ls->post_xyz.data() + 3 * std::size_t{first};
        const std::size_t k = tl.points++ - first;
        const Point& p = o.points[j];
        xs[k] = p.x;
        xs[size + k] = p.y;
        xs[2 * size + k] = p.z;
      }
    }
  });
  small_code.reset();
  large_code.reset();

  // Encode each cell bitset once from its ascending ids, at exact size.
  std::vector<std::size_t> small_bytes(shards, 0), large_bytes(shards, 0);
  ForEachShard(shards, [&](std::size_t t) {
    std::vector<std::uint64_t> scratch;
    ShardScratch& sx = small_scratch[t];
    std::vector<CellTally>().swap(sx.tally);
    SmallShard& ss = small_[t];
    ss.cells.resize(sx.keys.size());
    std::size_t bytes = 0;
    for (std::size_t c = 0; c < ss.cells.size(); ++c) {
      ss.cells[c].bits = Ewah::FromSortedIds(sx.Objects(sx.members, c),
                                             &scratch);
      bytes += ss.cells[c].bits.MemoryUsageBytes();
    }
    small_bytes[t] = bytes + ss.TableBytes();
    if (!build_large) return;
    ShardScratch& lx = large_scratch[t];
    std::vector<CellTally>().swap(lx.tally);
    LargeShard& ls = large_->shards[t];
    ls.cells.resize(lx.obj_off.size() - 1);
    bytes = 0;
    for (std::size_t c = 0; c < ls.cells.size(); ++c) {
      LargeCell& cell = ls.cells[c];
      cell.post_obj = lx.Objects(ls.post_obj, c);
      cell.post_start = ls.post_start.data() + lx.obj_off[c];
      cell.post_xyz = ls.post_xyz.data() + 3 * std::size_t{lx.pt_off[c]};
      cell.num_points = lx.pt_off[c + 1] - lx.pt_off[c];
      cell.nbr_dirs = lx.dirs[c];
      cell.bits = Ewah::FromSortedIds(cell.post_obj, &scratch);
      bytes += cell.bits.MemoryUsageBytes();
    }
    large_bytes[t] = bytes + ls.TableBytes() + ls.PostingBytes();
  });
  small_bytes_ = 0;
  for (std::size_t b : small_bytes) small_bytes_ += b;
  if (build_large) {
    large_->point_begin = std::move(first_point);
    large_->built_bytes =
        large_->point_begin.capacity() * sizeof(std::size_t) +
        point_cell.capacity() * sizeof(std::uint32_t);
    for (std::size_t t = 0; t < shards; ++t) {
      large_->built_bytes += large_bytes[t] + large_->shards[t].NeighborBytes();
    }
  }

  // Key lists: a cell belongs to o_i.L iff it holds two or more objects
  // and o_i is one of them (Algorithm 3 lines 5-13). Count each object's
  // cells, then fill its range, advancing key_offsets_[i] as its cursor
  // and shifting the offsets back after.
  auto for_each_shared_cell = [&](auto&& f) {
    for (std::size_t t = 0; t < shards; ++t) {
      const ShardScratch& sx = small_scratch[t];
      for (std::size_t c = 0; c < sx.keys.size(); ++c) {
        std::span<const ObjectId> ids = sx.Objects(sx.members, c);
        if (ids.size() >= 2) {
          f(static_cast<std::uint32_t>((c << shard_bits) | t), ids);
        }
      }
    }
  };
  for_each_shared_cell([&](std::uint32_t, std::span<const ObjectId> ids) {
    for (ObjectId obj : ids) ++key_offsets_[obj + 1];
  });
  for (std::size_t i = 0; i < n; ++i) key_offsets_[i + 1] += key_offsets_[i];
  key_cells_.resize(key_offsets_[n]);
  for_each_shared_cell([&](std::uint32_t id, std::span<const ObjectId> ids) {
    for (ObjectId obj : ids) key_cells_[key_offsets_[obj]++] = id;
  });
  for (std::size_t i = n; i > 0; --i) key_offsets_[i] = key_offsets_[i - 1];
  key_offsets_[0] = 0;

  if (build_groups) BuildGroups(threads);
}

void BiGrid::BuildGroups(int threads) {
  if (large_->GroupsReady()) return;
  const std::size_t n = objects_->size();
  auto build = [&] {
    large_->groups.assign(n, {});
    if (threads <= 1) {
      for (ObjectId i = 0; i < n; ++i) BuildGroupsFor(i);
    } else {
#pragma omp parallel for schedule(dynamic, 16) num_threads(threads)
      for (ObjectId i = 0; i < n; ++i) BuildGroupsFor(i);
    }
    std::size_t bytes =
        large_->groups.capacity() * sizeof(std::vector<PointGroup>);
    for (const auto& groups : large_->groups) {
      bytes += groups.capacity() * sizeof(PointGroup);
      for (const auto& g : groups) {
        bytes += g.point_idx.capacity() * sizeof(std::uint32_t);
      }
    }
    large_->group_bytes = bytes;
    large_->MarkGroupsReady();
  };
  if (!reused_large_) {
    // Freshly built grid: exclusively owned until the engine caches it, so
    // no lock is needed (and none of its cells are visible to other
    // queries yet).
    build();
    return;
  }
  // Reused shared grid: concurrent queries adopting the same cached grid
  // may race to populate groups. One builds under the grid's stripe lock;
  // the rest adopt via the acquire load in GroupsReady().
  std::lock_guard<std::mutex> lock(StripeFor(large_.get()));
  if (large_->GroupsReady()) return;
  build();
}

void BiGrid::BuildGroupsFor(ObjectId i) {
  // The object's points sorted by (cell, index): each run is one group.
  // The groups are then ordered by their first point, the order in which
  // the object's points reach them.
  const std::size_t m = (*objects_)[i].points.size();
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pts;
  pts.reserve(m);
  for (std::size_t j = 0; j < m; ++j) {
    const std::uint32_t cell = LargeCellOf(i, j);
    if (cell != kNoCell) pts.emplace_back(cell, static_cast<std::uint32_t>(j));
  }
  std::sort(pts.begin(), pts.end());
  std::size_t runs = 0;
  for (std::size_t a = 0; a < pts.size(); ++a) {
    runs += a == 0 || pts[a].first != pts[a - 1].first;
  }
  auto& groups = large_->groups[i];
  groups.reserve(runs);
  for (std::size_t a = 0; a < pts.size();) {
    std::size_t b = a + 1;
    while (b < pts.size() && pts[b].first == pts[a].first) ++b;
    PointGroup& g = groups.emplace_back();
    g.cell = pts[a].first;
    g.point_idx.reserve(b - a);
    for (; a < b; ++a) g.point_idx.push_back(pts[a].second);
  }
  std::sort(groups.begin(), groups.end(),
            [](const PointGroup& x, const PointGroup& y) {
              return x.point_idx.front() < y.point_idx.front();
            });
}

// ---------------------------------------------------------------------------
// Lookup
// ---------------------------------------------------------------------------

const SmallCell* BiGrid::FindSmall(const CellKey& k) const {
  return small_[ShardOfSmall(k)].Find(k);
}

const LargeCell* BiGrid::FindLarge(const CellKey& k) const {
  return large_->shards[ShardOfLarge(k)].Find(k);
}

LargeCell* BiGrid::FindLarge(const CellKey& k) {
  return large_->shards[ShardOfLarge(k)].Find(k);
}

LargeCell& BiGrid::EnsureAdj(std::uint32_t id) {
  LargeCell& cell = LargeCellAt(id);
  if (cell.AdjReady()) return cell;
  // Double-checked locking: a cached grid's cells are shared across
  // concurrently running queries, so two of them may race to memoise the
  // same union. The stripe lock makes exactly one of them build; the
  // release store in the flag (inside AdjReady/below) publishes
  // adj/adj_count to the losers' acquire loads.
  std::lock_guard<std::mutex> lock(StripeFor(&cell));
  if (cell.AdjReady()) return cell;
  obs::Add(obs::Counter::kAdjBuilds);
  cell.adj = NeighborhoodUnion(id, &cell.adj_count);
  large_->adj_bytes.fetch_add(cell.adj.MemoryUsageBytes(),
                              std::memory_order_relaxed);
  std::atomic_ref<bool>(cell.adj_computed)
      .store(true, std::memory_order_release);
  return cell;
}

Ewah BiGrid::NeighborhoodUnion(std::uint32_t id, std::uint32_t* count) const {
  // Whichever thread first needs a union builds it, so the scratch is
  // per thread: n/64 words, reused by every build on that thread.
  thread_local UnionAccumulator acc;
  const LargeCell& cell = LargeCellAt(id);
  const std::span<const std::uint32_t> neighbors = LargeNeighbors(id);
  acc.Clear();
  acc.Add(cell.bits);
  for (std::uint32_t nb : neighbors) acc.Add(LargeCellAt(nb).bits);
  *count = static_cast<std::uint32_t>(acc.Count());
  return neighbors.empty() ? cell.bits : acc.ToEwah();
}

// ---------------------------------------------------------------------------
// Accounting
// ---------------------------------------------------------------------------

MemoryBreakdown BiGrid::MemoryUsage() const {
  MemoryBreakdown mb;
  mb.Add("small_grid", small_bytes_);
  mb.Add("large_grid",
         large_->built_bytes +
             large_->adj_bytes.load(std::memory_order_relaxed));
  mb.Add("key_lists", (key_offsets_.capacity() + key_cells_.capacity()) *
                          sizeof(std::uint32_t));
  if (large_->GroupsReady()) mb.Add("point_groups", large_->group_bytes);
  return mb;
}

BitsetCompressionStats BiGrid::CompressionStats() const {
  BitsetCompressionStats stats;
  for (const auto& shard : small_) {
    shard.ForEach([&](const CellKey&, const SmallCell& cell) {
      stats.Add(cell.bits);
    });
  }
  for (const auto& shard : large_->shards) {
    shard.ForEach([&](const CellKey&, const LargeCell& cell) {
      stats.Add(cell.bits);
      if (cell.AdjReady()) stats.Add(cell.adj);
    });
  }
  return stats;
}

}  // namespace mio
