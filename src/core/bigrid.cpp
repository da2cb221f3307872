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

// Striped locks guarding the lazy b_adj memoisation of shared
// LargeGridData cells. Keyed by address so the shared structs stay plain
// copyable data; 64 stripes keep cross-cell contention negligible while
// bounding lock storage. Stripe collisions between unrelated cells only
// serialise two unions, never deadlock (no path holds two stripes at
// once).
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

/// The shard of `shards` that owns the cell with key k.
std::size_t ShardOf(const CellKey& k, std::size_t shards) {
  return shards == 1 ? 0 : CellKeyHash{}(k) % shards;
}

constexpr ObjectId kNoObject = static_cast<ObjectId>(-1);

/// One cell's pass-1 counts, which pass 2 turns into its write cursors.
struct CellTally {
  ObjectId last_obj = kNoObject;  ///< last object seen (dedup)
  std::uint32_t objects = 0;      ///< distinct objects, then object cursor
  std::uint32_t points = 0;       ///< points, then point cursor (large)
};

/// One shard's pass-1 state for one grid: its cells' tallies, and for
/// the large grid their keys, by the dense index Intern gives them.
struct ShardScratch {
  std::vector<CellTally> tally;
  std::vector<CellKey> keys;      ///< large grid: read by SortLargeCells
  std::vector<std::uint32_t> id;  ///< large grid: index -> cell id

  /// Index of the cell with key k in `index`, created on first sight;
  /// `keep_key` appends a new cell's key to `keys`.
  std::uint32_t Intern(CellIndex* index, const CellKey& k, bool keep_key) {
    std::uint32_t& slot = (*index)[k];
    if (slot == 0) {
      tally.emplace_back();
      if (keep_key) keys.push_back(k);
      slot = static_cast<std::uint32_t>(tally.size());
    }
    return slot - 1;
  }
};

/// One grid's cells by id for pass 2: their tallies, which Offsets turns
/// into write cursors, and their offsets into the grid's arrays. Dropped
/// when the build ends.
struct GridScratch {
  std::vector<CellTally> tally;        ///< by cell id
  std::vector<std::uint32_t> obj_off;  ///< by cell id, then the end
  std::vector<std::uint32_t> pt_off;   ///< large grid: by cell id, then end
  std::vector<ObjectId> members;       ///< small grid: each cell's objects
  std::vector<std::uint32_t> dirs;     ///< large grid: nbr_dirs by id

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

/// Cell ids [begin, end) of shard t's share of `cells` ids split evenly.
std::pair<std::size_t, std::size_t> Share(std::size_t cells, std::size_t t,
                                          std::size_t shards) {
  return {cells * t / shards, cells * (t + 1) / shards};
}

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

/// Numbers every large cell by its rank in key order and lists each
/// cell's existing neighbours. Sorts all shards' cells by key once; a
/// shard's `id` maps each of its cells to its rank, and `out->tally`
/// takes the shards' tallies by rank. Then one sweep over the sorted
/// cells finds each cell's neighbours: those of (x, y, z) in column
/// (x + dx, y + dy) are the cells (x + dx, y + dy, z - 1..z + 1), a run of
/// at most three in key order. Each of the nine columns keeps a cursor at
/// the first cell not below (x + dx, y + dy, z - 1), which only moves
/// forward as the sweep does. Columns in (dx, dy) order, each run by dz,
/// is ForEachNeighbor order. The table goes to `grid`, nbr_dirs to
/// out->dirs; the shards' keys and tallies are freed.
void SortLargeCells(std::vector<ShardScratch>* scratch, int bits,
                    GridScratch* out, LargeGridData* grid) {
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
    (*scratch)[t].id.resize(keys.size());
    std::vector<CellKey>().swap(keys);
  }
  RadixSortByKey(&cells);
  out->tally.resize(total);
  out->dirs.resize(total);
  for (std::size_t id = 0; id < total; ++id) {
    ShardScratch& sx = (*scratch)[cells[id].id & mask];
    const std::uint32_t c = cells[id].id >> bits;
    sx.id[c] = static_cast<std::uint32_t>(id);
    out->tally[id] = sx.tally[c];
  }
  for (ShardScratch& sx : *scratch) std::vector<CellTally>().swap(sx.tally);

  grid->nbr_off.resize(total + 1);
  std::array<std::size_t, 9> cursor{};
  for (std::size_t id = 0; id < total; ++id) {
    const SweepCell& c = cells[id];
    grid->nbr_off[id] = static_cast<std::uint32_t>(grid->nbr_ids.size());
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
        grid->nbr_ids.push_back(static_cast<std::uint32_t>(q));
      }
    }
    out->dirs[id] = dirs;
  }
  grid->nbr_off[total] = static_cast<std::uint32_t>(grid->nbr_ids.size());
  grid->nbr_ids.shrink_to_fit();
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
  return grid.post_obj.capacity() * sizeof(ObjectId) +
         grid.post_start.capacity() * sizeof(std::uint32_t) +
         grid.post_xyz.capacity() * sizeof(double);
}

std::size_t SmallGrid::TableBytes() const {
  std::size_t bytes = cells.capacity() * sizeof(SmallCell) +
                      base.capacity() * sizeof(std::uint32_t);
  for (const CellIndex& shard : index) bytes += shard.TableBytes();
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
                           QueryGuard* guard) {
  MIO_TRACE_SPAN_CAT("grid.build", "grid");
  threads = ResolveThreads(threads);
  const std::size_t shards = static_cast<std::size_t>(threads);
  const ObjectSet& objs = *objects_;
  const std::size_t n = objs.size();
  const bool build_large = !reused_large_;
  const double large_width = large_->width;
  auto reset = [&] {
    small_ = SmallGrid{};
    small_.index.resize(shards);
    small_.base.assign(shards, 0);
    std::fill(key_offsets_.begin(), key_offsets_.end(), 0);
    key_cells_ = std::vector<std::uint32_t>();
    if (build_large) {
      large_ = std::make_shared<LargeGridData>();
      large_->width = large_width;
      large_->complete = labels == nullptr;
    }
  };
  reset();

  // Pass 1 writes each mapped point's cell, per grid, as
  // (index << shard_bits) | t, t the owning shard, so that pass 2 finds its
  // shard's points without hashing their keys again. Unmapped points keep
  // no code: pass 2 skips them by their label, as pass 1 did. Pass 2
  // writes each point's large cell id into point_cell, kNoCell for an
  // unmapped one.
  const int shard_bits = static_cast<int>(std::bit_width(shards - 1));
  const std::uint32_t shard_mask = (std::uint32_t{1} << shard_bits) - 1;
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
  std::vector<CellIndex> large_index(build_large ? shards : 0);
  auto mapped = [&](ObjectId i, std::size_t j) {
    return labels == nullptr || (labels->Get(i, j) & label::kMap) != 0;
  };

  // Pass 1: intern every mapped point's cell in the shard owning its key,
  // counting each cell's distinct objects and (large grid) points. The
  // points arrive in (object, point) order, so an object is new to a cell
  // exactly when it differs from the cell's last one.
  ForEachShard(shards, [&](std::size_t t) {
    MIO_TRACE_SPAN_CAT("grid.map.worker", "grid");
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
        if (ShardOf(ks, shards) == t) {
          const std::uint32_t c =
              sx.Intern(&small_.index[t], ks, /*keep_key=*/false);
          CellTally& tl = sx.tally[c];
          if (tl.last_obj != i) {
            tl.last_obj = i;
            ++tl.objects;
          }
          small_code[pt] = (c << shard_bits) | static_cast<std::uint32_t>(t);
        }
        if (!build_large) continue;
        const CellKey kl = KeyForWidth(p, large_width);
        if (ShardOf(kl, shards) == t) {
          ShardScratch& lx = large_scratch[t];
          const std::uint32_t c =
              lx.Intern(&large_index[t], kl, /*keep_key=*/true);
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
  std::vector<CellIndex>().swap(large_index);  // interning is done
  if (guard != nullptr && guard->tripped()) {
    // Abandoned mid-map: the cells miss points, so the grid is emptied,
    // never cached and never queried; the engine discards it.
    reset();
    small_bytes_ = small_.TableBytes();
    if (build_large) large_->complete = false;
    return;
  }

  // Give the small cells ids shard after shard, and the large cells their
  // ranks in key order with their neighbours listed; each grid's tallies
  // then sit by id, and their prefix sums place every cell's block.
  GridScratch small_ids;
  for (std::size_t t = 0; t < shards; ++t) {
    std::vector<CellTally>& tally = small_scratch[t].tally;
    small_.base[t] = static_cast<std::uint32_t>(small_ids.tally.size());
    if (t == 0) {
      small_ids.tally.swap(tally);
    } else {
      small_ids.tally.insert(small_ids.tally.end(), tally.begin(),
                             tally.end());
    }
    std::vector<CellTally>().swap(tally);
  }
  small_ids.Offsets(/*points=*/false);
  small_ids.members.resize(small_ids.obj_off.back());
  GridScratch large_ids;
  LargeGridData& large = *large_;
  if (build_large) {
    SortLargeCells(&large_scratch, shard_bits, &large_ids, &large);
    large_ids.Offsets(/*points=*/true);
    large.post_obj.resize(large_ids.obj_off.back());
    large.post_start.resize(large_ids.obj_off.back());
    large.post_xyz.resize(3 * std::size_t{large_ids.pt_off.back()});
    large.point_cell.resize(num_points);
  }

  // Pass 2: scatter each cell's distinct objects (small grid), and its
  // posting objects, their offsets and its coordinates (large grid), into
  // the grid's arrays at the offsets the counts give. Each shard writes
  // the cells it owns, so the shards fill disjoint ranges, and the large
  // cells' blocks follow their keys.
  ForEachShard(shards, [&](std::size_t t) {
    const std::uint32_t base = small_.base[t];
    for (ObjectId i = 0; i < n; ++i) {
      const Object& o = objs[i];
      for (std::size_t j = 0; j < o.points.size(); ++j) {
        const std::size_t pt = first_point[i] + j;
        if (!mapped(i, j)) {
          if (build_large && t == 0) large.point_cell[pt] = kNoCell;
          continue;
        }
        const std::uint32_t sc = small_code[pt];
        if ((sc & shard_mask) == t) {
          CellTally& tl = small_ids.tally[base + (sc >> shard_bits)];
          if (tl.last_obj != i) {
            tl.last_obj = i;
            small_ids.members[tl.objects++] = i;
          }
        }
        if (!build_large) continue;
        const std::uint32_t lc = large_code[pt];
        if ((lc & shard_mask) != t) continue;
        const std::uint32_t c = large_scratch[t].id[lc >> shard_bits];
        large.point_cell[pt] = c;
        CellTally& tl = large_ids.tally[c];
        const std::uint32_t first = large_ids.pt_off[c];
        if (tl.last_obj != i) {
          tl.last_obj = i;
          large.post_obj[tl.objects] = i;
          large.post_start[tl.objects] = tl.points - first;
          ++tl.objects;
        }
        const std::size_t size = large_ids.pt_off[c + 1] - first;
        double* xs = large.post_xyz.data() + 3 * std::size_t{first};
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
  std::vector<CellTally>().swap(small_ids.tally);
  std::vector<CellTally>().swap(large_ids.tally);

  // Encode each cell bitset once from its ascending ids, at exact size;
  // each shard encodes an even share of each grid's ids.
  small_.cells.resize(small_ids.obj_off.size() - 1);
  const std::size_t large_cells = build_large ? large_ids.dirs.size() : 0;
  if (build_large) large.cells.resize(large_cells);
  std::vector<std::size_t> small_bytes(shards, 0), large_bytes(shards, 0);
  ForEachShard(shards, [&](std::size_t t) {
    std::vector<std::uint64_t> scratch;
    const auto [small_begin, small_end] = Share(small_.cells.size(), t, shards);
    for (std::size_t c = small_begin; c < small_end; ++c) {
      SmallCell& cell = small_.cells[c];
      cell.bits = Ewah::FromSortedIds(small_ids.Objects(small_ids.members, c),
                                      &scratch);
      small_bytes[t] += cell.bits.MemoryUsageBytes();
    }
    const auto [large_begin, large_end] = Share(large_cells, t, shards);
    for (std::size_t c = large_begin; c < large_end; ++c) {
      LargeCell& cell = large.cells[c];
      const std::uint32_t first = large_ids.pt_off[c];
      cell.post_obj = large_ids.Objects(large.post_obj, c);
      cell.post_start = large.post_start.data() + large_ids.obj_off[c];
      cell.post_xyz = large.post_xyz.data() + 3 * std::size_t{first};
      cell.num_points = large_ids.pt_off[c + 1] - first;
      cell.nbr_dirs = large_ids.dirs[c];
      cell.bits = Ewah::FromSortedIds(cell.post_obj, &scratch);
      large_bytes[t] += cell.bits.MemoryUsageBytes();
    }
  });
  small_bytes_ = small_.TableBytes();
  for (std::size_t b : small_bytes) small_bytes_ += b;
  if (build_large) {
    large.point_begin = std::move(first_point);
    large.built_bytes =
        large.cells.capacity() * sizeof(LargeCell) +
        LargeGridPostingBytes(large) +
        (large.nbr_off.capacity() + large.nbr_ids.capacity() +
         large.point_cell.capacity()) * sizeof(std::uint32_t) +
        large.point_begin.capacity() * sizeof(std::size_t);
    for (std::size_t b : large_bytes) large.built_bytes += b;
  }

  // Key lists: a cell belongs to o_i.L iff it holds two or more objects
  // and o_i is one of them (Algorithm 3 lines 5-13). Count each object's
  // cells, then fill its range, advancing key_offsets_[i] as its cursor
  // and shifting the offsets back after.
  auto for_each_shared_cell = [&](auto&& f) {
    for (std::size_t c = 0; c < small_.cells.size(); ++c) {
      std::span<const ObjectId> ids = small_ids.Objects(small_ids.members, c);
      if (ids.size() >= 2) f(static_cast<std::uint32_t>(c), ids);
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
}

void BiGrid::PointsByCell(ObjectId i, std::vector<CellPoint>* out) const {
  out->clear();
  const std::size_t m = (*objects_)[i].points.size();
  const std::uint32_t* cell = large_->point_cell.data() + large_->point_begin[i];
  for (std::size_t j = 0; j < m; ++j) {
    if (cell[j] != kNoCell) {
      out->push_back(CellPoint{cell[j], static_cast<std::uint32_t>(j)});
    }
  }
  std::sort(out->begin(), out->end());
}

// ---------------------------------------------------------------------------
// Lookup
// ---------------------------------------------------------------------------

const SmallCell* BiGrid::FindSmall(const CellKey& k) const {
  const std::size_t t = ShardOf(k, small_.index.size());
  const std::uint32_t* slot = small_.index[t].Find(k);
  return slot != nullptr ? &small_.cells[small_.base[t] + *slot - 1]
                         : nullptr;
}

const LargeCell* BiGrid::FindLarge(const CellKey& k) const {
  const std::vector<LargeCell>& cells = large_->cells;
  auto it = std::partition_point(
      cells.begin(), cells.end(),
      [&](const LargeCell& cell) { return LargeKey(cell) < k; });
  return it != cells.end() && LargeKey(*it) == k ? &*it : nullptr;
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
  return mb;
}

BitsetCompressionStats BiGrid::CompressionStats() const {
  BitsetCompressionStats stats;
  for (const SmallCell& cell : small_.cells) stats.Add(cell.bits);
  for (const LargeCell& cell : large_->cells) {
    stats.Add(cell.bits);
    if (cell.AdjReady()) stats.Add(cell.adj);
  }
  return stats;
}

}  // namespace mio
