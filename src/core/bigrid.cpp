#include "core/bigrid.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <mutex>
#include <unordered_map>

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

/// One shard's build state for one grid, dropped when the build ends.
struct ShardScratch {
  std::vector<CellTally> tally;        ///< by cell id
  std::vector<std::uint32_t> obj_off;  ///< by cell id, then the end
  std::vector<std::uint32_t> pt_off;   ///< large grid: by cell id, then end
  std::vector<CellKey> keys;           ///< small grid: by cell id
  std::vector<ObjectId> members;       ///< small grid: each cell's objects

  /// Dense id of the cell with key k in `index`, created on first sight.
  std::uint32_t Intern(FlatHashMap<CellKey, std::uint32_t, CellKeyHash>* index,
                       const CellKey& k, bool keep_key) {
    std::uint32_t& slot = (*index)[k];
    if (slot == 0) {
      tally.emplace_back();
      if (keep_key) keys.push_back(k);
      slot = static_cast<std::uint32_t>(tally.size());
    }
    return slot - 1;
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

}  // namespace

// ---------------------------------------------------------------------------
// LargeCell
// ---------------------------------------------------------------------------

PostingView LargeCell::PostingAt(std::size_t idx) const {
  std::uint32_t begin = post_start[idx];
  std::uint32_t end = idx + 1 < post_start.size() ? post_start[idx + 1]
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
  auto reset = [&] {
    small_.clear();
    small_.resize(shards);
    std::fill(key_offsets_.begin(), key_offsets_.end(), 0);
    keys_ = std::vector<CellKey>();
    if (build_large) {
      large_->shards.clear();
      large_->shards.resize(shards);
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
  // them by their label, as pass 1 did.
  std::vector<std::size_t> first_point(n + 1, 0);
  for (ObjectId i = 0; i < n; ++i) {
    first_point[i + 1] = first_point[i] + objs[i].points.size();
  }
  const int shard_bits = static_cast<int>(std::bit_width(shards - 1));
  const std::uint32_t shard_mask = (std::uint32_t{1} << shard_bits) - 1;
  auto small_code = std::make_unique_for_overwrite<std::uint32_t[]>(
      first_point[n]);
  auto large_code = std::make_unique_for_overwrite<std::uint32_t[]>(
      build_large ? first_point[n] : 0);
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
          const std::uint32_t c = sx.Intern(&ss.index, ks, /*keep_key=*/true);
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
          const std::uint32_t c =
              lx.Intern(&large_->shards[t].index, kl, /*keep_key=*/false);
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

  // Pass 2: scatter each cell's distinct objects (small grid), and its
  // posting objects, their offsets and its coordinates (large grid), into
  // the shard's arrays at the offsets the counts give.
  ForEachShard(shards, [&](std::size_t t) {
    ShardScratch& sx = small_scratch[t];
    sx.Offsets(/*points=*/false);
    sx.members.resize(sx.obj_off.back());
    LargeShard* ls = build_large ? &large_->shards[t] : nullptr;
    if (ls != nullptr) {
      ShardScratch& lx = large_scratch[t];
      lx.Offsets(/*points=*/true);
      ls->post_obj.resize(lx.obj_off.back());
      ls->post_start.resize(lx.obj_off.back());
      ls->post_xyz.resize(3 * std::size_t{lx.pt_off.back()});
    }
    for (ObjectId i = 0; i < n; ++i) {
      const Object& o = objs[i];
      for (std::size_t j = 0; j < o.points.size(); ++j) {
        if (!mapped(i, j)) continue;
        const std::size_t pt = first_point[i] + j;
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
        const std::uint32_t c = lc >> shard_bits;
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
      cell.post_start = {ls.post_start.data() + lx.obj_off[c],
                         cell.post_obj.size()};
      cell.post_xyz = ls.post_xyz.data() + 3 * std::size_t{lx.pt_off[c]};
      cell.num_points = lx.pt_off[c + 1] - lx.pt_off[c];
      cell.bits = Ewah::FromSortedIds(cell.post_obj, &scratch);
      bytes += cell.bits.MemoryUsageBytes();
    }
    large_bytes[t] = bytes + ls.TableBytes() + ls.PostingBytes();
  });
  small_bytes_ = 0;
  for (std::size_t b : small_bytes) small_bytes_ += b;
  if (build_large) {
    large_->built_bytes = 0;
    for (std::size_t b : large_bytes) large_->built_bytes += b;
  }

  // Key lists: a key belongs to o_i.L iff its small cell holds two or more
  // objects and o_i is one of them (Algorithm 3 lines 5-13). Count each
  // object's keys, then fill its range, advancing key_offsets_[i] as its
  // cursor and shifting the offsets back after.
  auto for_each_shared_cell = [&](auto&& f) {
    for (const ShardScratch& sx : small_scratch) {
      for (std::size_t c = 0; c < sx.keys.size(); ++c) {
        std::span<const ObjectId> ids = sx.Objects(sx.members, c);
        if (ids.size() >= 2) f(sx.keys[c], ids);
      }
    }
  };
  for_each_shared_cell([&](const CellKey&, std::span<const ObjectId> ids) {
    for (ObjectId obj : ids) ++key_offsets_[obj + 1];
  });
  for (std::size_t i = 0; i < n; ++i) key_offsets_[i + 1] += key_offsets_[i];
  keys_.resize(key_offsets_[n]);
  for_each_shared_cell([&](const CellKey& key, std::span<const ObjectId> ids) {
    for (ObjectId obj : ids) keys_[key_offsets_[obj]++] = key;
  });
  for (std::size_t i = n; i > 0; --i) key_offsets_[i] = key_offsets_[i - 1];
  key_offsets_[0] = 0;

  if (build_groups) BuildGroups(labels, threads);
}

void BiGrid::BuildGroups(const LabelSet* labels, int threads) {
  if (large_->GroupsReady()) return;
  // A reused (complete) grid needs complete groups; a fresh labelled grid
  // needs label-filtered groups matching its cell population.
  const LabelSet* group_labels = reused_large_ ? nullptr : labels;
  const std::size_t n = objects_->size();
  auto build = [&] {
    large_->groups.assign(n, {});
    if (threads <= 1) {
      for (ObjectId i = 0; i < n; ++i) BuildGroupsFor(i, group_labels);
    } else {
#pragma omp parallel for schedule(dynamic, 16) num_threads(threads)
      for (ObjectId i = 0; i < n; ++i) BuildGroupsFor(i, group_labels);
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

void BiGrid::BuildGroupsFor(ObjectId i, const LabelSet* labels) {
  const Object& o = (*objects_)[i];
  auto& groups = large_->groups[i];
  std::unordered_map<CellKey, std::size_t, CellKeyHash> index;
  for (std::size_t j = 0; j < o.points.size(); ++j) {
    if (labels != nullptr && (labels->Get(i, j) & label::kMap) == 0) continue;
    CellKey key = KeyForWidth(o.points[j], large_->width);
    auto [it, inserted] = index.emplace(key, groups.size());
    if (inserted) groups.push_back(PointGroup{key, {}});
    groups[it->second].point_idx.push_back(static_cast<std::uint32_t>(j));
  }
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

LargeCell& BiGrid::EnsureAdj(const CellKey& k) {
  LargeCell& cell = *FindLarge(k);
  if (cell.AdjReady()) return cell;
  // Double-checked locking: a cached grid's cells are shared across
  // concurrently running queries, so two of them may race to memoise the
  // same union. The stripe lock makes exactly one of them build; the
  // release store in the flag (inside AdjReady/below) publishes
  // adj/adj_count to the losers' acquire loads.
  std::lock_guard<std::mutex> lock(StripeFor(&cell));
  if (cell.AdjReady()) return cell;
  obs::Add(obs::Counter::kAdjBuilds);
  cell.adj = NeighborhoodUnion(k, cell, &cell.adj_count);
  large_->adj_bytes.fetch_add(cell.adj.MemoryUsageBytes(),
                              std::memory_order_relaxed);
  std::atomic_ref<bool>(cell.adj_computed)
      .store(true, std::memory_order_release);
  return cell;
}

Ewah BiGrid::NeighborhoodUnion(const CellKey& k, const LargeCell& cell,
                               std::uint32_t* count) const {
  // Whichever thread first needs a union builds it, so the scratch is
  // per thread: n/64 words, reused by every build on that thread.
  thread_local UnionAccumulator acc;
  acc.Clear();
  acc.Add(cell.bits);
  bool any_neighbor = false;
  ForEachNeighbor(k, /*include_self=*/false, [&](const CellKey& nk) {
    if (const LargeCell* nc = FindLarge(nk)) {
      acc.Add(nc->bits);
      any_neighbor = true;
    }
  });
  *count = static_cast<std::uint32_t>(acc.Count());
  return any_neighbor ? acc.ToEwah() : cell.bits;
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
  mb.Add("key_lists", key_offsets_.capacity() * sizeof(std::uint32_t) +
                          keys_.capacity() * sizeof(CellKey));
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
