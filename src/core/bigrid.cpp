#include "core/bigrid.hpp"

#include <algorithm>
#include <array>
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

}  // namespace

// ---------------------------------------------------------------------------
// LargeCell
// ---------------------------------------------------------------------------

void LargeCell::AddPostingPoint(ObjectId obj, const Point& p) {
  if (post_obj.empty() || post_obj.back() != obj) {
    post_obj.push_back(obj);
    post_start.push_back(static_cast<std::uint32_t>(post_xs.size()));
  }
  post_xs.push_back(p.x);
  post_ys.push_back(p.y);
  post_zs.push_back(p.z);
}

PostingView LargeCell::PostingAt(std::size_t idx) const {
  std::uint32_t begin = post_start[idx];
  std::uint32_t end = idx + 1 < post_start.size()
                          ? post_start[idx + 1]
                          : static_cast<std::uint32_t>(post_xs.size());
  return PostingView{post_xs.data() + begin, post_ys.data() + begin,
                     post_zs.data() + begin, end - begin};
}

PostingView LargeCell::Posting(ObjectId obj) const {
  auto it = std::lower_bound(post_obj.begin(), post_obj.end(), obj);
  if (it == post_obj.end() || *it != obj) return {};
  return PostingAt(static_cast<std::size_t>(it - post_obj.begin()));
}

std::size_t LargeCell::MemoryUsageBytes() const {
  return bits.MemoryUsageBytes() + (AdjReady() ? adj.MemoryUsageBytes() : 0) +
         post_obj.capacity() * sizeof(ObjectId) +
         post_start.capacity() * sizeof(std::uint32_t) +
         (post_xs.capacity() + post_ys.capacity() + post_zs.capacity()) *
             sizeof(double);
}

std::size_t LargeGridPostingBytes(const LargeGridData& grid) {
  std::size_t bytes = 0;
  for (const auto& shard : grid.shards) {
    shard.ForEach([&](const CellKey&, const LargeCell& cell) {
      bytes += cell.post_obj.size() * sizeof(ObjectId) +
               cell.post_start.size() * sizeof(std::uint32_t) +
               cell.NumPostingPoints() * 3 * sizeof(double);
    });
  }
  return bytes;
}

// ---------------------------------------------------------------------------
// BiGrid build
// ---------------------------------------------------------------------------

BiGrid::BiGrid(const ObjectSet& objects, double r, bool planar,
               std::shared_ptr<LargeGridData> reuse)
    : objects_(&objects),
      r_(r),
      small_width_(planar ? SmallGridWidth2D(r) : SmallGridWidth(r)) {
  double width = LargeGridWidth(r);
  if (reuse != nullptr && reuse->width == width && reuse->complete) {
    large_ = std::move(reuse);
    reused_large_ = true;
  } else {
    large_ = std::make_shared<LargeGridData>();
    large_->width = width;
  }
}

void BiGrid::MapPointSmall(ObjectId i, const Point& p, bool update_key_lists) {
  CellKey key = KeyForWidth(p, small_width_);
  SmallCell& cell = small_[ShardOfSmall(key)].GetOrCreate(key);
  if (cell.last_obj == i && cell.num_objects > 0) return;  // same-object dedup
  cell.last_obj = i;
  cell.bits.Set(i);
  ++cell.num_objects;
  if (cell.num_objects == 1) {
    cell.first_obj = i;
  } else if (update_key_lists) {
    // Cells holding a single object contribute nothing to any lower bound
    // (Lemma 1's union minus the object's own bit), so keys enter the key
    // lists only once a second object arrives — and then retroactively for
    // the first object too (Algorithm 3 lines 7-10).
    if (cell.num_objects == 2) key_lists_[cell.first_obj].push_back(key);
    key_lists_[i].push_back(key);
  }
}

void BiGrid::MapPointLarge(ObjectId i, const Point& p) {
  CellKey key = KeyForWidth(p, large_->width);
  LargeCell& cell = large_->shards[ShardOfLarge(key)].GetOrCreate(key);
  if (cell.last_obj != i || cell.post_obj.empty()) {
    cell.bits.Set(i);
    cell.last_obj = i;
  }
  cell.AddPostingPoint(i, p);
}

void BiGrid::Build(const LabelSet* labels, bool build_groups,
                   QueryGuard* guard) {
  MIO_TRACE_SPAN_CAT("grid.build", "grid");
  const ObjectSet& objs = *objects_;
  const std::size_t n = objs.size();
  small_.assign(1, SmallMap{});
  key_lists_.assign(n, {});

  const bool build_large = !reused_large_;
  if (build_large) {
    large_->shards.assign(1, LargeMap{});
    large_->groups.clear();
    large_->has_groups = false;
    large_->complete = labels == nullptr;
  }

  for (ObjectId i = 0; i < n; ++i) {
    if (guard != nullptr && (i % kGuardStrideObjects) == 0) {
      if (MIO_FAULT_HIT("alloc.bigrid")) guard->TripResource();
      if (guard->Poll()) {
        // Abandoned mid-map: the grid misses points, so it must never be
        // cached or queried; the engine discards it.
        large_->complete = false;
        return;
      }
    }
    const Object& o = objs[i];
    for (std::size_t j = 0; j < o.points.size(); ++j) {
      if (labels != nullptr && (labels->Get(i, j) & label::kMap) == 0) {
        continue;  // Labeling-1: prunable everywhere (Lemma 3)
      }
      MapPointSmall(i, o.points[j], /*update_key_lists=*/true);
      if (build_large) MapPointLarge(i, o.points[j]);
    }
  }

  if (build_groups) BuildGroups(labels, /*threads=*/1);
}

void BiGrid::BuildParallel(int threads, const LabelSet* labels,
                           bool build_groups, QueryGuard* guard) {
  threads = ResolveThreads(threads);
  if (threads <= 1) {
    Build(labels, build_groups, guard);
    return;
  }
  MIO_TRACE_SPAN_CAT("grid.build_parallel", "grid");
  const ObjectSet& objs = *objects_;
  const std::size_t n = objs.size();
  small_.assign(threads, SmallMap{});
  key_lists_.assign(n, {});

  const bool build_large = !reused_large_;
  if (build_large) {
    large_->shards.assign(threads, LargeMap{});
    large_->groups.clear();
    large_->has_groups = false;
    large_->complete = labels == nullptr;
  }

  // Hash partitioning of points by cell key: thread t exclusively owns
  // shard t of each grid, so all cell updates are single-writer. Each
  // thread scans all points and keeps those hashing to its shard; the scan
  // is duplicated but cheap compared with the hash-map updates.
#pragma omp parallel num_threads(threads)
  {
    MIO_TRACE_SPAN_CAT("grid.map.worker", "grid");
    std::size_t t = static_cast<std::size_t>(ThreadId());
    for (ObjectId i = 0; i < n; ++i) {
      if (guard != nullptr && (i % kGuardStrideObjects) == 0) {
        if (t == 0 && MIO_FAULT_HIT("alloc.bigrid")) guard->TripResource();
        if (guard->Poll()) break;  // each worker drains independently
      }
      const Object& o = objs[i];
      for (std::size_t j = 0; j < o.points.size(); ++j) {
        if (labels != nullptr && (labels->Get(i, j) & label::kMap) == 0) {
          continue;
        }
        const Point& p = o.points[j];
        CellKey ks = KeyForWidth(p, small_width_);
        if (CellKeyHash{}(ks) % small_.size() == t) {
          MapPointSmall(i, p, /*update_key_lists=*/false);
        }
        if (build_large) {
          CellKey kl = KeyForWidth(p, large_->width);
          if (CellKeyHash{}(kl) % large_->shards.size() == t) {
            MapPointLarge(i, p);
          }
        }
      }
    }
  }

  if (guard != nullptr && guard->tripped()) {
    large_->complete = false;  // partial map: never cache or query
    return;
  }

  DeriveKeyListsFromCells(threads);

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

void BiGrid::DeriveKeyListsFromCells(int threads) {
  // Post-pass equivalent of the incremental key-list maintenance: a key
  // belongs to o_i.L iff its small cell holds >= 2 distinct objects and
  // o_i is one of them — exactly the membership Algorithm 3 arrives at.
  std::vector<std::vector<std::pair<ObjectId, CellKey>>> local(
      static_cast<std::size_t>(threads));
#pragma omp parallel num_threads(threads)
  {
    std::size_t t = static_cast<std::size_t>(ThreadId());
    auto& buf = local[t];
    for (std::size_t s = t; s < small_.size();
         s += static_cast<std::size_t>(threads)) {
      small_[s].ForEach([&](const CellKey& key, SmallCell& cell) {
        if (cell.num_objects < 2) return;
        cell.bits.ForEachSetBit([&](std::size_t obj) {
          buf.emplace_back(static_cast<ObjectId>(obj), key);
        });
      });
    }
  }
  for (const auto& buf : local) {
    for (const auto& [obj, key] : buf) key_lists_[obj].push_back(key);
  }
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
  std::size_t small_bytes = 0;
  for (const auto& shard : small_) {
    small_bytes += shard.TableBytes();
    shard.ForEach([&](const CellKey&, const SmallCell& cell) {
      small_bytes += cell.bits.MemoryUsageBytes();
    });
  }
  mb.Add("small_grid", small_bytes);

  std::size_t large_bytes = 0;
  for (const auto& shard : large_->shards) {
    large_bytes += shard.TableBytes();
    shard.ForEach([&](const CellKey&, const LargeCell& cell) {
      large_bytes += cell.MemoryUsageBytes();
    });
  }
  mb.Add("large_grid", large_bytes);

  std::size_t kl_bytes = key_lists_.capacity() * sizeof(std::vector<CellKey>);
  for (const auto& kl : key_lists_) kl_bytes += kl.capacity() * sizeof(CellKey);
  mb.Add("key_lists", kl_bytes);

  if (large_->GroupsReady()) {
    std::size_t g_bytes =
        large_->groups.capacity() * sizeof(std::vector<PointGroup>);
    for (const auto& groups : large_->groups) {
      g_bytes += groups.capacity() * sizeof(PointGroup);
      for (const auto& g : groups) {
        g_bytes += g.point_idx.capacity() * sizeof(std::uint32_t);
      }
    }
    mb.Add("point_groups", g_bytes);
  }
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
