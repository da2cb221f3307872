#include "baseline/simple_grid.hpp"

#include "obs/trace.hpp"

#include "common/omp_utils.hpp"
#include "common/timer.hpp"
#include "geo/kernels.hpp"
#include "grid/spatial_hash_grid.hpp"

namespace mio {
namespace {

/// Epoch-stamped membership set: clearing between objects is O(1).
class SeenSet {
 public:
  explicit SeenSet(std::size_t n) : stamp_(n, 0) {}
  void NextEpoch() { ++epoch_; }
  bool Test(ObjectId id) const { return stamp_[id] == epoch_; }
  void Mark(ObjectId id) { stamp_[id] = epoch_; }

 private:
  std::vector<std::uint32_t> stamp_;
  std::uint32_t epoch_ = 1;
};

std::uint32_t ScoreOne(const ObjectSet& objects, const SpatialHashGrid& grid,
                       ObjectId i, double r, SeenSet* counted,
                       std::size_t* dist_comps) {
  const double r2 = r * r;
  counted->NextEpoch();
  counted->Mark(i);  // never count the object itself
  std::uint32_t count = 0;
  std::size_t comps = 0;
  for (const Point& p : objects[i].points) {
    grid.ForEachCellNear(p, [&](const SpatialHashGrid::Cell& cell) {
      // A partner already counted needs no further distance checks (the
      // early break of Algorithm 1); misses stay candidates, since a
      // later point pair may still be within r. Runs group one object's
      // points, so the skip and the batch-kernel scan are per run.
      for (std::size_t ri = 0; ri < cell.NumRuns(); ++ri) {
        SpatialHashGrid::Run run = cell.RunAt(ri);
        if (counted->Test(run.obj)) continue;
        std::ptrdiff_t hit = AnyWithin(p, run.xs, run.ys, run.zs, run.size, r2);
        if (hit >= 0) {
          comps += static_cast<std::size_t>(hit) + 1;
          ++count;
          counted->Mark(run.obj);
        } else {
          comps += run.size;
        }
      }
      return true;
    });
  }
  if (dist_comps != nullptr) *dist_comps += comps;
  return count;
}

}  // namespace

std::vector<std::uint32_t> SimpleGridScores(const ObjectSet& objects, double r,
                                            int threads,
                                            std::size_t* grid_memory,
                                            std::size_t* dist_comps) {
  const std::size_t n = objects.size();
  threads = ResolveThreads(threads);

  SpatialHashGrid grid(r);
  grid.Build(objects);
  if (grid_memory != nullptr) *grid_memory = grid.MemoryUsageBytes();

  std::vector<std::uint32_t> tau(n, 0);
  std::vector<std::size_t> comps(threads, 0);
  if (threads <= 1) {
    SeenSet seen(n);
    for (std::size_t i = 0; i < n; ++i) {
      tau[i] = ScoreOne(objects, grid, static_cast<ObjectId>(i), r, &seen,
                        dist_comps != nullptr ? &comps[0] : nullptr);
    }
  } else {
#pragma omp parallel num_threads(threads)
    {
      SeenSet seen(n);
      int t = ThreadId();
#pragma omp for schedule(static)
      for (std::size_t i = 0; i < n; ++i) {
        // Static scheduling == hash partitioning of the object tasks; the
        // paper notes this balances poorly under skew, which is the effect
        // Fig. 9 shows.
        tau[i] = ScoreOne(objects, grid, static_cast<ObjectId>(i), r, &seen,
                          dist_comps != nullptr ? &comps[t] : nullptr);
      }
    }
  }
  if (dist_comps != nullptr) {
    for (int t = 0; t < threads; ++t) *dist_comps += comps[t];
  }
  return tau;
}

QueryResult SimpleGridQuery(const ObjectSet& objects, double r, int threads,
                            std::size_t k) {
  MIO_TRACE_SPAN_CAT("sg.query", "baseline");
  QueryResult res;
  // The grid's cell width is r itself.
  res.status = CheckQueryDomain(r, objects.CoordinateRange(), {r});
  if (!res.status.ok()) return res;
  Timer timer;
  std::size_t grid_bytes = 0;
  std::size_t comps = 0;
  std::vector<std::uint32_t> tau =
      SimpleGridScores(objects, r, threads, &grid_bytes, &comps);
  res.topk = TopKFromScores(tau, k);
  res.stats.phases.verification = timer.ElapsedSeconds();
  res.stats.total_seconds = timer.ElapsedSeconds();
  res.stats.index_memory_bytes = grid_bytes;
  res.stats.memory.Add("sg_grid", grid_bytes);
  MemoryTracker::Instance().ObserveBreakdown(res.stats.memory);
  res.stats.distance_computations = comps;
  res.stats.num_verified = objects.size();
  res.stats.threads = ResolveThreads(threads);
  return res;
}

}  // namespace mio
