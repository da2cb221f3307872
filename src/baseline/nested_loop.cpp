#include "baseline/nested_loop.hpp"

#include "obs/trace.hpp"

#include <algorithm>
#include <numeric>

#include "common/omp_utils.hpp"
#include "common/timer.hpp"

namespace mio {

bool ObjectsInteract(const Object& a, const SoaPoints& b, double r,
                     std::size_t* dist_comps) {
  double r2 = r * r;
  std::size_t comps = 0;
  bool hit = false;
  for (const Point& pa : a.points) {
    std::ptrdiff_t idx =
        AnyWithin(pa, b.xs.data(), b.ys.data(), b.zs.data(), b.size(), r2);
    if (idx >= 0) {
      comps += static_cast<std::size_t>(idx) + 1;
      hit = true;
      break;
    }
    comps += b.size();
  }
  if (dist_comps != nullptr) *dist_comps += comps;
  return hit;
}

bool ObjectsInteract(const Object& a, const Object& b, double r,
                     std::size_t* dist_comps) {
  return ObjectsInteract(a, SoaPoints(b.points), r, dist_comps);
}

std::vector<std::uint32_t> NestedLoopScores(const ObjectSet& objects, double r,
                                            int threads,
                                            std::size_t* dist_comps) {
  const std::size_t n = objects.size();
  std::vector<std::uint32_t> tau(n, 0);
  threads = ResolveThreads(threads);
  std::size_t total_comps = 0;

  // SoA mirrors, built once: the inner predicate is then one batch-kernel
  // call per probe point instead of a scalar AoS scan.
  std::vector<SoaPoints> soa(n);
  for (std::size_t i = 0; i < n; ++i) {
    soa[i].Assign(objects[static_cast<ObjectId>(i)].points);
  }

  if (threads <= 1) {
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        if (ObjectsInteract(objects[static_cast<ObjectId>(i)], soa[j], r,
                            dist_comps != nullptr ? &total_comps : nullptr)) {
          ++tau[i];
          ++tau[j];
        }
      }
    }
  } else {
    // Each thread accumulates into a private score array; the symmetric
    // increments (tau[i] and tau[j]) would otherwise race. Dynamic
    // scheduling copes with the triangular iteration space.
    std::vector<std::vector<std::uint32_t>> local(threads,
                                                  std::vector<std::uint32_t>(n, 0));
    std::vector<std::size_t> local_comps(threads, 0);
#pragma omp parallel for schedule(dynamic, 1) num_threads(threads)
    for (std::size_t i = 0; i < n; ++i) {
      int t = ThreadId();
      for (std::size_t j = i + 1; j < n; ++j) {
        if (ObjectsInteract(objects[static_cast<ObjectId>(i)], soa[j], r,
                            dist_comps != nullptr ? &local_comps[t] : nullptr)) {
          ++local[t][i];
          ++local[t][j];
        }
      }
    }
    for (int t = 0; t < threads; ++t) {
      for (std::size_t i = 0; i < n; ++i) tau[i] += local[t][i];
      total_comps += local_comps[t];
    }
  }
  if (dist_comps != nullptr) *dist_comps += total_comps;
  return tau;
}

QueryResult NestedLoopQuery(const ObjectSet& objects, double r, int threads,
                            std::size_t k) {
  MIO_TRACE_SPAN_CAT("nl.query", "baseline");
  QueryResult res;
  res.status = CheckQueryDomain(r, objects.CoordinateRange());
  if (!res.status.ok()) return res;
  Timer timer;
  std::size_t comps = 0;
  std::vector<std::uint32_t> tau = NestedLoopScores(objects, r, threads, &comps);
  res.topk = TopKFromScores(tau, k);
  res.stats.phases.verification = timer.ElapsedSeconds();
  res.stats.total_seconds = timer.ElapsedSeconds();
  res.stats.distance_computations = comps;
  res.stats.num_verified = objects.size();
  res.stats.threads = ResolveThreads(threads);
  return res;
}

}  // namespace mio
