#include "baseline/nl_kdtree.hpp"

#include "obs/trace.hpp"

#include <memory>

#include "common/omp_utils.hpp"
#include "common/timer.hpp"
#include "kdtree/kdtree.hpp"

namespace mio {
namespace {

/// Probe the smaller object's points against the larger object's tree:
/// fewer queries, better pruning.
bool InteractViaTree(const Object& probe, const KdTree& tree, double r,
                     const Aabb& probe_box) {
  // Whole-object reject: if even the boxes are farther than r apart, no
  // pair can be within r.
  if (probe_box.MinSquaredDistanceTo(tree.Bounds()) > r * r) return false;
  for (const Point& p : probe.points) {
    if (tree.ContainsWithin(p, r)) return true;
  }
  return false;
}

}  // namespace

std::vector<std::uint32_t> NlKdScores(const ObjectSet& objects, double r,
                                      int threads) {
  const std::size_t n = objects.size();
  threads = ResolveThreads(threads);

  // Build one tree per object (parallelisable, embarrassingly).
  std::vector<std::unique_ptr<KdTree>> trees(n);
  std::vector<Aabb> boxes(n);
#pragma omp parallel for schedule(dynamic, 4) num_threads(threads)
  for (std::size_t i = 0; i < n; ++i) {
    trees[i] = std::make_unique<KdTree>(objects[static_cast<ObjectId>(i)].points);
    boxes[i] = trees[i]->Bounds();
  }

  std::vector<std::vector<std::uint32_t>> local(
      threads, std::vector<std::uint32_t>(n, 0));
#pragma omp parallel for schedule(dynamic, 1) num_threads(threads)
  for (std::size_t i = 0; i < n; ++i) {
    int t = ThreadId();
    const Object& oi = objects[static_cast<ObjectId>(i)];
    for (std::size_t j = i + 1; j < n; ++j) {
      const Object& oj = objects[static_cast<ObjectId>(j)];
      // Probe with the smaller point set.
      bool hit =
          oi.NumPoints() <= oj.NumPoints()
              ? InteractViaTree(oi, *trees[j], r, boxes[i])
              : InteractViaTree(oj, *trees[i], r, boxes[j]);
      if (hit) {
        ++local[t][i];
        ++local[t][j];
      }
    }
  }

  std::vector<std::uint32_t> tau(n, 0);
  for (int t = 0; t < threads; ++t) {
    for (std::size_t i = 0; i < n; ++i) tau[i] += local[t][i];
  }
  return tau;
}

QueryResult NlKdQuery(const ObjectSet& objects, double r, int threads,
                      std::size_t k) {
  MIO_TRACE_SPAN_CAT("nl-kd.query", "baseline");
  QueryResult res;
  res.status = CheckQueryDomain(r, objects.CoordinateRange());
  if (!res.status.ok()) return res;
  Timer timer;
  std::vector<std::uint32_t> tau = NlKdScores(objects, r, threads);
  res.topk = TopKFromScores(tau, k);
  res.stats.phases.verification = timer.ElapsedSeconds();
  res.stats.total_seconds = timer.ElapsedSeconds();
  res.stats.num_verified = objects.size();
  res.stats.threads = ResolveThreads(threads);
  return res;
}

}  // namespace mio
