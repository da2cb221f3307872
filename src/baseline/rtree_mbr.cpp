#include "baseline/rtree_mbr.hpp"

#include "obs/trace.hpp"

#include <cmath>
#include <memory>
#include <unordered_set>

#include "common/omp_utils.hpp"
#include "common/timer.hpp"
#include "geo/cell_key.hpp"
#include "kdtree/kdtree.hpp"
#include "rtree/rtree.hpp"

namespace mio {

double MbrEmptinessFraction(const ObjectSet& objects, double r) {
  if (objects.empty() || r <= 0.0) return 0.0;
  double sum = 0.0;
  std::size_t counted = 0;
  for (const Object& o : objects.objects()) {
    if (o.points.empty()) continue;
    Aabb box;
    std::unordered_set<CellKey, CellKeyHash> occupied;
    for (const Point& p : o.points) {
      box.Extend(p);
      occupied.insert(KeyForWidth(p, r));
    }
    auto cells_along = [&](double lo, double hi) {
      return static_cast<double>(
          static_cast<std::int64_t>(std::floor(hi / r)) -
          static_cast<std::int64_t>(std::floor(lo / r)) + 1);
    };
    double total = cells_along(box.min.x, box.max.x) *
                   cells_along(box.min.y, box.max.y) *
                   cells_along(box.min.z, box.max.z);
    sum += 1.0 - static_cast<double>(occupied.size()) / total;
    ++counted;
  }
  return counted == 0 ? 0.0 : sum / static_cast<double>(counted);
}

std::vector<std::uint32_t> RtreeMbrScores(const ObjectSet& objects, double r,
                                          int threads,
                                          MbrFilterStats* filter_stats) {
  const std::size_t n = objects.size();
  threads = ResolveThreads(threads);

  // Index every object's MBR.
  std::vector<Aabb> boxes(n);
  std::vector<RTree::Entry> entries(n);
  for (ObjectId i = 0; i < n; ++i) {
    for (const Point& p : objects[i].points) boxes[i].Extend(p);
    entries[i] = RTree::Entry{boxes[i], i};
  }
  RTree rtree(std::move(entries));

  // Per-object kd-trees for the verification step (same machinery the
  // NL-kd variant uses; RT only changes the filtering).
  std::vector<std::unique_ptr<KdTree>> trees(n);
#pragma omp parallel for schedule(dynamic, 4) num_threads(threads)
  for (std::size_t i = 0; i < n; ++i) {
    trees[i] = std::make_unique<KdTree>(objects[static_cast<ObjectId>(i)].points);
  }

  std::vector<std::vector<std::uint32_t>> local(
      threads, std::vector<std::uint32_t>(n, 0));
  std::vector<MbrFilterStats> local_stats(threads);

#pragma omp parallel for schedule(dynamic, 1) num_threads(threads)
  for (std::size_t i = 0; i < n; ++i) {
    int t = ThreadId();
    // MBR filter: R-tree range probe around o_i's box. Process each pair
    // once (j > i keeps the counting symmetric and race-free per thread).
    rtree.ForEachWithin(boxes[i], r, [&](std::uint32_t j) {
      if (j <= i) return true;
      ++local_stats[t].candidate_pairs;
      const Object& oi = objects[static_cast<ObjectId>(i)];
      const Object& oj = objects[static_cast<ObjectId>(j)];
      bool hit = false;
      if (oi.NumPoints() <= oj.NumPoints()) {
        for (const Point& p : oi.points) {
          if (trees[j]->ContainsWithin(p, r)) {
            hit = true;
            break;
          }
        }
      } else {
        for (const Point& p : oj.points) {
          if (trees[i]->ContainsWithin(p, r)) {
            hit = true;
            break;
          }
        }
      }
      if (hit) {
        ++local[t][i];
        ++local[t][j];
        ++local_stats[t].interacting_pairs;
      }
      return true;
    });
  }

  std::vector<std::uint32_t> tau(n, 0);
  for (int t = 0; t < threads; ++t) {
    for (std::size_t i = 0; i < n; ++i) tau[i] += local[t][i];
  }
  if (filter_stats != nullptr) {
    for (int t = 0; t < threads; ++t) {
      filter_stats->candidate_pairs += local_stats[t].candidate_pairs;
      filter_stats->interacting_pairs += local_stats[t].interacting_pairs;
    }
    filter_stats->total_pairs = n * (n - 1) / 2;
  }
  return tau;
}

QueryResult RtreeMbrQuery(const ObjectSet& objects, double r, int threads,
                          std::size_t k) {
  MIO_TRACE_SPAN_CAT("rt.query", "baseline");
  QueryResult res;
  res.status = CheckQueryDomain(r, objects.CoordinateRange());
  if (!res.status.ok()) return res;
  Timer timer;
  std::vector<std::uint32_t> tau = RtreeMbrScores(objects, r, threads);
  res.topk = TopKFromScores(tau, k);
  res.stats.phases.verification = timer.ElapsedSeconds();
  res.stats.total_seconds = timer.ElapsedSeconds();
  res.stats.num_verified = objects.size();
  res.stats.threads = ResolveThreads(threads);
  return res;
}

}  // namespace mio
