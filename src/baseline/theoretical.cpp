#include "baseline/theoretical.hpp"

#include <algorithm>
#include <memory>

#include "common/omp_utils.hpp"
#include "common/timer.hpp"
#include "kdtree/closest_pair.hpp"
#include "kdtree/kdtree.hpp"

namespace mio {

TheoreticalIndex::TheoreticalIndex(const ObjectSet& objects, int threads)
    : n_(objects.size()), coords_(objects.CoordinateRange()) {
  Timer timer;
  threads = ResolveThreads(threads);
  arrays_.assign(n_, {});
  // Query rejects non-finite data, so no closest pair is ever computed
  // (or sorted) over a NaN coordinate.
  if (!coords_.finite) return;

  // One kd-tree per object, then all-pairs closest distances. The closest
  // pair is symmetric, so each unordered pair is computed once and stored
  // twice (A_i and A_j both need it).
  std::vector<std::unique_ptr<KdTree>> trees(n_);
#pragma omp parallel for schedule(dynamic, 4) num_threads(threads)
  for (std::size_t i = 0; i < n_; ++i) {
    trees[i] = std::make_unique<KdTree>(objects[static_cast<ObjectId>(i)].points);
  }

  for (std::size_t i = 0; i < n_; ++i) {
    arrays_[i].reserve(n_ > 0 ? n_ - 1 : 0);
  }
  // Row-parallel with private buffers would double the distance work;
  // instead compute the strict upper triangle in parallel and scatter
  // serially (scatter is O(n^2) appends, dominated by the search cost).
  std::vector<std::vector<double>> rows(n_);
#pragma omp parallel for schedule(dynamic, 1) num_threads(threads)
  for (std::size_t i = 0; i < n_; ++i) {
    rows[i].resize(n_ - i - 1 + (i + 1 > n_ ? 0 : 0));
    for (std::size_t j = i + 1; j < n_; ++j) {
      const Object& oi = objects[static_cast<ObjectId>(i)];
      const Object& oj = objects[static_cast<ObjectId>(j)];
      double d = oi.NumPoints() <= oj.NumPoints()
                     ? MinDistanceBetween(oi, *trees[j])
                     : MinDistanceBetween(oj, *trees[i]);
      rows[i][j - i - 1] = d;
    }
  }
  for (std::size_t i = 0; i < n_; ++i) {
    for (std::size_t j = i + 1; j < n_; ++j) {
      double d = rows[i][j - i - 1];
      arrays_[i].push_back(d);
      arrays_[j].push_back(d);
    }
    rows[i].clear();
    rows[i].shrink_to_fit();
  }

#pragma omp parallel for schedule(dynamic, 16) num_threads(threads)
  for (std::size_t i = 0; i < n_; ++i) {
    std::sort(arrays_[i].begin(), arrays_[i].end());
  }
  preprocessing_seconds_ = timer.ElapsedSeconds();
}

std::vector<std::uint32_t> TheoreticalIndex::Scores(double r) const {
  std::vector<std::uint32_t> tau(n_, 0);
  for (std::size_t i = 0; i < n_; ++i) {
    tau[i] = static_cast<std::uint32_t>(
        std::upper_bound(arrays_[i].begin(), arrays_[i].end(), r) -
        arrays_[i].begin());
  }
  return tau;
}

QueryResult TheoreticalIndex::Query(double r, std::size_t k) const {
  QueryResult res;
  res.status = CheckQueryDomain(r, coords_);
  if (!res.status.ok()) return res;
  Timer timer;
  res.topk = TopKFromScores(Scores(r), k);
  res.stats.phases.verification = timer.ElapsedSeconds();
  res.stats.total_seconds = timer.ElapsedSeconds();
  res.stats.index_memory_bytes = MemoryUsageBytes();
  return res;
}

std::size_t TheoreticalIndex::MemoryUsageBytes() const {
  std::size_t bytes = arrays_.capacity() * sizeof(std::vector<double>);
  for (const auto& a : arrays_) bytes += a.capacity() * sizeof(double);
  return bytes;
}

}  // namespace mio
