// The theoretical algorithm (paper §II-B, Theorem 1): pre-compute, for
// every object o_i, the sorted array A_i of closest-point-pair distances
// to every other object; a query with threshold r is then n binary
// searches, O(n log n) total. The paper includes it to exhibit the
// computation/memory trade-off — O(n^2) space and an
// O(n^2 (m log m + log n)) pre-processing that exceeded their 8-hour
// budget — and so do we (bench_theoretical measures both costs).
#pragma once

#include <cstddef>
#include <vector>

#include "core/query_result.hpp"
#include "object/object_set.hpp"

namespace mio {

/// Pre-computed closest-pair distance arrays; answers any r online.
class TheoreticalIndex {
 public:
  /// Runs the full pre-processing (kd-tree closest pairs, then sorts).
  /// `threads` parallelises across objects.
  explicit TheoreticalIndex(const ObjectSet& objects, int threads = 1);

  /// MIO query by n binary searches. An r or a dataset outside
  /// CheckQueryDomain yields kInvalidArgument and an empty top-k.
  QueryResult Query(double r, std::size_t k = 1) const;

  /// Exact score vector for threshold r.
  std::vector<std::uint32_t> Scores(double r) const;

  double preprocessing_seconds() const { return preprocessing_seconds_; }

  /// The O(n^2) array footprint.
  std::size_t MemoryUsageBytes() const;

 private:
  std::size_t n_;
  CoordRange coords_;  // for Query's domain check
  std::vector<std::vector<double>> arrays_;  // A_i, ascending
  double preprocessing_seconds_ = 0.0;
};

}  // namespace mio
