// RT: an MBR-based baseline the paper dismisses analytically (§II-B):
// index each object's minimum bounding rectangle in an R-tree, filter
// candidate pairs by MBR distance <= r, then verify candidates with
// early-exit pairwise checks (kd-tree accelerated). For point-set objects
// like neurites and trajectories the MBRs are huge and hollow, so the
// filter passes nearly every pair and RT degenerates to NL-kd plus
// indexing overhead — the bench harness shows exactly that.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/query_result.hpp"
#include "object/object_set.hpp"

namespace mio {

/// Filter diagnostics for the MBR baseline.
struct MbrFilterStats {
  std::size_t candidate_pairs = 0;  ///< pairs surviving the MBR filter
  std::size_t total_pairs = 0;      ///< n*(n-1)/2
  std::size_t interacting_pairs = 0;

  /// Fraction of pairs the MBR filter failed to prune. Near 1.0 means
  /// the filter is useless (the paper's "uselessly large rectangles").
  double PassRate() const {
    return total_pairs == 0
               ? 0.0
               : static_cast<double>(candidate_pairs) /
                     static_cast<double>(total_pairs);
  }
};

/// Mean fraction of each object's MBR that is *empty* at resolution r:
/// 1 - (occupied width-r cells / total width-r cells inside the MBR),
/// averaged over objects. Near 1.0 for the elongated point-set objects
/// this system targets — a direct quantification of the paper's
/// "uselessly large rectangles with large empty spaces" (§II-B).
double MbrEmptinessFraction(const ObjectSet& objects, double r);

/// Exact scores via the R-tree MBR filter. `filter_stats` may be null.
std::vector<std::uint32_t> RtreeMbrScores(const ObjectSet& objects, double r,
                                          int threads = 1,
                                          MbrFilterStats* filter_stats = nullptr);

/// Full MIO query via the RT baseline; domain as NestedLoopQuery.
QueryResult RtreeMbrQuery(const ObjectSet& objects, double r, int threads = 1,
                          std::size_t k = 1);

}  // namespace mio
