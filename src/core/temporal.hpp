// Temporal MIO queries (paper Appendix B): objects carry a timestamp per
// point, and two objects interact iff they have points p, p' with
// dist(p,p') <= r AND |t - t'| <= delta. The time domain is decomposed
// into width-delta sub-domains and a BIGrid-style pair of grids is kept
// per (cell, sub-domain):
//   lower bound  — two points in the same small cell of the same
//     sub-domain are certainly within both thresholds;
//   upper bound / verification — partners of a point in sub-domain s lie
//     in the 27-cell spatial neighbourhood of sub-domains s-1, s, s+1.
// delta = 0 is the special case where each distinct generation time is its
// own sub-domain and only the same sub-domain is probed.
#pragma once

#include <cstdint>
#include <vector>

#include "core/query_result.hpp"
#include "object/object_set.hpp"

namespace mio {

/// Runs one temporal MIO query; k selects the top-k variant. An r outside
/// CheckQueryDomain (geo/cell_key.hpp), a non-finite or negative delta,
/// an object whose times are not one finite value per point, or a delta
/// so small that a sub-domain index overflows int64 yields
/// kInvalidArgument and an empty top-k.
QueryResult TemporalMioQuery(const ObjectSet& objects, double r, double delta,
                             std::size_t k = 1);

/// Brute-force oracle for the temporal interaction scores (tests and small
/// baselines): O(n^2 m^2).
std::vector<std::uint32_t> TemporalBruteForceScores(const ObjectSet& objects,
                                                    double r, double delta);

}  // namespace mio
