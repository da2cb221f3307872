// NL-kd: the nested-loop variant from the paper's footnote 9 — each
// object's points are held in a kd-tree, so the pair test becomes m
// pruned range-exists queries instead of m^2 distance checks
// (O(n^2 m log m) overall). The paper reports it performs like NL and
// cannot beat BIGrid; we include it so that claim is reproducible.
#pragma once

#include <cstddef>
#include <vector>

#include "core/query_result.hpp"
#include "object/object_set.hpp"

namespace mio {

/// Exact scores via per-object kd-trees (built per query; the build time
/// is part of the measured cost, as NL-kd has no pre-processing either).
std::vector<std::uint32_t> NlKdScores(const ObjectSet& objects, double r,
                                      int threads = 1);

/// Full MIO query via NL-kd; domain as NestedLoopQuery.
QueryResult NlKdQuery(const ObjectSet& objects, double r, int threads = 1,
                      std::size_t k = 1);

}  // namespace mio
