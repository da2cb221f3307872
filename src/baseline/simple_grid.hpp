// SG: the simple-grid competitor (paper §V-A). Builds a width-r spatial
// hash grid online, then computes every tau(o) by probing each point's
// 27-cell neighbourhood, de-duplicating partner objects with a seen-set and
// early-breaking per partner. The paper positions SG as a TOUCH-style
// main-memory spatial-join specialised for MIO (no hierarchical index is
// needed because candidates are confined to the neighbourhood).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/query_result.hpp"
#include "object/object_set.hpp"

namespace mio {

/// Exact scores via the width-r grid. `threads` > 1 hash-partitions the
/// per-object score computations (the paper's parallel SG). `grid_memory`,
/// if non-null, receives the grid's footprint in bytes; `dist_comps`
/// the number of distance evaluations.
std::vector<std::uint32_t> SimpleGridScores(const ObjectSet& objects, double r,
                                            int threads = 1,
                                            std::size_t* grid_memory = nullptr,
                                            std::size_t* dist_comps = nullptr);

/// Full MIO query via SG, including online grid build time. Domain as
/// NestedLoopQuery, plus the int32 lattice at cell width r.
QueryResult SimpleGridQuery(const ObjectSet& objects, double r,
                            int threads = 1, std::size_t k = 1);

}  // namespace mio
