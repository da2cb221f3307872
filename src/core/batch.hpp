// Batch query execution types (MioEngine::QueryBatch). A batch is a
// sequence of MIO queries evaluated together: members are grouped by
// ceil(r) class, each class builds its large grid once (through the
// engine's grid cache), hoists the label lookup, and shares one
// verification arena — so index construction, label probing, and
// scratch allocation are paid per class, not per query.
//
// Results are exact and bit-identical to running each member through
// MioEngine::Query: grid sharing and arena reuse change where work
// happens, never what is computed. Per-query guardrails
// (deadline/budget/cancel) still apply to each member individually, and
// a member that trips or degrades cannot poison its siblings — at worst
// the next member of the class rebuilds the grid.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/options.hpp"
#include "core/query_result.hpp"

namespace mio {

/// One member of a batch: the radius plus the same per-query options
/// MioEngine::Query takes. `options.reuse_grid` is implied (class grids
/// are the point of batching); the other fields are honoured as-is.
struct BatchQuery {
  double r = 0.0;
  QueryOptions options;
};

/// Batch-level accounting (also mirrored into the batch.* metrics).
struct BatchStats {
  std::size_t classes = 0;           ///< distinct ceil(r) classes
  std::size_t grid_builds = 0;       ///< large grids actually built
  std::size_t grid_builds_saved = 0; ///< members served by a class grid
  std::size_t cells_partitioned = 0; ///< always 0; kept for stats readers
  std::uint64_t postings_bytes_shared = 0;  ///< posting bytes reused
  std::uint64_t arena_high_water_bytes = 0; ///< verify-arena footprint
};

/// Per-member results, parallel to the submitted query vector.
struct BatchResult {
  std::vector<QueryResult> results;
  BatchStats stats;
};

}  // namespace mio
