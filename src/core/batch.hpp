// Batch query execution types (MioEngine::QueryBatch). A batch is a
// sequence of MIO queries run as a loop of MioEngine::Query calls with
// reuse_grid on, reordered so members sharing a ceil(r) class run back
// to back. The engine's caches, keyed by ceil(r) like the paper's labels
// (§III-D), do the sharing: in a fresh class the first member builds and
// caches the complete large grid and records labels (if asked); later
// members adopt both. A member that finds labels but no cached grid
// builds a label-pruned grid, which stays private, as in any reuse_grid
// query.
//
// Results are exactly those of that sequential loop. Per-query
// guardrails (deadline/budget/cancel) apply to each member as they do
// to Query: a member that trips caches nothing, and one whose memory
// ladder drops the grid cache makes the next member rebuild.
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

/// Batch-level accounting (also mirrored into the batch.* metrics),
/// derived from the member results. Members the input check rejects
/// count in none of these.
struct BatchStats {
  std::size_t classes = 0;           ///< distinct ceil(r) classes
  std::size_t grid_builds = 0;       ///< members that built a large grid
  std::size_t grid_builds_saved = 0; ///< members that adopted a cached one
  std::size_t cells_partitioned = 0; ///< always 0; kept for stats readers
  /// Posting bytes of each class's cached grid, times its saved members.
  /// Measured before a member runs, so a grid that member's memory
  /// ladder drops still counts.
  std::uint64_t postings_bytes_shared = 0;
  std::uint64_t arena_high_water_bytes = 0; ///< always 0; kept for readers
};

/// Per-member results, parallel to the submitted query vector.
struct BatchResult {
  std::vector<QueryResult> results;
  BatchStats stats;
};

}  // namespace mio
