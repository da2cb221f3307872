// MioEngine::QueryBatch — batch execution over ceil(r) classes (see
// core/batch.hpp for the contract). Kept out of mio_engine.cpp so the
// single-query pipeline and the batch orchestration read independently.
#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/bigrid.hpp"
#include "core/mio_engine.hpp"
#include "geo/cell_key.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace mio {

BatchResult MioEngine::QueryBatch(const std::vector<BatchQuery>& queries) {
  MIO_TRACE_SPAN_CAT("query_batch", "query");
  BatchResult out;
  out.results.resize(queries.size());
  if (queries.empty()) return out;
  obs::Add(obs::Counter::kBatchQueries, queries.size());

  // Group member indices by ceil(r) class — first-appearance order across
  // classes, submission order within a class, so per-member behaviour
  // (label recording, guardrail outcomes) matches the sequential run of
  // the same class. A linear scan over classes is fine: real batches hold
  // a handful of distinct ceilings.
  std::vector<std::pair<int, std::vector<std::size_t>>> classes;
  for (std::size_t qi = 0; qi < queries.size(); ++qi) {
    out.results[qi].status = CheckInput(queries[qi].r, queries[qi].options);
    if (!out.results[qi].status.ok()) continue;  // rejected, like Query
    const int ceil_r = static_cast<int>(LargeGridWidth(queries[qi].r));
    auto it = std::find_if(
        classes.begin(), classes.end(),
        [&](const auto& c) { return c.first == ceil_r; });
    if (it == classes.end()) {
      classes.emplace_back(ceil_r, std::vector<std::size_t>{});
      it = classes.end() - 1;
    }
    it->second.push_back(qi);
  }
  out.stats.classes = classes.size();
  obs::Add(obs::Counter::kBatchClasses, classes.size());

  for (const auto& [ceil_r, members] : classes) {
    std::size_t saved = 0;
    // Posting bytes of the class's cached grid. Every complete grid of
    // one ceiling holds the same postings, so one measurement serves the
    // class. It is taken before a member runs, because that member's
    // memory ladder may drop the grid it adopts.
    std::uint64_t grid_bytes = 0;
    for (std::size_t qi : members) {
      if (grid_bytes == 0) {
        if (std::shared_ptr<LargeGridData> grid = LookupCachedGrid(ceil_r)) {
          grid_bytes = LargeGridPostingBytes(*grid);
        }
      }
      QueryOptions opt = queries[qi].options;
      opt.reuse_grid = true;  // class grids flow through grid_cache_
      out.results[qi] = Query(queries[qi].r, opt);
      if (out.results[qi].stats.reused_grid) {
        ++saved;
      } else {
        ++out.stats.grid_builds;
      }
    }
    out.stats.grid_builds_saved += saved;
    obs::Add(obs::Counter::kBatchGridBuildsSaved, saved);
    const std::uint64_t bytes = saved * grid_bytes;
    out.stats.postings_bytes_shared += bytes;
    obs::Add(obs::Counter::kBatchPostingsBytesShared, bytes);
  }
  return out;
}

}  // namespace mio
