// MioEngine::QueryBatch — batch execution over ceil(r) classes (see
// core/batch.hpp for the contract). Kept out of mio_engine.cpp so the
// single-query pipeline and the batch orchestration read independently.
#include <algorithm>
#include <utility>
#include <vector>

#include "core/mio_engine.hpp"
#include "core/verification.hpp"
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
    out.results[qi].status = CheckRadius(queries[qi].r);
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

  // One arena for the whole batch: its bitsets never shrink, so every
  // class after the first verifies allocation-free.
  VerifyArena arena;

  for (const auto& [ceil_r, members] : classes) {
    // Pin the class grid with a local shared_ptr for the duration of the
    // class: a member's degradation ladder may call ClearGridCache()
    // mid-batch, and this reference is what keeps the grid alive for its
    // siblings (see ClearGridCache's lifetime contract).
    std::shared_ptr<LargeGridData> class_grid = LookupCachedGrid(ceil_r);
    std::size_t class_posting_bytes = 0;
    auto adopt_class_grid = [&](std::shared_ptr<LargeGridData> g) {
      class_grid = std::move(g);
      class_posting_bytes = LargeGridPostingBytes(*class_grid);
    };
    if (class_grid != nullptr) adopt_class_grid(std::move(class_grid));

    // Hoisted label lookup: one probe per class. Members still see their
    // own per-query outcome semantics (a miss recorded by the designated
    // recorder upgrades the class to a memory hit for its siblings).
    std::shared_ptr<const LabelSet> class_labels;
    LabelOutcome class_outcome = LabelOutcome::kOff;
    bool labels_resolved = false;
    for (std::size_t qi : members) {
      if (queries[qi].options.use_labels) {
        double load_seconds = 0.0;
        class_labels = LookupLabels(ceil_r, &load_seconds, &class_outcome);
        labels_resolved = true;
        break;
      }
    }
    // The first member that would record labels does; siblings replay.
    bool recorder_pending = class_labels == nullptr;

    for (std::size_t qi : members) {
      const BatchQuery& q = queries[qi];
      QueryOptions opt = q.options;
      opt.reuse_grid = true;  // class grids flow through grid_cache_

      const bool had_class_grid = class_grid != nullptr;
      std::shared_ptr<LargeGridData> built;
      PipelineContext ctx;
      ctx.shared_grid = class_grid;
      ctx.build_complete_grid = true;
      ctx.arena = &arena;
      ctx.grid_out = had_class_grid ? nullptr : &built;
      ctx.allow_record = recorder_pending;
      if (opt.use_labels && labels_resolved) {
        ctx.labels_resolved = true;
        ctx.labels = class_labels;
        ctx.label_outcome = class_outcome;
      }

      if (had_class_grid) {
        ++out.stats.grid_builds_saved;
        obs::Add(obs::Counter::kBatchGridBuildsSaved);
        out.stats.postings_bytes_shared += class_posting_bytes;
        obs::Add(obs::Counter::kBatchPostingsBytesShared,
                 class_posting_bytes);
      }

      QueryResult res = RunPipeline(q.r, opt, &ctx);

      if (!had_class_grid) {
        ++out.stats.grid_builds;
        if (built != nullptr) adopt_class_grid(std::move(built));
        // A tripped first member leaves class_grid empty; the next
        // member rebuilds rather than inheriting a partial grid.
      }
      if (recorder_pending &&
          res.stats.label_outcome == LabelOutcome::kMissRecorded) {
        // The recorder's fresh set is now in label_cache_; siblings
        // replay it as a memory hit. The shared_ptr pins it even if a
        // concurrent ClearLabels empties the cache mid-class.
        if (auto cached = CachedLabels(ceil_r)) {
          class_labels = std::move(cached);
          class_outcome = LabelOutcome::kHitMemory;
          labels_resolved = true;
          recorder_pending = false;
        }
      }
      out.results[qi] = std::move(res);
    }
  }

  out.stats.arena_high_water_bytes = arena.HighWaterBytes();
  obs::Observe(obs::Histogram::kBatchArenaHighWater,
               out.stats.arena_high_water_bytes);
  return out;
}

}  // namespace mio
