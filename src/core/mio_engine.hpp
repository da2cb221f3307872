// MioEngine — the public entry point of the library. Implements the
// paper's framework (Algorithm 2):
//
//   GRID-MAPPING -> LOWER-BOUNDING -> UPPER-BOUNDING -> VERIFICATION
//
// with optional label reuse across queries sharing ceil(r) (§III-D,
// "BIGrid-label"), the top-k variant (§III-C), and the multi-core phase
// implementations (§IV). The BIGrid is built online per query — the paper
// shows offline building is not viable (Appendix A) — so the engine keeps
// no spatial state between queries, only labels.
//
// Typical use:
//   mio::MioEngine engine(objects);
//   mio::QueryOptions opt;
//   opt.use_labels = opt.record_labels = true;   // BIGrid-label
//   mio::QueryResult res = engine.Query(4.0, opt);
//   res.best().id;       // o*
//   res.best().score;    // tau(o*)
#pragma once

#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/batch.hpp"
#include "core/bigrid.hpp"
#include "core/options.hpp"
#include "core/query_result.hpp"
#include "io/label_store.hpp"
#include "object/object_set.hpp"

namespace mio {

/// Query processor over one (static, memory-resident) object collection.
///
/// Thread safety: concurrent Query calls on one engine are safe — the
/// label cache, label store, and grid cache are guarded by an internal
/// mutex, cached grids and label sets are shared read-only via
/// shared_ptr (lazy per-cell memoisation inside a shared grid
/// synchronises itself, see BiGrid::EnsureAdj), and everything else is
/// per-call state. QueryBatch is a loop of Query calls and equally safe
/// beside them: a cached grid is never rewritten once built.
class MioEngine {
 public:
  /// `objects` must outlive the engine. When `label_dir` is non-empty,
  /// recorded labels are persisted there and looked up on later queries
  /// (the external-memory label residency of §III-D); otherwise labels
  /// live only in the in-process cache.
  explicit MioEngine(const ObjectSet& objects, std::string label_dir = "");

  /// Runs one MIO query with a finite threshold r > 0. Any other r, or a
  /// non-finite options.deadline_ms, returns kInvalidArgument with an
  /// empty top-k.
  QueryResult Query(double r, const QueryOptions& options = {});

  /// Runs a batch of queries: Query per member with reuse_grid forced on,
  /// in ceil(r)-class order (see core/batch.hpp), so the engine's
  /// ceil(r)-keyed grid and label caches share work within a class.
  /// Results are parallel to `queries` and identical to that sequential
  /// loop, so per-member guardrails apply exactly as they do to Query.
  BatchResult QueryBatch(const std::vector<BatchQuery>& queries);

  /// True if labels for ceil(r) are available (cache or disk); false for
  /// an r that Query would reject.
  bool HasLabelsFor(double r) const;

  /// Drops cached and persisted labels.
  void ClearLabels();

  /// Drops cached large grids (the reuse_grid cache).
  ///
  /// Lifetime contract: the cache stores shared_ptr<LargeGridData>, and
  /// a Query that adopted a cached grid holds its own shared_ptr for as
  /// long as it reads the grid. Clearing therefore only drops the cache's
  /// reference: a grid still held by an in-flight query stays alive until
  /// it releases it, so a clear (including the one issued by the
  /// memory-budget degradation ladder's kDropGridCache step, or by the
  /// server's overload shedding) can never dangle — it only forces later
  /// lookups, including the next member of a running batch, to rebuild.
  void ClearGridCache();

  const ObjectSet& objects() const { return objects_; }

  /// True when the engine detected a 2-D dataset at construction and is
  /// using the r/sqrt(2) small grid.
  bool planar() const { return planar_; }

 private:
  /// OK for a finite r > 0 whose grids fit the int32 cell lattice,
  /// kInvalidArgument otherwise. Checked before any cast of ceil(r) to
  /// int, which is undefined for NaN and infinity, and before any point
  /// is mapped: a cell key is floor(c / width) cast to int32, and
  /// neighbour enumeration adds ±1 to it, so every key at the finest
  /// width (the small grid's r/sqrt(3)) needs headroom of one. Data with
  /// a non-finite coordinate has no valid key at any r.
  Status CheckRadius(double r) const;

  /// The input check Query and QueryBatch share: CheckRadius plus a
  /// finite options.deadline_ms (a non-finite one cannot be armed).
  Status CheckInput(double r, const QueryOptions& options) const;

  /// Looks up reusable labels for `ceil_r` and classifies the result
  /// (memory hit / disk hit / miss) into `*outcome`, bumping the
  /// labels.cache_hits / labels.cache_misses counters. A miss is later
  /// refined to kMissRecorded when this query records a fresh set.
  /// Returns a shared_ptr so a concurrent ClearLabels cannot invalidate
  /// the set under a running query. Takes cache_mu_ internally.
  std::shared_ptr<const LabelSet> LookupLabels(int ceil_r,
                                               double* load_seconds,
                                               LabelOutcome* outcome);

  /// Locked grid-cache probe (empty shared_ptr on miss).
  std::shared_ptr<LargeGridData> LookupCachedGrid(int ceil_r) const;

  const ObjectSet& objects_;
  bool planar_ = false;
  /// Coordinate range, scanned once at construction for CheckRadius.
  bool coords_finite_ = true;
  double max_abs_coord_ = 0.0;
  /// Guards label_cache_, grid_cache_, and all store_ operations. Held
  /// only around cache/disk bookkeeping, never across a pipeline run, so
  /// concurrent queries contend for microseconds (or one disk load).
  mutable std::mutex cache_mu_;
  std::unordered_map<int, std::shared_ptr<const LabelSet>> label_cache_;
  std::unordered_map<int, std::shared_ptr<LargeGridData>> grid_cache_;
  std::unique_ptr<LabelStore> store_;
};

}  // namespace mio
