// Result and statistics types shared by every MIO algorithm (BIGrid and
// the baselines), so benches and tests can compare them uniformly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "bitset/bitset_stats.hpp"
#include "common/memory_tracker.hpp"
#include "common/status.hpp"
#include "object/object.hpp"

namespace mio {

/// An object id with its exact MIO score tau.
struct ScoredObject {
  ObjectId id = 0;
  std::uint32_t score = 0;
};

/// Wall-clock per phase of the BIGrid pipeline (paper Table II rows).
/// Baselines fill only `verification` (their score computation).
struct PhaseTimes {
  double label_input = 0.0;
  double grid_mapping = 0.0;
  double lower_bounding = 0.0;
  double upper_bounding = 0.0;
  double verification = 0.0;

  double Total() const {
    return label_input + grid_mapping + lower_bounding + upper_bounding +
           verification;
  }
};

/// How one query's label lookup (§III-D, BIGrid-label) resolved. The
/// per-query qlog records and `mio explain` report this directly; the
/// aggregate view is the labels.cache_hits / labels.cache_misses metrics.
enum class LabelOutcome : std::uint8_t {
  kOff = 0,      ///< query ran without label reuse (use_labels = false)
  kHitMemory,    ///< reused labels already resident in the engine cache
  kHitDisk,      ///< reused labels loaded from the label store
  kMissRecorded, ///< nothing reusable; this query recorded a fresh set
  kMiss,         ///< nothing reusable and recording was off (or shed)
};

/// Canonical short name ("off", "hit_memory", ...), stable across the
/// qlog schema.
const char* LabelOutcomeName(LabelOutcome outcome);

/// Inverse of LabelOutcomeName; false when `name` is not an outcome.
bool ParseLabelOutcome(const std::string& name, LabelOutcome* out);

/// Everything the empirical study reports about one query execution.
struct QueryStats {
  PhaseTimes phases;
  double total_seconds = 0.0;

  /// Total points in the dataset (n*m), which `mio explain` and
  /// miobench read.
  std::size_t total_points = 0;

  /// Index structure footprint (Figs. 5f-j, 6f-j).
  std::size_t index_memory_bytes = 0;
  MemoryBreakdown memory;

  // Pruning effectiveness counters.
  std::uint32_t tau_low_max = 0;       ///< best lower bound found
  std::size_t num_candidates = 0;      ///< |O_cand| after upper-bounding
  std::size_t num_verified = 0;        ///< candidates that entered exact
                                       ///< scoring
  std::size_t num_stopped = 0;         ///< of those, scans stopped on the
                                       ///< top-k threshold
  std::size_t distance_computations = 0;
  std::size_t cells_small = 0;
  std::size_t cells_large = 0;
  std::size_t points_pruned_by_labels = 0;

  BitsetCompressionStats compression;
  int threads = 1;
  /// True when the query adopted a cached large grid (reuse_grid mode).
  bool reused_grid = false;

  /// How the label lookup resolved for this query (kOff when labels were
  /// not requested).
  LabelOutcome label_outcome = LabelOutcome::kOff;

  /// Memory-budget DegradationStep reached, as its integer value (0 =
  /// none ... 3 = streaming verification; common/guardrails.hpp).
  std::uint8_t degradation_level = 0;

  /// Seconds each OpenMP worker spent scoring candidates (index = thread
  /// id inside the verification regions). Filled only by the parallel
  /// verifier; the min/max/imbalance summary checks the paper's
  /// load-balanced partitioning claims (Fig. 9).
  std::vector<double> verify_thread_seconds;
};

/// Load-balance summary over per-worker times.
struct ThreadLoadReport {
  double min_seconds = 0.0;
  double max_seconds = 0.0;
  double mean_seconds = 0.0;
  /// max/mean; 1.0 = perfectly balanced, 0 when no samples.
  double imbalance = 0.0;
};

ThreadLoadReport ComputeThreadLoad(const std::vector<double>& seconds);

/// Outcome of one MIO query: the top-k objects (k = 1 for the base query)
/// in descending score order, plus execution statistics.
struct QueryResult {
  std::vector<ScoredObject> topk;
  QueryStats stats;

  /// OK for a normal run; kDeadlineExceeded / kResourceExhausted /
  /// kCancelled when a guardrail stopped the query early.
  Status status;

  /// False when a guardrail tripped: `topk` then holds the best answer
  /// found so far — exact scores for verified candidates, otherwise the
  /// best lower bound — not the proven optimum.
  bool complete = true;

  /// The most interactive object o* (precondition: non-empty dataset).
  const ScoredObject& best() const { return topk.front(); }
};

/// Builds a top-k result from a full score vector (what the baselines
/// produce — they compute every score; paper §V-B notes their run time is
/// independent of k). Ties are broken by lower object id.
std::vector<ScoredObject> TopKFromScores(const std::vector<std::uint32_t>& scores,
                                         std::size_t k);

}  // namespace mio
