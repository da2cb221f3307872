// Query options for the MIO engine, including the parallel partitioning
// strategy knobs the paper compares in Fig. 8.
#pragma once

#include <cstddef>

namespace mio {

class CancelToken;  // common/guardrails.hpp

/// Parallel lower-bounding partitioning (paper §IV).
enum class LbStrategy {
  /// "LB-greedy-d": greedily divide O across cores by key-list size; no
  /// synchronisation, imperfect balance.
  kGreedyDivideObjects,
  /// "LB-hash-p": hash-partition each object's key list across cores with
  /// per-core local bitsets merged at the end; perfect balance, merge
  /// overhead.
  kHashPartitionPoints,
};

/// Parallel upper-bounding partitioning (paper §IV).
enum class UbStrategy {
  /// "UB-greedy-p": cost-based greedy assignment of the P_{i,K} point
  /// groups using Eq. (3); a cell's b_adj is computed by exactly one core.
  kCostBasedGreedy,
  /// "UB-greedy-d": greedily divide O by |P_i|; ignores the real per-point
  /// cost (the paper's strawman, consistently poor).
  kGreedyDivideObjects,
};

/// Options controlling one MIO query execution.
struct QueryOptions {
  /// Number of OpenMP threads; <= 1 runs the serial algorithms.
  int threads = 1;

  /// Top-k variant (paper §III-C discussion); 1 is the plain MIO query.
  std::size_t k = 1;

  /// BIGrid-label behaviour: consult the engine's label cache (and disk
  /// store) for ceil(r) and run the *-WITH-LABEL phases when present.
  bool use_labels = false;

  /// Record labels as a side effect when none exist yet for ceil(r)
  /// (the paper's BIGrid runs "output the labels of points for each
  /// parameter setting", footnote 8).
  bool record_labels = false;

  /// Cache and reuse the large grid (cells, memoised b_adj, neighbours)
  /// across queries sharing ceil(r) — an engineering extension of the
  /// paper's observation that the large grid depends only on the ceiling.
  /// Off by default so measurements stay paper-faithful (the paper's
  /// BIGrid rebuilds both grids every query).
  bool reuse_grid = false;

  LbStrategy lb_strategy = LbStrategy::kGreedyDivideObjects;
  UbStrategy ub_strategy = UbStrategy::kCostBasedGreedy;

  /// Fill QueryStats::compression (walks every cell bitset; off by
  /// default to keep measured query time honest).
  bool collect_compression_stats = false;

  // --- Guardrails (docs/ROBUSTNESS.md) ----------------------------------
  // Limits are cooperative: the phase loops poll them on an amortised
  // stride, so a tripped query returns within one stride — carrying a
  // best-so-far answer with QueryResult::complete = false — rather than
  // at an exact instant.

  /// Wall-clock budget for the whole query in milliseconds; 0 = unlimited.
  double deadline_ms = 0.0;

  /// Soft cap on query memory. Under pressure the engine sheds optional
  /// work along the degradation ladder (skip label recording, drop the
  /// grid cache, stream verification) before aborting with
  /// kResourceExhausted; 0 = unlimited.
  std::size_t memory_budget_bytes = 0;

  /// Cooperative cancellation from another thread; must outlive the
  /// query. nullptr = not cancellable.
  const CancelToken* cancel = nullptr;
};

}  // namespace mio
