// OpenMP-parallel versions of the BIGrid pipeline phases (paper §IV),
// with the load-balancing strategies compared in Fig. 8:
//   lower-bounding  — LB-greedy-d (divide O by key-list size, no sync) or
//                     LB-hash-p (hash-partition each key list, local
//                     bitsets merged per object);
//   upper-bounding  — UB-greedy-p (cost-based greedy over P_{i,K} groups,
//                     Eq. (3); single-writer b_adj) or UB-greedy-d
//                     (divide O by |P_i|, per-thread b_adj memos);
//   verification    — per-candidate point partitioning with per-core
//                     accumulators merged after the scan.
// The parallel grid mapping lives on BiGrid::BuildParallel.
#pragma once

#include "core/bigrid.hpp"
#include "core/labels.hpp"
#include "core/lower_bound.hpp"
#include "core/options.hpp"
#include "core/query_result.hpp"
#include "core/upper_bound.hpp"
#include "core/verification.hpp"

namespace mio {

class QueryGuard;  // common/guardrails.hpp

/// PARALLEL-LOWER-BOUNDING(O, r). `stats` (optional) receives the
/// non-master workers' PMU deltas (hardware.lower_bounding). `guard`
/// (optional) is polled on an amortised stride inside every worker;
/// OpenMP regions cannot be broken, so tripped workers drain their
/// remaining iterations at one relaxed load each (common/guardrails.hpp).
LowerBoundResult ParallelLowerBounding(const BiGrid& grid,
                                       LbStrategy strategy, int threads,
                                       bool keep_bitsets,
                                       QueryStats* stats = nullptr,
                                       QueryGuard* guard = nullptr);

/// PARALLEL-UPPER-BOUNDING(O, r, tau_low_max). Requires the BiGrid to have
/// been built with point groups for the cost-based strategy. Guard
/// semantics as above; a tripped scan yields a partial candidate queue.
UpperBoundResult ParallelUpperBounding(BiGrid& grid, std::uint32_t threshold,
                                       UbStrategy strategy, int threads,
                                       const LabelSet* use_labels,
                                       LabelSet* record_labels,
                                       QueryStats* stats,
                                       QueryGuard* guard = nullptr);

/// PARALLEL-VERIFICATION(O_cand, r). Candidates are still consumed
/// best-first and serially (the early-termination check is inherently
/// sequential); the per-candidate point scan is parallelised. On a guard
/// trip the in-flight candidate's partial score is discarded, so the
/// returned list is a sound best-so-far answer.
std::vector<ScoredObject> ParallelVerification(
    BiGrid& grid, const UpperBoundResult& ub, std::size_t k, int threads,
    const LabelSet* use_labels, LabelSet* record_labels,
    const std::vector<Ewah>* lb_bitsets, QueryStats* stats,
    bool use_verify_bit = true, QueryGuard* guard = nullptr);

}  // namespace mio
