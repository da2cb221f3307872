// UPPER-BOUNDING(O, r, tau_low_max) — paper Algorithm 5 / Lemma 2 /
// Theorem 2. For each object, OR together the lazily computed
// neighbourhood bitsets b_adj of its points' large cells; any object NOT
// in that union cannot interact with o_i (its points are farther than r).
// Objects whose upper bound falls below the best lower bound are pruned;
// survivors become the candidate queue, sorted by descending upper bound
// for the best-first verification.
#pragma once

#include <cstdint>
#include <vector>

#include "core/bigrid.hpp"
#include "core/labels.hpp"
#include "core/query_result.hpp"

namespace mio {

class QueryGuard;  // common/guardrails.hpp

/// Upper bounds plus the surviving candidate queue.
struct UpperBoundResult {
  std::vector<std::uint32_t> tau_upp;
  /// Candidates with tau_upp >= threshold, in SortCandidates order.
  std::vector<ObjectId> candidates;
};

/// Serial upper-bounding. Each distinct large cell of an object is ORed
/// once; a later point in the same cell gets its first point's label
/// outcome. `use_labels` (may be null) activates
/// UPPER-BOUNDING-WITH-LABEL: points whose kUpper (or kMap) bit is cleared
/// are skipped. `record_labels` (may be null) performs Labeling-1/2 as a
/// side effect. `stats` (may be null) receives counter updates. `guard`
/// (optional) is polled on an amortised stride; a trip abandons the scan
/// (unvisited objects never enter the candidate queue, so the partial
/// result is only usable for best-so-far reporting, not a final answer).
/// `tau_low` (optional) is lower bounding's per-object result, the queue's
/// second sort key; without it each candidate's bound is recomputed from
/// the grid's key lists (LowerBoundUnion), so the queue is the same.
UpperBoundResult UpperBounding(BiGrid& grid, std::uint32_t threshold,
                               const LabelSet* use_labels,
                               LabelSet* record_labels, QueryStats* stats,
                               QueryGuard* guard = nullptr,
                               const std::vector<std::uint32_t>* tau_low =
                                   nullptr);

/// Orders the queue for best-first verification: descending tau_upp, then
/// descending tau_low, then ascending id. Corollary 1 fixes only the
/// first key; the Lemma-1 bound puts the likeliest winner of a tie run
/// first, so its exact score can stop the run early (DESIGN.md "Tie
/// order").
void SortCandidates(const std::vector<std::uint32_t>& tau_upp,
                    const std::vector<std::uint32_t>& tau_low,
                    std::vector<ObjectId>* candidates);

/// Ends every upper-bounding path: sorts res->candidates with `tau_low`,
/// or with the candidates' bounds recomputed from the grid when it is
/// null, and reports the queue length to `stats` (may be null).
void FinishCandidateQueue(const BiGrid& grid,
                          const std::vector<std::uint32_t>* tau_low,
                          QueryStats* stats, UpperBoundResult* res);

}  // namespace mio
