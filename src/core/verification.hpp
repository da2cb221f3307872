// VERIFICATION(O_cand, r) — paper Algorithm 6 / Corollary 1. Candidates
// are verified best-first (descending upper bound); verification stops as
// soon as the next upper bound cannot beat the best exact score found
// (the k-th best, for the top-k variant). The exact score of one object
// uses the large grid, cell-major: b(o_i) starts from the object's
// Lemma-1 partners, the object's points are grouped by large cell, and
// per group the still-unconfirmed candidates are b = b_adj(c) - b(o_i);
// the cell and its listed neighbours are walked once per group, each
// cell's postings are reached only through b AND b(c), and the walk stops
// the moment b empties.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "bitset/ewah.hpp"
#include "common/guardrails.hpp"
#include "core/bigrid.hpp"
#include "core/labels.hpp"
#include "core/query_result.hpp"
#include "core/upper_bound.hpp"
#include "obs/trace.hpp"

namespace mio {

/// Scratch of one VerifyGroup caller (one per core): the candidate-set
/// decode target and the per-cell order of the group's points. Neither
/// shrinks, so reuse across groups and candidates is allocation-free.
struct GroupScratch {
  PlainBitset b;
  /// (distance² lower bound to the scanned cell, point index)
  std::vector<std::pair<double, std::uint32_t>> order;
};

/// Verification scratch of one query, reused across its candidates:
/// bitsets and vectors never shrink, so after the first candidate the
/// loop is allocation-free. Verification owns one; ParallelVerification
/// owns one per core and uses only its `acc` and `scratch`.
struct VerifyArena {
  PlainBitset acc;                    ///< accumulator b(o_i)
  GroupScratch scratch;               ///< VerifyGroup scratch
  std::vector<CellPoint> grouped;     ///< ExactScore's points by cell
  std::vector<std::uint32_t> points;  ///< their indices, in that order
};

/// True when point j of object i takes part in verification: every
/// point without labels; with labels the VERIFICATION-WITH-LABEL filter
/// (1*1). kMap is always honoured — pruned points were never mapped into
/// the grid — and kVerify only at the recorded radius (see labels.hpp).
inline bool VerifiesPoint(const LabelSet* use_labels, ObjectId i,
                          std::size_t j, bool use_verify_bit) {
  if (use_labels == nullptr) return true;
  std::uint8_t l = use_labels->Get(i, j);
  if ((l & label::kMap) == 0) return false;
  return !use_verify_bit || (l & label::kVerify) != 0;
}

/// Starts b(o_i) for object i's exact score with its Lemma-1 partners:
/// the kept lower-bound union when `lb_bitset` is given, else the same
/// union computed here — the OR of the small-cell bitsets of
/// grid.KeyList(i). Two points in one small cell are within r, so every
/// seeded object is a certain partner and no posting walk needs to
/// rediscover it. Overwrites `acc` wholesale (reused scratch cannot leak
/// between candidates) and sets bit i.
void SeedPartners(const BiGrid& grid, ObjectId i, const Ewah* lb_bitset,
                  PlainBitset* acc);

/// Verifies one non-empty group of object i's points that share the large
/// cell with id `cell` (the cell-major step of exact scoring). Computes the
/// unconfirmed-candidate set b = b_adj(cell) - acc once, visits the cell
/// and then each listed neighbour once, and walks b AND b(c) once per
/// cell, word by word: the posting of each object in both is tested with the
/// batch distance kernel (geo/kernels.hpp) against the group's points
/// until the first hit, which folds the object into `acc`. Per cell, points
/// that cannot reach it (distance to the cell's box > r) are skipped and
/// the rest are tried nearest first. The walk stops as soon as b
/// empties. `scratch` is caller-owned, so steady-state verification
/// allocates nothing. When recording (Labeling-3), a point keeps kVerify
/// iff it confirmed a partner here; a group already settled on entry
/// clears every point. Shared by the serial and parallel paths (the
/// parallel path passes per-core accumulators, scratch, and each core's
/// share of the group).
void VerifyGroup(BiGrid& grid, ObjectId i, std::uint32_t cell,
                 std::span<const std::uint32_t> points, PlainBitset* acc,
                 GroupScratch* scratch, LabelSet* record_labels,
                 std::size_t* dist_comps);

/// Exact score of a single object via the large grid (the body of
/// Algorithm 6's loop). `use_labels` activates the 1*1 point filter;
/// `record_labels` performs Labeling-3; the accumulator starts from
/// SeedPartners — `lb_bitset` (the with-label mode's kept lower-bound
/// union) or, when null, the union recomputed from the grid; `dist_comps`
/// accumulates distance evaluations. The filtered points are grouped by
/// large cell (BiGrid::PointsByCell: by key, then ascending point index)
/// and each group is one VerifyGroup call. `arena` (optional) supplies the
/// accumulator and every scratch buffer; pass one arena across many
/// ExactScore calls to keep verification allocation-free (the seed
/// overwrites the accumulator wholesale, so a stale value cannot leak
/// between candidates). `guard` (optional) is polled at group boundaries,
/// once per kGuardStridePoints points; once tripped the scan stops and
/// the returned score is PARTIAL (a valid lower bound of the true score,
/// but not exact) — callers must discard it.
std::uint32_t ExactScore(BiGrid& grid, ObjectId i, const LabelSet* use_labels,
                         LabelSet* record_labels, const Ewah* lb_bitset,
                         std::size_t* dist_comps, bool use_verify_bit = true,
                         QueryGuard* guard = nullptr,
                         VerifyArena* arena = nullptr);

/// Maintains the k best exact scores seen so far and the resulting
/// termination threshold (VerifyCandidates' tracker).
class TopKTracker {
 public:
  explicit TopKTracker(std::size_t k) : k_(k == 0 ? 1 : k) {}

  /// Current pruning threshold: the k-th best score once k objects have
  /// been verified, else -1 (nothing can be pruned yet).
  long long Threshold() const;

  void Offer(ObjectId id, std::uint32_t score);

  /// Results in descending score order (ties: ascending id).
  std::vector<ScoredObject> Sorted() const;

 private:
  void RecomputeWorst();

  std::size_t k_;
  std::vector<ScoredObject> entries_;  // unsorted, size <= k_
  std::size_t worst_idx_ = 0;  // index of the current worst entry; valid
                               // whenever entries_ is non-empty
};

/// The best-first candidate loop of Verification and ParallelVerification.
/// The queue is sorted by descending upper bound, so the loop stops once
/// the next bound cannot beat the k-th best exact score, nor can anything
/// behind it (Corollary 1); it also stops when `guard` (optional) trips.
/// Each candidate i is scored by score(i, lb), lb its kept lower-bound
/// union or null, in a "verify.candidate" span; a score the guard tripped
/// during is partial and discarded, so the returned (possibly short) list
/// is a sound best-so-far answer.
template <typename Score>
std::vector<ScoredObject> VerifyCandidates(const UpperBoundResult& ub,
                                           std::size_t k,
                                           const std::vector<Ewah>* lb_bitsets,
                                           QueryStats* stats,
                                           QueryGuard* guard, Score&& score) {
  TopKTracker tracker(k);
  for (ObjectId i : ub.candidates) {
    if (static_cast<long long>(ub.tau_upp[i]) <= tracker.Threshold()) break;
    if (guard != nullptr && guard->Poll()) break;
    MIO_TRACE_SPAN_CAT("verify.candidate", "verify");
    const std::uint32_t exact =
        score(i, lb_bitsets != nullptr ? &(*lb_bitsets)[i] : nullptr);
    if (guard != nullptr && guard->tripped()) break;  // partial: discard
    if (stats != nullptr) ++stats->num_verified;
    tracker.Offer(i, exact);
  }
  return tracker.Sorted();
}

/// Best-first verification of the candidate queue on one thread
/// (VerifyCandidates scoring with ExactScore); returns the top-k objects
/// by exact score, descending. `lb_bitsets` (optional) are the kept
/// lower-bound unions; without them each verified candidate's seed is
/// recomputed from the grid, so the answer and the work are the same.
std::vector<ScoredObject> Verification(BiGrid& grid,
                                       const UpperBoundResult& ub,
                                       std::size_t k,
                                       const LabelSet* use_labels,
                                       LabelSet* record_labels,
                                       const std::vector<Ewah>* lb_bitsets,
                                       QueryStats* stats,
                                       bool use_verify_bit = true,
                                       QueryGuard* guard = nullptr);

}  // namespace mio
