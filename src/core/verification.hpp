// VERIFICATION(O_cand, r) — paper Algorithm 6 / Corollary 1. Candidates
// are verified best-first (descending upper bound); verification stops as
// soon as the next upper bound cannot beat the best exact score found
// (the k-th best, for the top-k variant). The exact score of one object
// uses the large grid, cell-major: the object's points are grouped by
// large cell, and per group the still-unconfirmed candidates are
// b = b_adj(c) - b(o_i); the 27-cell neighbourhood is walked once per
// group, posting lists are scanned only for set bits of b, and the walk
// stops the moment b empties.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "bitset/ewah.hpp"
#include "core/bigrid.hpp"
#include "core/labels.hpp"
#include "core/query_result.hpp"
#include "core/upper_bound.hpp"

namespace mio {

class QueryGuard;  // common/guardrails.hpp

/// A point index tagged with its large-grid cell key: the sort record
/// ExactScore groups an object's points by.
struct KeyedPoint {
  CellKey key;
  std::uint32_t idx = 0;
};

/// Scratch of one VerifyGroup caller (one per core): the candidate-set
/// decode target and the per-cell order of the group's points. Neither
/// shrinks, so reuse across groups and candidates is allocation-free.
struct GroupScratch {
  PlainBitset b;
  /// (distance² lower bound to the scanned cell, point index)
  std::vector<std::pair<double, std::uint32_t>> order;

  std::size_t MemoryUsageBytes() const {
    return b.MemoryUsageBytes() +
           order.capacity() * sizeof(std::pair<double, std::uint32_t>);
  }
};

/// Reusable verification scratch. A single query allocates its scratch
/// lazily inside the verification loop; a batch hands one arena to every
/// member of a ceil(r) class so it is allocated once per class instead of
/// once per query (bitsets and vectors never shrink, so steady state is
/// allocation-free). HighWaterBytes feeds the
/// batch.arena_high_water_bytes histogram.
class VerifyArena {
 public:
  PlainBitset acc;       ///< serial-path accumulator b(o_i)
  GroupScratch scratch;  ///< serial-path VerifyGroup scratch
  std::vector<KeyedPoint> keyed;      ///< serial-path group sort
  std::vector<std::uint32_t> points;  ///< serial-path grouped point indices

  /// Per-core scratch for the parallel verification path.
  struct Slot {
    PlainBitset acc;
    GroupScratch scratch;
  };
  std::vector<Slot> slots;

  /// Grows `slots` to cover `threads` entries (existing capacity kept).
  void PrepareThreads(int threads) {
    if (slots.size() < static_cast<std::size_t>(threads)) {
      slots.resize(static_cast<std::size_t>(threads));
    }
  }

  /// Bytes currently held across every buffer — monotone over the arena's
  /// lifetime, so reading it after a batch gives the high-water mark.
  std::size_t HighWaterBytes() const {
    std::size_t bytes = acc.MemoryUsageBytes() + scratch.MemoryUsageBytes() +
                        keyed.capacity() * sizeof(KeyedPoint) +
                        points.capacity() * sizeof(std::uint32_t);
    for (const Slot& s : slots) {
      bytes += s.acc.MemoryUsageBytes() + s.scratch.MemoryUsageBytes();
    }
    return bytes;
  }
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

/// Verifies one group of object i's points that share the large cell
/// `key` (the cell-major step of exact scoring). Computes the
/// unconfirmed-candidate set b = b_adj(key) - acc once, probes each of
/// the 27 neighbourhood cells once, and walks each cell's posting list
/// once: a posting whose object is still in b is tested with the batch
/// distance kernel (geo/kernels.hpp) against the group's points until
/// the first hit, which folds the object into `acc`. Per cell, points
/// that cannot reach it (distance to the cell's box > r) are skipped and
/// the rest are tried nearest first. The walk stops as soon as b
/// empties. `scratch` is caller-owned, so steady-state verification
/// allocates nothing. When recording (Labeling-3), a point keeps kVerify
/// iff it confirmed a partner here; a group already settled on entry
/// clears every point. Shared by the serial and parallel paths (the
/// parallel path passes per-core accumulators, scratch, and each core's
/// share of the group).
void VerifyGroup(BiGrid& grid, ObjectId i, const CellKey& key,
                 std::span<const std::uint32_t> points, PlainBitset* acc,
                 GroupScratch* scratch, LabelSet* record_labels,
                 std::size_t* dist_comps);

/// Exact score of a single object via the large grid (the body of
/// Algorithm 6's loop). `use_labels` activates the 1*1 point filter;
/// `record_labels` performs Labeling-3; `lb_bitset` (with-label mode)
/// seeds the accumulator with the lower-bound union; `dist_comps`
/// accumulates distance evaluations. The filtered points are grouped by
/// large cell — sorted by key, then ascending point index — and each
/// group is one VerifyGroup call. `arena` (optional) supplies the
/// accumulator and every scratch buffer; pass one arena across many
/// ExactScore calls to keep verification allocation-free (the lb seed is
/// decoded over the accumulator wholesale, so a stale value cannot leak
/// between candidates). `guard` (optional) is polled at group boundaries,
/// once per kGuardStridePoints points; once tripped the scan stops and
/// the returned score is PARTIAL (a valid lower bound of the true score,
/// but not exact) — callers must discard it.
std::uint32_t ExactScore(BiGrid& grid, ObjectId i, const LabelSet* use_labels,
                         LabelSet* record_labels, const Ewah* lb_bitset,
                         std::size_t* dist_comps, bool use_verify_bit = true,
                         QueryGuard* guard = nullptr,
                         VerifyArena* arena = nullptr);

/// Best-first verification of the candidate queue; returns the top-k
/// objects by exact score, descending. `guard` (optional): on a trip the
/// in-flight candidate's partial score is discarded and the loop stops —
/// scores already offered to the tracker stay exact, so the returned
/// (possibly short) list is a sound best-so-far answer. `arena`
/// (optional) supplies the accumulator/scratch bitsets; null keeps the
/// query-local scratch of the single-query path.
std::vector<ScoredObject> Verification(BiGrid& grid,
                                       const UpperBoundResult& ub,
                                       std::size_t k,
                                       const LabelSet* use_labels,
                                       LabelSet* record_labels,
                                       const std::vector<Ewah>* lb_bitsets,
                                       QueryStats* stats,
                                       bool use_verify_bit = true,
                                       QueryGuard* guard = nullptr,
                                       VerifyArena* arena = nullptr);

/// Maintains the k best exact scores seen so far and the resulting
/// termination threshold (shared by serial and parallel verification).
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

}  // namespace mio
