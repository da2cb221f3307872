// VERIFICATION(O_cand, r) — paper Algorithm 6 / Corollary 1. Candidates
// are verified best-first (descending upper bound); verification stops as
// soon as the next upper bound cannot beat the best exact score found
// (the k-th best, for the top-k variant). The exact score of one object
// is object-major: b(o_i) starts from the object's Lemma-1 partners; a
// reach table lists the large cells its verified points can reach, each
// with the run of those points; the undecided objects are the OR of those
// cells' bitsets minus b(o_i); and each undecided object is decided once,
// in ascending id, by testing its own points that land in a reachable
// cell against that cell's run. Ties keep the incumbent, so a candidate
// can only enter the top-k with a score above the tracker's threshold T:
// its scan stops once confirmed + undecided <= T.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "bitset/ewah.hpp"
#include "common/guardrails.hpp"
#include "core/bigrid.hpp"
#include "core/labels.hpp"
#include "core/query_result.hpp"
#include "core/upper_bound.hpp"
#include "obs/trace.hpp"

namespace mio {

/// The large cells one candidate's verified points can reach — each
/// point's own cell, and each listed neighbour whose face gap
/// (NeighborGap2) is at most r — and, per cell, the run of those points'
/// coordinates in SoA layout, ascending by point index. A per-cell stamp
/// names the current candidate's cells, and a counting pass places the
/// runs, so Build neither sorts nor clears between candidates. Any point
/// of another object within r of a verified point lies in a reachable
/// cell, and is tested against that cell's run.
class ReachTable {
 public:
  /// Rebuilds the table for the points `points` (indices into object i's
  /// point list, each mapped into the large grid).
  void Build(const BiGrid& grid, ObjectId i,
             std::span<const std::uint32_t> points);

  /// ORs the bitset of every reachable cell into `out`.
  void Cover(const BiGrid& grid, PlainBitset* out) const;

  /// Decides object o: walks o's points in order, tests each one in a
  /// reachable cell against that cell's run with the batch kernel
  /// (geo/kernels.hpp), and returns the index (in the candidate's point
  /// list) of the first verified point found within r, or -1 when none
  /// is. The evaluations are added to `comps`.
  std::int64_t Witness(const BiGrid& grid, ObjectId o, double r2,
                       std::size_t* comps) const;

 private:
  std::vector<std::uint64_t> stamp_;  ///< by cell id: generation << 32 | slot
  std::uint32_t generation_ = 0;
  std::vector<std::uint32_t> cells_;  ///< reachable cell ids, by slot
  std::vector<std::uint32_t> run_;    ///< by slot, then the end
  std::vector<double> xs_, ys_, zs_;  ///< the runs' coordinates
  std::vector<std::uint32_t> point_;  ///< the runs' point indices
  std::vector<std::uint64_t> pairs_;  ///< Build's slot << 32 | point index
};

/// Verification scratch of one query, reused across its candidates:
/// bitsets and vectors never shrink, so after the first candidate the
/// loop is allocation-free. The parallel verifier owns one and shares it
/// read-only across cores while they decide.
struct VerifyArena {
  PlainBitset seed;       ///< b(o_i) as seeded: Lemma-1 partners and i
  PlainBitset undecided;  ///< reachable objects not in the seed
  std::vector<std::uint32_t> points;     ///< the candidate's verified points
  std::vector<std::uint32_t> witnesses;  ///< points that confirmed a partner
  ReachTable reach;
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
/// seeded object is a certain partner and no scan needs to rediscover
/// it. Overwrites `acc` wholesale (reused scratch cannot leak between
/// candidates) and sets bit i.
void SeedPartners(const BiGrid& grid, ObjectId i, const Ewah* lb_bitset,
                  PlainBitset* acc);

/// The state of one candidate's scan before any object is decided.
struct ScanStart {
  std::size_t confirmed = 0;  ///< seeded partners
  std::size_t undecided = 0;  ///< |arena->undecided|
};

/// Prepares object i's scan in `arena` (shared by the serial and the
/// parallel scorer): seeds its partners, collects its verified points
/// (mapped, and passing VerifiesPoint), builds their reach table and the
/// undecided set, and clears the witness list.
ScanStart StartScan(const BiGrid& grid, ObjectId i,
                    const LabelSet* use_labels, bool use_verify_bit,
                    const Ewah* lb_bitset, VerifyArena* arena);

/// Ends object i's scan, `undecided` of its objects left, `confirmed`
/// partners in all (shared by the serial and the parallel scorer): adds
/// the scan to the verification counters, sets `*stopped` (optional)
/// when objects were left undecided and `guard` did not trip, and, when
/// recording, performs Labeling-3 for a scan that decided every object:
/// its verified points lose kVerify except arena->witnesses, so a replay
/// at the recorded radius still confirms every partner. A stopped scan
/// records nothing, so its candidate keeps kVerify on every point.
/// Returns `confirmed`.
std::uint32_t FinishScan(ObjectId i, const ScanStart& start,
                         std::size_t confirmed, std::size_t undecided,
                         const QueryGuard* guard, LabelSet* record_labels,
                         const VerifyArena& arena, bool* stopped);

/// Exact score of a single object via the large grid (the body of
/// Algorithm 6's loop). `use_labels` activates the 1*1 point filter;
/// `record_labels` performs Labeling-3 (FinishScan); the accumulator
/// starts from SeedPartners — `lb_bitset` (the with-label mode's kept
/// lower-bound union) or, when null, the union recomputed from the grid;
/// `dist_comps` accumulates distance evaluations. `arena` (optional)
/// supplies every scratch buffer; pass one arena across many ExactScore
/// calls to keep verification allocation-free. `threshold` is the
/// tracker's T (-1: none): the scan stops once its confirmed partners
/// plus its undecided objects are at most T, sets `*stopped` (optional)
/// when objects were left undecided, and returns the partners confirmed
/// so far — a value <= T, which the tracker ignores. With no threshold,
/// or when the exact score exceeds T, the exact score is returned.
/// `guard` (optional) is polled once per kGuardStridePoints points
/// walked; once tripped the scan stops and the returned score is PARTIAL
/// (a lower bound of the true score) — callers must discard it.
std::uint32_t ExactScore(const BiGrid& grid, ObjectId i,
                         const LabelSet* use_labels, LabelSet* record_labels,
                         const Ewah* lb_bitset, std::size_t* dist_comps,
                         bool use_verify_bit = true,
                         QueryGuard* guard = nullptr,
                         VerifyArena* arena = nullptr,
                         long long threshold = -1, bool* stopped = nullptr);

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
/// Each candidate i is scored by score(i, lb, threshold, &stopped), lb its
/// kept lower-bound union or null and threshold the tracker's current T,
/// in a "verify.candidate" span. A scan that stopped returns a value <= T,
/// which the tracker ignores (ties keep the incumbent), so the thresholds,
/// the verified count and the answer are those of exact scans. A score
/// the guard tripped during is partial and discarded, so the returned
/// (possibly short) list is a sound best-so-far answer.
template <typename Score>
std::vector<ScoredObject> VerifyCandidates(const UpperBoundResult& ub,
                                           std::size_t k,
                                           const std::vector<Ewah>* lb_bitsets,
                                           QueryStats* stats,
                                           QueryGuard* guard, Score&& score) {
  TopKTracker tracker(k);
  for (ObjectId i : ub.candidates) {
    const long long threshold = tracker.Threshold();
    if (static_cast<long long>(ub.tau_upp[i]) <= threshold) break;
    if (guard != nullptr && guard->Poll()) break;
    MIO_TRACE_SPAN_CAT("verify.candidate", "verify");
    bool stopped = false;
    const std::uint32_t exact =
        score(i, lb_bitsets != nullptr ? &(*lb_bitsets)[i] : nullptr,
              threshold, &stopped);
    if (guard != nullptr && guard->tripped()) break;  // partial: discard
    if (stats != nullptr) {
      ++stats->num_verified;
      if (stopped) ++stats->num_stopped;
    }
    tracker.Offer(i, exact);
  }
  return tracker.Sorted();
}

/// Best-first verification of the candidate queue on one thread
/// (VerifyCandidates scoring with ExactScore); returns the top-k objects
/// by exact score, descending. `lb_bitsets` (optional) are the kept
/// lower-bound unions; without them each verified candidate's seed is
/// recomputed from the grid, so the answer and the work are the same.
std::vector<ScoredObject> Verification(const BiGrid& grid,
                                       const UpperBoundResult& ub,
                                       std::size_t k,
                                       const LabelSet* use_labels,
                                       LabelSet* record_labels,
                                       const std::vector<Ewah>* lb_bitsets,
                                       QueryStats* stats,
                                       bool use_verify_bit = true,
                                       QueryGuard* guard = nullptr);

}  // namespace mio
