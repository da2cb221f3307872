// LOWER-BOUNDING(O, r) — paper Algorithm 4 / Lemma 1. For each object,
// OR together the small-grid bitsets of the cells in its key list; every
// object in that union (minus o_i itself) certainly interacts with o_i,
// because two points in one small cell are within r. No distance
// computation is involved.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "bitset/ewah.hpp"
#include "bitset/plain_bitset.hpp"
#include "core/bigrid.hpp"

namespace mio {

class QueryGuard;  // common/guardrails.hpp

/// Lower bounds for all objects.
struct LowerBoundResult {
  std::vector<std::uint32_t> tau_low;
  std::uint32_t tau_low_max = 0;
  /// The per-object union bitsets b(o_i); kept only when requested (the
  /// *-WITH-LABEL verification seeds its accumulator from them).
  std::vector<Ewah> lb_bitsets;

  /// k-th largest lower bound (the top-k pruning threshold, §III-C).
  std::uint32_t KthLargest(std::size_t k) const;
};

/// Lemma 1 for one object: clears `acc`, accumulates b(o_i), the OR of
/// the small-grid bitsets of o_i's key list, and returns its size. The
/// union holds o_i's own bit whenever the key list is non-empty, so
/// tau_low is the size minus one. Serial lower bounding, LB-greedy-d and
/// the upper-bounding fallback without tau_low all compute a bound with
/// it.
std::size_t LowerBoundUnion(const BiGrid& grid, ObjectId i,
                            UnionAccumulator* acc);

/// Lemma 1 for the objects one worker owns: those with owner[i] ==
/// `worker`, or every object when `owner` is empty. Writes each one's
/// tau_low into `res` (sized by the caller), and its union when
/// res->lb_bitsets is sized too, and returns the largest tau_low written.
/// `guard` (optional) is polled once per kGuardStrideObjects of the
/// worker's objects; a trip ends the loop. Serial lower bounding is one
/// worker over every object; LB-greedy-d runs one per core.
std::uint32_t LowerBoundObjects(const BiGrid& grid, std::span<const int> owner,
                                int worker, QueryGuard* guard,
                                LowerBoundResult* res);

/// Serial lower-bounding over the whole collection. `guard` (optional) is
/// polled on an amortised stride; a trip abandons the scan, leaving the
/// remaining tau_low entries at 0 (the partial bounds stay valid lower
/// bounds, so the engine's best-so-far answer may still use them).
LowerBoundResult LowerBounding(const BiGrid& grid, bool keep_bitsets,
                               QueryGuard* guard = nullptr);

}  // namespace mio
