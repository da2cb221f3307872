// NL: the non-indexed nested loop baseline (paper Algorithm 1). For each
// object pair, pairwise point comparison with an early break on the first
// hit (once one interacting pair is found the pair's verdict is settled).
// O(n^2 m^2) worst case; no pre-processing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/query_result.hpp"
#include "geo/kernels.hpp"
#include "object/object_set.hpp"

namespace mio {

/// Exact score of every object, by nested-loop join. `threads` > 1
/// parallelises the outer pair loop with per-thread score accumulators
/// (the paper's parallel NL, §V-C). If `dist_comps` is non-null it
/// receives the number of point-distance evaluations.
std::vector<std::uint32_t> NestedLoopScores(const ObjectSet& objects, double r,
                                            int threads = 1,
                                            std::size_t* dist_comps = nullptr);

/// Full MIO query via NL. k selects the top-k variant (NL computes all
/// scores anyway, so k only changes the reported list). An r or a
/// dataset outside CheckQueryDomain (geo/cell_key.hpp) yields
/// kInvalidArgument and an empty top-k, as for every query path.
QueryResult NestedLoopQuery(const ObjectSet& objects, double r,
                            int threads = 1, std::size_t k = 1);

/// True iff objects a and b interact at threshold r (early-exit pairwise
/// scan). Shared by NL and the test oracles.
bool ObjectsInteract(const Object& a, const Object& b, double r,
                     std::size_t* dist_comps = nullptr);

/// The kernel-routed form: probes each point of `a` against b's SoA
/// coordinate arrays with one AnyWithin batch call. NL builds the SoA
/// mirrors once per query and calls this in its pair loop, so the
/// baseline's pairwise predicate runs through the same dispatch tiers as
/// BIGrid's verification.
bool ObjectsInteract(const Object& a, const SoaPoints& b, double r,
                     std::size_t* dist_comps = nullptr);

}  // namespace mio
