// The measurement-tier names, kept for one reader: miobench/mio_bench.cpp
// writes obs::PmuTierName(obs::ActivePmuTier()) into its host header.
// Nothing else uses them. Per-phase time is the steady-clock PhaseTimes
// of core/query_result.hpp, so the one tier is "timing".
#pragma once

namespace mio {
namespace obs {

enum class PmuTier : int { kTiming = 0 };

inline const char* PmuTierName(PmuTier) { return "timing"; }

inline PmuTier ActivePmuTier() { return PmuTier::kTiming; }

}  // namespace obs
}  // namespace mio
