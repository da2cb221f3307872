#include "core/lower_bound.hpp"

#include <algorithm>

#include "common/guardrails.hpp"
#include "obs/metrics.hpp"

namespace mio {

std::uint32_t LowerBoundResult::KthLargest(std::size_t k) const {
  if (tau_low.empty()) return 0;
  k = std::min(std::max<std::size_t>(k, 1), tau_low.size());
  std::vector<std::uint32_t> copy = tau_low;
  std::nth_element(copy.begin(), copy.begin() + (k - 1), copy.end(),
                   std::greater<>());
  return copy[k - 1];
}

std::size_t LowerBoundUnion(const BiGrid& grid, ObjectId i,
                            UnionAccumulator* acc) {
  acc->Clear();
  for (std::uint32_t id : grid.KeyList(i)) acc->Add(grid.SmallCellAt(id).bits);
  return acc->Count();
}

std::uint32_t LowerBoundObjects(const BiGrid& grid, std::span<const int> owner,
                                int worker, QueryGuard* guard,
                                LowerBoundResult* res) {
  const bool keep_bitsets = !res->lb_bitsets.empty();
  std::uint32_t max = 0;
  UnionAccumulator acc;
  std::size_t done = 0;
  for (ObjectId i = 0; i < res->tau_low.size(); ++i) {
    if (!owner.empty() && owner[i] != worker) continue;
    if (guard != nullptr && (done++ % kGuardStrideObjects) == 0 &&
        guard->Poll()) {
      break;  // partial tau_low entries remain valid lower bounds
    }
    const std::size_t count = LowerBoundUnion(grid, i, &acc);
    obs::Add(obs::Counter::kLbCellOrs, grid.KeyList(i).size());
    obs::Observe(obs::Histogram::kLbKeyListLen, grid.KeyList(i).size());
    obs::Observe(obs::Histogram::kLbUnionBits, count);
    // Lemma 1's "-1" removes o_i's own bit.
    res->tau_low[i] = count > 0 ? static_cast<std::uint32_t>(count - 1) : 0;
    max = std::max(max, res->tau_low[i]);
    if (keep_bitsets) res->lb_bitsets[i] = acc.ToEwah();
  }
  return max;
}

LowerBoundResult LowerBounding(const BiGrid& grid, bool keep_bitsets,
                               QueryGuard* guard) {
  const std::size_t n = grid.objects().size();
  LowerBoundResult res;
  res.tau_low.assign(n, 0);
  if (keep_bitsets) res.lb_bitsets.resize(n);
  res.tau_low_max = LowerBoundObjects(grid, {}, 0, guard, &res);
  return res;
}

}  // namespace mio
