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

LowerBoundResult LowerBounding(const BiGrid& grid, bool keep_bitsets,
                               QueryGuard* guard) {
  const std::size_t n = grid.objects().size();
  LowerBoundResult res;
  res.tau_low.assign(n, 0);
  if (keep_bitsets) res.lb_bitsets.resize(n);

  UnionAccumulator acc;
  for (ObjectId i = 0; i < n; ++i) {
    if (guard != nullptr && (i % kGuardStrideObjects) == 0 && guard->Poll()) {
      break;  // partial tau_low entries remain valid lower bounds
    }
    const std::size_t count = LowerBoundUnion(grid, i, &acc);
    obs::Add(obs::Counter::kLbCellOrs, grid.KeyList(i).size());
    obs::Observe(obs::Histogram::kLbKeyListLen, grid.KeyList(i).size());
    obs::Observe(obs::Histogram::kLbUnionBits, count);
    // Lemma 1's "-1" removes o_i's own bit.
    res.tau_low[i] =
        count > 0 ? static_cast<std::uint32_t>(count - 1) : 0;
    res.tau_low_max = std::max(res.tau_low_max, res.tau_low[i]);
    if (keep_bitsets) res.lb_bitsets[i] = acc.ToEwah();
  }
  return res;
}

}  // namespace mio
