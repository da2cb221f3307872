#include "core/upper_bound.hpp"

#include <algorithm>

#include "common/guardrails.hpp"
#include "core/lower_bound.hpp"
#include "obs/metrics.hpp"

namespace mio {

void SortCandidates(const std::vector<std::uint32_t>& tau_upp,
                    const std::vector<std::uint32_t>& tau_low,
                    std::vector<ObjectId>* candidates) {
  std::sort(candidates->begin(), candidates->end(),
            [&](ObjectId a, ObjectId b) {
              if (tau_upp[a] != tau_upp[b]) return tau_upp[a] > tau_upp[b];
              if (tau_low[a] != tau_low[b]) return tau_low[a] > tau_low[b];
              return a < b;
            });
}

void FinishCandidateQueue(const BiGrid& grid,
                          const std::vector<std::uint32_t>* tau_low,
                          QueryStats* stats, UpperBoundResult* res) {
  std::vector<std::uint32_t> own;
  if (tau_low == nullptr) {
    // Only candidates are ever compared, so only theirs are computed.
    own.assign(res->tau_upp.size(), 0);
    UnionAccumulator acc;
    for (ObjectId i : res->candidates) {
      const std::size_t count = LowerBoundUnion(grid, i, &acc);
      own[i] = count > 0 ? static_cast<std::uint32_t>(count - 1) : 0;
    }
    tau_low = &own;
  }
  SortCandidates(res->tau_upp, *tau_low, &res->candidates);
  if (stats != nullptr) stats->num_candidates = res->candidates.size();
}

UpperBoundResult UpperBounding(BiGrid& grid, std::uint32_t threshold,
                               const LabelSet* use_labels,
                               LabelSet* record_labels, QueryStats* stats,
                               QueryGuard* guard,
                               const std::vector<std::uint32_t>* tau_low) {
  const ObjectSet& objects = grid.objects();
  const std::size_t n = objects.size();

  UpperBoundResult res;
  res.tau_upp.assign(n, 0);
  res.candidates.reserve(n / 4 + 1);

  UnionAccumulator acc;
  // Per large cell, the last object that reached it, as 2 * (i + 1), plus
  // one when o_i is alone in the cell's neighbourhood. A repeated cell
  // cannot change acc, so it is ORed once; a repeat's labels are those of
  // its first point's outcome repeated: kMap cleared for an isolated
  // cell, else kUpper (Labeling-2: its OR would change nothing).
  std::vector<std::uint32_t> seen(grid.NumLargeCells(), 0);
  for (ObjectId i = 0; i < n; ++i) {
    if (guard != nullptr && (i % kGuardStrideObjects) == 0 && guard->Poll()) {
      break;  // partial candidate queue; usable only for best-so-far
    }
    const Object& o = objects[i];
    const std::uint32_t stamp = 2 * (static_cast<std::uint32_t>(i) + 1);
    acc.Clear();
    std::size_t ors = 0;
    for (std::size_t j = 0; j < o.points.size(); ++j) {
      if (use_labels != nullptr) {
        std::uint8_t l = use_labels->Get(i, j);
        // UPPER-BOUNDING-WITH-LABEL iterates only points labelled 11*.
        if ((l & label::kMap) == 0 || (l & label::kUpper) == 0) continue;
      }
      const std::uint32_t id = grid.LargeCellOf(i, j);
      std::uint8_t clear = 0;
      if ((seen[id] & ~std::uint32_t{1}) == stamp) {
        clear = (seen[id] & 1) != 0 ? label::kMap : label::kUpper;
      } else {
        LargeCell& cell = grid.EnsureAdj(id);
        seen[id] = stamp | (cell.adj_count == 1 ? 1 : 0);
        if (record_labels != nullptr && cell.adj_count == 1) {
          // Labeling-1: only o_i occupies this neighbourhood — the point
          // is irrelevant to every phase of future same-ceil(r) queries.
          // It cannot change acc either (acc will contain bit i).
          clear = label::kMap;
        } else {
          ++ors;
          // Labeling-2: the OR changed nothing (Observation 2).
          if (!acc.Add(cell.adj)) clear = label::kUpper;
        }
      }
      if (record_labels != nullptr) {
        record_labels->labels[i][j] &= static_cast<std::uint8_t>(~clear);
      }
    }
    const std::size_t count = acc.Count();
    obs::Add(obs::Counter::kUbCellOrs, ors);
    obs::Observe(obs::Histogram::kUbUnionBits, count);
    res.tau_upp[i] = count > 0 ? static_cast<std::uint32_t>(count - 1) : 0;
    if (res.tau_upp[i] >= threshold) res.candidates.push_back(i);
  }

  FinishCandidateQueue(grid, tau_low, stats, &res);
  return res;
}

}  // namespace mio
