#include "core/verification.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include "common/guardrails.hpp"
#include "geo/kernels.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace mio {

// ---------------------------------------------------------------------------
// TopKTracker
// ---------------------------------------------------------------------------

void TopKTracker::RecomputeWorst() {
  worst_idx_ = 0;
  for (std::size_t i = 1; i < entries_.size(); ++i) {
    if (entries_[i].score < entries_[worst_idx_].score) worst_idx_ = i;
  }
}

long long TopKTracker::Threshold() const {
  if (entries_.size() < k_) return -1;
  return static_cast<long long>(entries_[worst_idx_].score);
}

void TopKTracker::Offer(ObjectId id, std::uint32_t score) {
  if (entries_.size() < k_) {
    // Keep the worst index current during the fill so Threshold() is O(1)
    // the moment the tracker reaches capacity.
    if (entries_.empty() || score < entries_[worst_idx_].score) {
      worst_idx_ = entries_.size();
    }
    entries_.push_back(ScoredObject{id, score});
    return;
  }
  // Replace the worst entry if strictly beaten (ties keep the incumbent:
  // the paper breaks ties arbitrarily). Only a replacement invalidates the
  // cached worst index, so large-k sweeps stop paying k comparisons per
  // candidate that fails the threshold.
  if (score > entries_[worst_idx_].score) {
    entries_[worst_idx_] = ScoredObject{id, score};
    RecomputeWorst();
  }
}

std::vector<ScoredObject> TopKTracker::Sorted() const {
  std::vector<ScoredObject> out = entries_;
  std::sort(out.begin(), out.end(), [](const ScoredObject& a,
                                       const ScoredObject& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.id < b.id;
  });
  return out;
}

// ---------------------------------------------------------------------------
// Exact score
// ---------------------------------------------------------------------------

namespace {

/// Relative widening of a cell face: covers the rounding of floor(c / w)
/// at cell boundaries (~1e-16 relative), so a face gap never exceeds the
/// true coordinate gap to a point mapped into the neighbour cell.
constexpr double kFaceSlack = 1e-9;

/// Lower bound on the squared distance from `p` (mapped into cell `home`)
/// to any point mapped into home's neighbour `d`, the d-th cell of
/// ForEachNeighbor(home, /*include_self=*/true), at width `w`. It never
/// exceeds the kernel's own squared distance to such a point (per-axis
/// gaps are smaller, and rounded arithmetic is monotone), so `> r²` proves
/// no point of that cell is within r of p.
double NeighborGap2(const Point& p, const CellKey& home, int d, double w) {
  // step: the neighbour's offset from home on one axis, -1, 0 or 1.
  auto axis = [w](double c, std::int32_t h, int step) {
    if (step == 0) return 0.0;
    double face = (step > 0 ? static_cast<double>(h) + 1.0
                            : static_cast<double>(h)) * w;
    double gap = (step > 0 ? face - c : c - face) -
                 kFaceSlack * (std::fabs(face) + w);
    return gap > 0.0 ? gap * gap : 0.0;
  };
  return axis(p.x, home.x, d / 9 - 1) + axis(p.y, home.y, d / 3 % 3 - 1) +
         axis(p.z, home.z, d % 3 - 1);
}

}  // namespace

void SeedPartners(const BiGrid& grid, ObjectId i, const Ewah* lb_bitset,
                  PlainBitset* acc) {
  if (lb_bitset != nullptr) {
    lb_bitset->DecodeInto(acc);
  } else {
    acc->Reset();
    for (std::uint32_t id : grid.KeyList(i)) {
      grid.SmallCellAt(id).bits.ForEachWord(
          [acc](std::size_t w, std::uint64_t word) {
            acc->OrWord(w, word);
            return true;
          });
    }
  }
  acc->Set(i);
}

void VerifyGroup(BiGrid& grid, ObjectId i, std::uint32_t cell,
                 std::span<const std::uint32_t> points, PlainBitset* acc,
                 GroupScratch* scratch, LabelSet* record_labels,
                 std::size_t* dist_comps) {
  const std::vector<Point>& pts = grid.objects()[i].points;
  const double r2 = grid.r() * grid.r();
  const double width = grid.large_width();
  // With labels, some cells may have skipped upper-bounding entirely, so
  // b_adj may be missing here — compute it first (paper §III-D).
  const LargeCell& home = grid.EnsureAdj(cell);

  // b <- b_adj(c) - b(o_i): candidates not yet confirmed, shared by every
  // point of the group (they all have the same 27-cell neighbourhood).
  PlainBitset& b = scratch->b;
  home.adj.DecodeInto(&b);
  b.AndNotWith(*acc);
  std::size_t remaining = b.Count();
  obs::Add(obs::Counter::kVerifyGroups);
  obs::Add(obs::Counter::kVerifyPoints, points.size());
  obs::Observe(obs::Histogram::kVerifyCandsPerGroup, remaining);
  if (record_labels != nullptr) {
    // Labeling-3 at group granularity: clear every point, then restore
    // kVerify on each witness below. Every confirmed partner keeps a
    // witness, so a replay at the recorded radius still confirms it; a
    // settled group (Observation 3) keeps none.
    for (std::uint32_t j : points) {
      record_labels->labels[i][j] &= static_cast<std::uint8_t>(~label::kVerify);
    }
  }
  if (remaining == 0) {
    obs::Add(obs::Counter::kVerifyPointsSettled, points.size());
    return;
  }

  std::size_t comps = 0;
  std::size_t postings = 0;
  std::size_t visited = 0;
  std::size_t confirmed = 0;
  // Scan the cell itself, then its listed neighbours, stopping as soon as
  // no candidate remains. Postings are only touched for set bits of b
  // (Algorithm 6 line 13): the walk ANDs b's words with the cell's
  // bitset, a word at a time, and finds each surviving object's posting
  // by rank — the cell's set bits below it. That index is valid because
  // Ewah::FromSortedIds encodes each cell's bits from its post_obj, so
  // bits and post_obj list the same ids in the same ascending order. Each
  // touched posting is tested against the group's points that can reach
  // the cell, nearest first, until the first hit — one batch-kernel call
  // per point over the posting's contiguous SoA coordinates.
  const CellKey key = KeyForWidth(pts[points.front()], width);
  std::vector<std::pair<double, std::uint32_t>>& order = scratch->order;
  const std::vector<std::uint64_t>& live_words = b.words();
  // d: the cell's place in ForEachNeighbor(key, /*include_self=*/true).
  auto scan_cell = [&](const LargeCell* c, int d) -> bool {  // false = stop
    ++visited;
    order.clear();
    for (std::uint32_t j : points) {
      double gap2 = NeighborGap2(pts[j], key, d, width);
      if (gap2 <= r2) order.emplace_back(gap2, j);
    }
    if (order.empty()) return true;
    std::sort(order.begin(), order.end());
    bool more = true;
    std::size_t rank = 0;  // set bits of c->bits before word w
    c->bits.ForEachWord([&](std::size_t w, std::uint64_t cell_word) {
      if (w >= live_words.size()) return false;  // past b: nothing live
      std::uint64_t live = cell_word & live_words[w];
      while (live != 0) {
        const int bit = __builtin_ctzll(live);
        live &= live - 1;
        const ObjectId obj = static_cast<ObjectId>(w * 64 + bit);
        const std::uint64_t below = (std::uint64_t(1) << bit) - 1;
        ++postings;
        PostingView posting = c->PostingAt(
            rank + static_cast<std::size_t>(
                       __builtin_popcountll(cell_word & below)));
        for (const auto& [gap2, j] : order) {
          std::ptrdiff_t hit = AnyWithin(pts[j], posting.xs, posting.ys,
                                         posting.zs, posting.size, r2);
          if (hit < 0) {
            comps += posting.size;
            continue;
          }
          comps += static_cast<std::size_t>(hit) + 1;
          acc->Set(obj);
          b.Clear(obj);
          ++confirmed;
          if (record_labels != nullptr) {
            record_labels->labels[i][j] |= label::kVerify;
          }
          if (--remaining == 0) {
            more = false;
            return false;
          }
          break;
        }
      }
      rank += static_cast<std::size_t>(__builtin_popcountll(cell_word));
      return true;
    });
    return more;
  };

  if (scan_cell(&home, kNeighborhoodSize / 2)) {
    std::uint32_t dirs = home.nbr_dirs;
    for (std::uint32_t nb : grid.LargeNeighbors(cell)) {
      const int d = std::countr_zero(dirs);
      dirs &= dirs - 1;
      if (!scan_cell(&grid.LargeCellAt(nb), d)) break;
    }
  }
  obs::Add(obs::Counter::kVerifyCellsVisited, visited);
  obs::Add(obs::Counter::kPostingScans, postings);
  obs::Add(obs::Counter::kVerifyPartnersConfirmed, confirmed);
  if (dist_comps != nullptr) *dist_comps += comps;
}

std::uint32_t ExactScore(BiGrid& grid, ObjectId i, const LabelSet* use_labels,
                         LabelSet* record_labels, const Ewah* lb_bitset,
                         std::size_t* dist_comps, bool use_verify_bit,
                         QueryGuard* guard, VerifyArena* arena) {
  VerifyArena local_arena;
  VerifyArena& a = arena != nullptr ? *arena : local_arena;

  // b(o_i): confirmed interaction partners (plus bit i), seeded with the
  // Lemma-1 partners. The seed fully overwrites the accumulator, so arena
  // reuse across candidates is safe.
  PlainBitset& acc = a.acc;
  SeedPartners(grid, i, lb_bitset, &acc);

  // Group the points to verify by large cell, in key order, then point
  // index, at every thread count, so distance_computations does not
  // depend on how the grid was built; scores do not depend on the order
  // at all.
  grid.PointsByCell(i, &a.grouped);
  std::erase_if(a.grouped, [&](const CellPoint& p) {
    return !VerifiesPoint(use_labels, i, p.idx, use_verify_bit);
  });
  a.points.resize(a.grouped.size());
  for (std::size_t n = 0; n < a.grouped.size(); ++n) {
    a.points[n] = a.grouped[n].idx;
  }

  const std::span<const std::uint32_t> all(a.points);
  std::size_t since_poll = kGuardStridePoints;  // poll before the first group
  for (std::size_t begin = 0; begin < a.grouped.size();) {
    std::size_t end = begin + 1;
    while (end < a.grouped.size() &&
           a.grouped[end].cell == a.grouped[begin].cell) {
      ++end;
    }
    if (guard != nullptr && since_poll >= kGuardStridePoints) {
      since_poll = 0;
      if (guard->Poll()) break;  // partial score: the caller must discard it
    }
    since_poll += end - begin;
    VerifyGroup(grid, i, a.grouped[begin].cell,
                all.subspan(begin, end - begin), &acc, &a.scratch,
                record_labels, dist_comps);
    begin = end;
  }

  std::size_t count = acc.Count();
  return count > 0 ? static_cast<std::uint32_t>(count - 1) : 0;
}

// ---------------------------------------------------------------------------
// Best-first verification
// ---------------------------------------------------------------------------

std::vector<ScoredObject> Verification(BiGrid& grid,
                                       const UpperBoundResult& ub,
                                       std::size_t k,
                                       const LabelSet* use_labels,
                                       LabelSet* record_labels,
                                       const std::vector<Ewah>* lb_bitsets,
                                       QueryStats* stats,
                                       bool use_verify_bit,
                                       QueryGuard* guard) {
  VerifyArena arena;  // reused across every verified candidate
  return VerifyCandidates(
      ub, k, lb_bitsets, stats, guard, [&](ObjectId i, const Ewah* lb) {
        return ExactScore(
            grid, i, use_labels, record_labels, lb,
            stats != nullptr ? &stats->distance_computations : nullptr,
            use_verify_bit, guard, &arena);
      });
}

}  // namespace mio
