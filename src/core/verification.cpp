#include "core/verification.hpp"

#include <algorithm>
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
/// to any point mapped into the neighbouring cell `nb` at width `w`. It
/// never exceeds the kernel's own squared distance to such a point
/// (per-axis gaps are smaller, and rounded arithmetic is monotone), so
/// `> r²` proves no point of `nb` is within r of p.
double NeighborGap2(const Point& p, const CellKey& home, const CellKey& nb,
                    double w) {
  auto axis = [w](double c, std::int32_t h, std::int32_t n) {
    if (n == h) return 0.0;
    double face = (n > h ? static_cast<double>(h) + 1.0
                         : static_cast<double>(h)) * w;
    double gap = (n > h ? face - c : c - face) -
                 kFaceSlack * (std::fabs(face) + w);
    return gap > 0.0 ? gap * gap : 0.0;
  };
  return axis(p.x, home.x, nb.x) + axis(p.y, home.y, nb.y) +
         axis(p.z, home.z, nb.z);
}

}  // namespace

void VerifyGroup(BiGrid& grid, ObjectId i, const CellKey& key,
                 std::span<const std::uint32_t> points, PlainBitset* acc,
                 GroupScratch* scratch, LabelSet* record_labels,
                 std::size_t* dist_comps) {
  const std::vector<Point>& pts = grid.objects()[i].points;
  const double r2 = grid.r() * grid.r();
  const double width = grid.large_width();
  // With labels, some cells may have skipped upper-bounding entirely, so
  // b_adj may be missing here — compute it first (paper §III-D).
  LargeCell& cell = grid.EnsureAdj(key);

  // b <- b_adj(c) - b(o_i): candidates not yet confirmed, shared by every
  // point of the group (they all have the same 27-cell neighbourhood).
  PlainBitset& b = scratch->b;
  cell.adj.DecodeInto(&b);
  b.AndNotWith(*acc);
  std::size_t remaining = b.Count();
  obs::Add(obs::Counter::kVerifyGroups);
  obs::Add(obs::Counter::kVerifyPoints, points.size());
  obs::Observe(obs::Histogram::kVerifyCandsPerPoint, remaining);
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
  std::size_t probes = 0;
  std::size_t confirmed = 0;
  // Scan the cell itself, then its neighbours, stopping as soon as no
  // candidate remains. Postings are only touched for set bits of b
  // (Algorithm 6 line 13); each touched posting is tested against the
  // group's points that can reach the cell, nearest first, until the
  // first hit — one batch-kernel call per point over the posting's
  // contiguous SoA coordinates.
  std::vector<std::pair<double, std::uint32_t>>& order = scratch->order;
  auto scan_cell = [&](const CellKey& ck) -> bool {  // false = stop
    ++probes;
    const LargeCell* c = grid.FindLarge(ck);
    if (c == nullptr) return true;
    order.clear();
    for (std::uint32_t j : points) {
      double gap2 = NeighborGap2(pts[j], key, ck, width);
      if (gap2 <= r2) order.emplace_back(gap2, j);
    }
    std::sort(order.begin(), order.end());
    for (std::size_t oi = 0; oi < c->post_obj.size() && !order.empty();
         ++oi) {
      ObjectId obj = c->post_obj[oi];
      if (!b.Test(obj)) continue;
      ++postings;
      PostingView posting = c->PostingAt(oi);
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
        if (--remaining == 0) return false;
        break;
      }
    }
    return true;
  };

  if (scan_cell(key)) {
    bool stop = false;
    ForEachNeighbor(key, /*include_self=*/false, [&](const CellKey& nk) {
      if (!stop) stop = !scan_cell(nk);
    });
  }
  obs::Add(obs::Counter::kVerifyCellProbes, probes);
  obs::Add(obs::Counter::kPostingScans, postings);
  obs::Add(obs::Counter::kVerifyPartnersConfirmed, confirmed);
  if (dist_comps != nullptr) *dist_comps += comps;
}

std::uint32_t ExactScore(BiGrid& grid, ObjectId i, const LabelSet* use_labels,
                         LabelSet* record_labels, const Ewah* lb_bitset,
                         std::size_t* dist_comps, bool use_verify_bit,
                         QueryGuard* guard, VerifyArena* arena) {
  const Object& o = grid.objects()[i];
  VerifyArena local_arena;
  VerifyArena& a = arena != nullptr ? *arena : local_arena;

  // b(o_i): confirmed interaction partners (plus bit i). With labels it is
  // seeded from the lower-bound union — those objects are certain partners
  // (Lemma 1), so no posting scan needs to rediscover them. The seed fully
  // overwrites the accumulator (DecodeInto resets first), so arena reuse
  // across candidates is safe.
  PlainBitset& acc = a.acc;
  if (lb_bitset != nullptr) {
    lb_bitset->DecodeInto(&acc);
  } else {
    acc.Reset();
  }
  acc.Set(i);

  // Group the points to verify by large cell. The order is fixed (key,
  // then point index), so distance_computations does not depend on how
  // the grid was built; scores do not depend on the order at all.
  const double width = grid.large_width();
  a.keyed.clear();
  for (std::size_t j = 0; j < o.points.size(); ++j) {
    if (!VerifiesPoint(use_labels, i, j, use_verify_bit)) continue;
    a.keyed.push_back(KeyedPoint{KeyForWidth(o.points[j], width),
                                 static_cast<std::uint32_t>(j)});
  }
  std::sort(a.keyed.begin(), a.keyed.end(),
            [](const KeyedPoint& x, const KeyedPoint& y) {
              if (!(x.key == y.key)) return x.key < y.key;
              return x.idx < y.idx;
            });
  a.points.resize(a.keyed.size());
  for (std::size_t n = 0; n < a.keyed.size(); ++n) {
    a.points[n] = a.keyed[n].idx;
  }

  const std::span<const std::uint32_t> all(a.points);
  std::size_t since_poll = kGuardStridePoints;  // poll before the first group
  for (std::size_t begin = 0; begin < a.keyed.size();) {
    std::size_t end = begin + 1;
    while (end < a.keyed.size() && a.keyed[end].key == a.keyed[begin].key) {
      ++end;
    }
    if (guard != nullptr && since_poll >= kGuardStridePoints) {
      since_poll = 0;
      if (guard->Poll()) break;  // partial score: the caller must discard it
    }
    since_poll += end - begin;
    VerifyGroup(grid, i, a.keyed[begin].key, all.subspan(begin, end - begin),
                &acc, &a.scratch, record_labels, dist_comps);
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
  TopKTracker tracker(k);
  VerifyArena arena;  // reused across every verified candidate
  for (ObjectId i : ub.candidates) {
    // Early termination (Corollary 1): the queue is sorted by descending
    // upper bound, so once the front cannot beat the k-th best exact
    // score, neither can anything behind it.
    if (static_cast<long long>(ub.tau_upp[i]) <= tracker.Threshold()) break;
    if (guard != nullptr && guard->Poll()) break;
    MIO_TRACE_SPAN_CAT("verify.candidate", "verify");
    const Ewah* lb =
        lb_bitsets != nullptr ? &(*lb_bitsets)[i] : nullptr;
    std::uint32_t score = ExactScore(
        grid, i, use_labels, record_labels, lb,
        stats != nullptr ? &stats->distance_computations : nullptr,
        use_verify_bit, guard, &arena);
    if (guard != nullptr && guard->tripped()) break;  // partial: discard
    if (stats != nullptr) ++stats->num_verified;
    tracker.Offer(i, score);
  }
  return tracker.Sorted();
}

}  // namespace mio
