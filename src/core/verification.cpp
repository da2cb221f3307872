#include "core/verification.hpp"

#include <algorithm>

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

void VerifyPoint(BiGrid& grid, ObjectId i, std::size_t point_idx,
                 PlainBitset* acc, PlainBitset* b_scratch,
                 LabelSet* record_labels, std::size_t* dist_comps) {
  const Point& p = grid.objects()[i].points[point_idx];
  const double r2 = grid.r() * grid.r();
  CellKey key = KeyForWidth(p, grid.large_width());
  // With labels, some cells may have skipped upper-bounding entirely, so
  // b_adj may be missing here — compute it first (paper §III-D).
  LargeCell& cell = grid.EnsureAdj(key);

  // b <- b_adj(c) - b(o_i): candidates not yet confirmed. Decoded into the
  // caller's scratch bitset, so steady-state verification allocates
  // nothing per point.
  PlainBitset& b = *b_scratch;
  cell.adj.DecodeInto(&b);
  b.AndNotWith(*acc);
  std::size_t remaining = b.Count();
  obs::Add(obs::Counter::kVerifyPoints);
  obs::Observe(obs::Histogram::kVerifyCandsPerPoint, remaining);
  if (remaining == 0) {
    obs::Add(obs::Counter::kVerifyPointsSettled);
    if (record_labels != nullptr) {
      // Labeling-3: this point's whole neighbourhood is already
      // confirmed (Observation 3).
      record_labels->labels[i][point_idx] &=
          static_cast<std::uint8_t>(~label::kVerify);
    }
    return;
  }

  std::size_t comps = 0;
  std::size_t postings = 0;
  // Scan the cell itself, then its neighbours, stopping as soon as no
  // candidate remains near p. Postings are only touched for set bits of
  // b (Algorithm 6 line 13); each touched posting is one batch-kernel
  // call over its contiguous SoA coordinates.
  auto scan_cell = [&](const CellKey& ck) -> bool {  // false = stop
    const LargeCell* c = grid.FindLarge(ck);
    if (c == nullptr) return true;
    for (std::size_t oi = 0; oi < c->post_obj.size(); ++oi) {
      ObjectId obj = c->post_obj[oi];
      if (!b.Test(obj)) continue;
      ++postings;
      PostingView posting = c->PostingAt(oi);
      std::ptrdiff_t hit =
          AnyWithin(p, posting.xs, posting.ys, posting.zs, posting.size, r2);
      if (hit >= 0) {
        comps += static_cast<std::size_t>(hit) + 1;
        acc->Set(obj);
        b.Clear(obj);
        if (--remaining == 0) return false;
      } else {
        comps += posting.size;
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
  obs::Add(obs::Counter::kPostingScans, postings);
  if (dist_comps != nullptr) *dist_comps += comps;
}

std::uint32_t ExactScore(BiGrid& grid, ObjectId i, const LabelSet* use_labels,
                         LabelSet* record_labels, const Ewah* lb_bitset,
                         std::size_t* dist_comps, bool use_verify_bit,
                         PlainBitset* b_scratch, QueryGuard* guard,
                         PlainBitset* acc_scratch) {
  const Object& o = grid.objects()[i];

  // b(o_i): confirmed interaction partners (plus bit i). With labels it is
  // seeded from the lower-bound union — those objects are certain partners
  // (Lemma 1), so no posting scan needs to rediscover them. The seed fully
  // overwrites `acc_scratch` (DecodeInto resets first), so arena reuse
  // across candidates is safe.
  PlainBitset local_acc;
  PlainBitset& acc = acc_scratch != nullptr ? *acc_scratch : local_acc;
  if (lb_bitset != nullptr) {
    lb_bitset->DecodeInto(&acc);
  } else {
    acc.Reset();
  }
  acc.Set(i);

  PlainBitset local_scratch;
  if (b_scratch == nullptr) b_scratch = &local_scratch;

  for (std::size_t j = 0; j < o.points.size(); ++j) {
    if (guard != nullptr && (j % kGuardStridePoints) == 0 && guard->Poll()) {
      break;  // partial score: the caller must discard it
    }
    if (use_labels != nullptr) {
      std::uint8_t l = use_labels->Get(i, j);
      // VERIFICATION-WITH-LABEL iterates only points labelled 1*1. The
      // kVerify bit is honoured only at the recorded radius (see
      // labels.hpp); kMap must always be honoured — pruned points were
      // never mapped into the grid.
      if ((l & label::kMap) == 0) continue;
      if (use_verify_bit && (l & label::kVerify) == 0) continue;
    }
    VerifyPoint(grid, i, j, &acc, b_scratch, record_labels, dist_comps);
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
                                       QueryGuard* guard,
                                       VerifyArena* arena) {
  TopKTracker tracker(k);
  PlainBitset local_scratch;  // reused across every verified point
  PlainBitset* b_scratch = arena != nullptr ? &arena->scratch : &local_scratch;
  PlainBitset* acc_scratch = arena != nullptr ? &arena->acc : nullptr;
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
        use_verify_bit, b_scratch, guard, acc_scratch);
    if (guard != nullptr && guard->tripped()) break;  // partial: discard
    if (stats != nullptr) ++stats->num_verified;
    tracker.Offer(i, score);
  }
  return tracker.Sorted();
}

}  // namespace mio
