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

void ReachTable::Build(const BiGrid& grid, ObjectId i,
                       std::span<const std::uint32_t> points) {
  if (stamp_.size() < grid.NumLargeCells()) {
    stamp_.assign(grid.NumLargeCells(), 0);
    generation_ = 0;
  }
  if (++generation_ == 0) {  // wrapped: no stamp may look current
    std::fill(stamp_.begin(), stamp_.end(), 0);
    generation_ = 1;
  }
  cells_.clear();
  run_.assign(1, 0);
  pairs_.clear();
  const std::vector<Point>& pts = grid.objects()[i].points;
  const double r2 = grid.r() * grid.r();
  const double width = grid.large_width();
  // Counting pass: a cell's first (point, cell) pair gives it the next
  // slot, and run_[slot + 1] counts its points.
  auto reach = [&](std::uint32_t cell, std::uint32_t j) {
    std::uint64_t& stamp = stamp_[cell];
    if ((stamp >> 32) != generation_) {
      stamp = (std::uint64_t{generation_} << 32) | cells_.size();
      cells_.push_back(cell);
      run_.push_back(0);
    }
    const auto slot = static_cast<std::uint32_t>(stamp);
    ++run_[slot + 1];
    pairs_.push_back((std::uint64_t{slot} << 32) | j);
  };
  for (std::uint32_t j : points) {
    const std::uint32_t home = grid.LargeCellOf(i, j);
    reach(home, j);
    const CellKey key = KeyForWidth(pts[j], width);
    std::uint32_t dirs = grid.LargeCellAt(home).nbr_dirs;
    for (std::uint32_t nb : grid.LargeNeighbors(home)) {
      const int d = std::countr_zero(dirs);
      dirs &= dirs - 1;
      if (NeighborGap2(pts[j], key, d, width) <= r2) reach(nb, j);
    }
  }
  // Scatter: run_[slot] is the slot's write cursor, then its end, which
  // the shift turns back into its start.
  for (std::size_t s = 1; s < run_.size(); ++s) run_[s] += run_[s - 1];
  xs_.resize(pairs_.size());
  ys_.resize(pairs_.size());
  zs_.resize(pairs_.size());
  point_.resize(pairs_.size());
  for (std::uint64_t pair : pairs_) {
    const auto j = static_cast<std::uint32_t>(pair);
    const std::uint32_t at = run_[pair >> 32]++;
    xs_[at] = pts[j].x;
    ys_[at] = pts[j].y;
    zs_[at] = pts[j].z;
    point_[at] = j;
  }
  for (std::size_t s = run_.size() - 1; s > 0; --s) run_[s] = run_[s - 1];
  run_[0] = 0;
}

void ReachTable::Cover(const BiGrid& grid, PlainBitset* out) const {
  for (std::uint32_t cell : cells_) {
    grid.LargeCellAt(cell).bits.ForEachWord(
        [out](std::size_t w, std::uint64_t word) {
          out->OrWord(w, word);
          return true;
        });
  }
}

std::int64_t ReachTable::Witness(const BiGrid& grid, ObjectId o, double r2,
                                 std::size_t* comps) const {
  const std::vector<Point>& pts = grid.objects()[o].points;
  std::size_t evaluated = 0;
  std::int64_t witness = -1;
  for (std::size_t j = 0; j < pts.size(); ++j) {
    const std::uint32_t cell = grid.LargeCellOf(o, j);
    if (cell == kNoCell) continue;  // not mapped (Labeling-1)
    const std::uint64_t stamp = stamp_[cell];
    if ((stamp >> 32) != generation_) continue;  // unreachable cell
    const auto slot = static_cast<std::uint32_t>(stamp);
    const std::uint32_t begin = run_[slot];
    const std::size_t size = run_[slot + 1] - begin;
    const std::ptrdiff_t hit = AnyWithin(pts[j], xs_.data() + begin,
                                         ys_.data() + begin,
                                         zs_.data() + begin, size, r2);
    if (hit < 0) {
      evaluated += size;
      continue;
    }
    evaluated += static_cast<std::size_t>(hit) + 1;
    witness = point_[begin + static_cast<std::size_t>(hit)];
    break;
  }
  *comps += evaluated;
  return witness;
}

ScanStart StartScan(const BiGrid& grid, ObjectId i,
                    const LabelSet* use_labels, bool use_verify_bit,
                    const Ewah* lb_bitset, VerifyArena* arena) {
  SeedPartners(grid, i, lb_bitset, &arena->seed);
  arena->points.clear();
  const std::size_t m = grid.objects()[i].points.size();
  for (std::size_t j = 0; j < m; ++j) {
    if (grid.LargeCellOf(i, j) != kNoCell &&
        VerifiesPoint(use_labels, i, j, use_verify_bit)) {
      arena->points.push_back(static_cast<std::uint32_t>(j));
    }
  }
  arena->reach.Build(grid, i, arena->points);
  arena->undecided.Reset();
  arena->reach.Cover(grid, &arena->undecided);
  arena->undecided.AndNotWith(arena->seed);
  arena->witnesses.clear();
  obs::Add(obs::Counter::kVerifyPoints, arena->points.size());
  return ScanStart{arena->seed.Count() - 1, arena->undecided.Count()};
}

std::uint32_t FinishScan(ObjectId i, const ScanStart& start,
                         std::size_t confirmed, std::size_t undecided,
                         const QueryGuard* guard, LabelSet* record_labels,
                         const VerifyArena& arena, bool* stopped) {
  const bool left = undecided > 0 && (guard == nullptr || !guard->tripped());
  obs::Add(obs::Counter::kVerifyObjectsDecided, start.undecided - undecided);
  obs::Add(obs::Counter::kVerifyPartnersConfirmed,
           confirmed - start.confirmed);
  if (left) obs::Add(obs::Counter::kVerifyStops);
  if (stopped != nullptr) *stopped = left;
  if (record_labels != nullptr && undecided == 0) {
    std::vector<std::uint8_t>& labels = record_labels->labels[i];
    for (std::uint32_t j : arena.points) {
      labels[j] &= static_cast<std::uint8_t>(~label::kVerify);
    }
    for (std::uint32_t j : arena.witnesses) labels[j] |= label::kVerify;
  }
  return static_cast<std::uint32_t>(confirmed);
}

std::uint32_t ExactScore(const BiGrid& grid, ObjectId i,
                         const LabelSet* use_labels, LabelSet* record_labels,
                         const Ewah* lb_bitset, std::size_t* dist_comps,
                         bool use_verify_bit, QueryGuard* guard,
                         VerifyArena* arena, long long threshold,
                         bool* stopped) {
  VerifyArena local_arena;
  VerifyArena& a = arena != nullptr ? *arena : local_arena;
  const ScanStart start =
      StartScan(grid, i, use_labels, use_verify_bit, lb_bitset, &a);
  const double r2 = grid.r() * grid.r();
  const std::vector<std::uint64_t>& words = a.undecided.words();
  std::size_t confirmed = start.confirmed;
  std::size_t undecided = start.undecided;
  // Only a disproof lowers confirmed + undecided; the first check covers
  // a candidate its seed and reach already rule out.
  auto beaten = [&] {
    return static_cast<long long>(confirmed + undecided) <= threshold;
  };
  std::size_t comps = 0;
  std::size_t since_poll = kGuardStridePoints;  // poll before the first
  bool stop = undecided > 0 && beaten();
  for (std::size_t w = 0; w < words.size() && !stop; ++w) {
    for (std::uint64_t word = words[w]; word != 0; word &= word - 1) {
      const auto o =
          static_cast<ObjectId>(w * 64 + std::countr_zero(word));
      if (guard != nullptr && since_poll >= kGuardStridePoints) {
        since_poll = 0;
        if (guard->Poll()) {  // partial score: the caller must discard it
          stop = true;
          break;
        }
      }
      since_poll += grid.objects()[o].points.size();
      const std::int64_t witness = a.reach.Witness(grid, o, r2, &comps);
      --undecided;
      if (witness >= 0) {
        ++confirmed;
        a.witnesses.push_back(static_cast<std::uint32_t>(witness));
      } else if (undecided > 0 && beaten()) {
        stop = true;
        break;
      }
    }
  }
  if (dist_comps != nullptr) *dist_comps += comps;
  return FinishScan(i, start, confirmed, undecided, guard, record_labels, a,
                    stopped);
}

// ---------------------------------------------------------------------------
// Best-first verification
// ---------------------------------------------------------------------------

std::vector<ScoredObject> Verification(const BiGrid& grid,
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
      ub, k, lb_bitsets, stats, guard,
      [&](ObjectId i, const Ewah* lb, long long threshold, bool* stopped) {
        return ExactScore(
            grid, i, use_labels, record_labels, lb,
            stats != nullptr ? &stats->distance_computations : nullptr,
            use_verify_bit, guard, &arena, threshold, stopped);
      });
}

}  // namespace mio
