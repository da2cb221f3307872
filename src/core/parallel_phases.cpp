#include "core/parallel_phases.hpp"

#include <algorithm>
#include <bit>
#include <span>
#include <unordered_map>

#include "common/guardrails.hpp"
#include "common/omp_utils.hpp"
#include "common/timer.hpp"
#include "core/partition.hpp"
#include "core/verification.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace mio {

// ---------------------------------------------------------------------------
// Lower-bounding
// ---------------------------------------------------------------------------

namespace {

LowerBoundResult LbGreedyDivide(const BiGrid& grid, int threads,
                                bool keep_bitsets, QueryGuard* guard) {
  const std::size_t n = grid.objects().size();
  LowerBoundResult res;
  res.tau_low.assign(n, 0);
  if (keep_bitsets) res.lb_bitsets.resize(n);

  // Greedy division of O by key-list size (the paper's LB-greedy-d):
  // each core computes whole objects, so no bitset synchronisation.
  std::vector<std::uint64_t> weights(n);
  for (ObjectId i = 0; i < n; ++i) weights[i] = grid.KeyList(i).size() + 1;
  const std::vector<int> assign = GreedyAssign(weights, threads);

  std::vector<std::uint32_t> local_max(threads, 0);
#pragma omp parallel num_threads(threads)
  {
    MIO_TRACE_SPAN_CAT("lb.worker", "lb");
    const int t = ThreadId();
    local_max[t] = LowerBoundObjects(grid, assign, t, guard, &res);
  }
  for (int t = 0; t < threads; ++t) {
    res.tau_low_max = std::max(res.tau_low_max, local_max[t]);
  }
  return res;
}

LowerBoundResult LbHashPartition(const BiGrid& grid, int threads,
                                 bool keep_bitsets, QueryGuard* guard) {
  const std::size_t n = grid.objects().size();
  LowerBoundResult res;
  res.tau_low.assign(n, 0);
  if (keep_bitsets) res.lb_bitsets.resize(n);

  // Hash-partition each object's key list across cores, OR into per-core
  // local bitsets, merge per object (the paper's LB-hash-p). Perfectly
  // balanced, but pays a parallel region + merge per object — exactly the
  // overhead Fig. 8 shows dominating when key lists are small.
  std::vector<UnionAccumulator> locals(threads);
  for (ObjectId i = 0; i < n; ++i) {
    // Polled per object (not per stride): each iteration already pays for
    // a parallel region, so the poll cost is negligible here.
    if (guard != nullptr && guard->Poll()) break;
    const std::span<const std::uint32_t> cells = grid.KeyList(i);
#pragma omp parallel num_threads(threads)
    {
      std::size_t t = static_cast<std::size_t>(ThreadId());
      locals[t].Clear();
      for (std::size_t idx = t; idx < cells.size();
           idx += static_cast<std::size_t>(threads)) {
        locals[t].Add(grid.SmallCellAt(cells[idx]).bits);
      }
    }
    UnionAccumulator& acc = locals[0];
    for (int t = 1; t < threads; ++t) acc.Add(locals[t]);
    std::size_t count = acc.Count();
    res.tau_low[i] = count > 0 ? static_cast<std::uint32_t>(count - 1) : 0;
    res.tau_low_max = std::max(res.tau_low_max, res.tau_low[i]);
    if (keep_bitsets) res.lb_bitsets[i] = acc.ToEwah();
  }
  return res;
}

}  // namespace

LowerBoundResult ParallelLowerBounding(const BiGrid& grid,
                                       LbStrategy strategy, int threads,
                                       bool keep_bitsets, QueryGuard* guard) {
  threads = ResolveThreads(threads);
  if (threads <= 1) return LowerBounding(grid, keep_bitsets, guard);
  switch (strategy) {
    case LbStrategy::kHashPartitionPoints:
      return LbHashPartition(grid, threads, keep_bitsets, guard);
    case LbStrategy::kGreedyDivideObjects:
    default:
      return LbGreedyDivide(grid, threads, keep_bitsets, guard);
  }
}

// ---------------------------------------------------------------------------
// Upper-bounding
// ---------------------------------------------------------------------------

namespace {

/// An object's P_{i,K} groups, reused across objects: its points sorted
/// by cell (BiGrid::PointsByCell), and where each cell's run begins, then
/// the end.
struct Groups {
  std::vector<CellPoint> points;
  std::vector<std::size_t> begin;

  void Of(const BiGrid& grid, ObjectId i) {
    grid.PointsByCell(i, &points);
    begin.clear();
    for (std::size_t a = 0; a < points.size(); ++a) {
      if (a == 0 || points[a].cell != points[a - 1].cell) begin.push_back(a);
    }
    begin.push_back(points.size());
  }
  std::size_t size() const { return begin.size() - 1; }
  std::uint32_t cell(std::size_t g) const { return points[begin[g]].cell; }
  std::span<const CellPoint> operator[](std::size_t g) const {
    return {points.data() + begin[g], begin[g + 1] - begin[g]};
  }
};

/// Clears the kUpper bit for the points of a group, optionally keeping the
/// first one (the point that "carries" the group's OR in future replays).
void ClearUpperLabels(LabelSet* record, ObjectId i,
                      std::span<const CellPoint> group, bool keep_first) {
  for (std::size_t idx = keep_first ? 1 : 0; idx < group.size(); ++idx) {
    record->labels[i][group[idx].idx] &=
        static_cast<std::uint8_t>(~label::kUpper);
  }
}

UpperBoundResult UbCostBasedGreedy(BiGrid& grid, std::uint32_t threshold,
                                   int threads, const LabelSet* use_labels,
                                   LabelSet* record_labels,
                                   QueryGuard* guard) {
  const std::size_t n = grid.objects().size();
  UpperBoundResult res;
  res.tau_upp.assign(n, 0);

  std::vector<UnionAccumulator> locals(threads);
  Groups groups;
  for (ObjectId i = 0; i < n; ++i) {
    // Per-object poll: each iteration spawns a parallel region anyway.
    if (guard != nullptr && guard->Poll()) break;
    groups.Of(grid, i);

    // Cost model Eq. (3): a group whose cell still needs b_adj costs 27
    // cell accesses; a memoised one costs a single bitset update. The
    // labelling term |P_{i,K}| applies only when labels are being
    // recorded (it is "omitted when the labels are utilized").
    std::vector<std::uint64_t> weights(groups.size());
    for (std::size_t g = 0; g < groups.size(); ++g) {
      std::uint64_t w = grid.LargeCellAt(groups.cell(g)).AdjReady()
                            ? 1
                            : static_cast<std::uint64_t>(kNeighborhoodSize);
      if (record_labels != nullptr) w += groups[g].size();
      weights[g] = w;
    }
    std::vector<int> assign = GreedyAssign(weights, threads);

#pragma omp parallel num_threads(threads)
    {
      int t = ThreadId();
      locals[t].Clear();
      for (std::size_t g = 0; g < groups.size(); ++g) {
        if (assign[g] != t) continue;
        const std::span<const CellPoint> group = groups[g];
        if (use_labels != nullptr) {
          // Skip the group unless some point still carries kUpper.
          bool any = false;
          for (const CellPoint& p : group) {
            std::uint8_t l = use_labels->Get(i, p.idx);
            if ((l & label::kUpper) != 0 && (l & label::kMap) != 0) {
              any = true;
              break;
            }
          }
          if (!any) continue;
        }
        // Points with the same key share one cell, so exactly one core
        // computes b_adj for it — no synchronisation (paper §IV).
        LargeCell& cell = grid.EnsureAdj(groups.cell(g));
        if (record_labels != nullptr && cell.adj_count == 1) {
          for (const CellPoint& p : group) {
            record_labels->labels[i][p.idx] &=
                static_cast<std::uint8_t>(~label::kMap);
          }
          continue;
        }
        const bool changed = locals[t].Add(cell.adj);
        if (record_labels != nullptr) {
          // One OR per group: the first point carries it, the rest are
          // redundant (Observation 2); if nothing changed, all are.
          ClearUpperLabels(record_labels, i, group, /*keep_first=*/changed);
        }
      }
    }

    UnionAccumulator& acc = locals[0];
    for (int t = 1; t < threads; ++t) acc.Add(locals[t]);
    std::size_t count = acc.Count();
    obs::Observe(obs::Histogram::kUbGroupsPerObject, groups.size());
    obs::Observe(obs::Histogram::kUbUnionBits, count);
    res.tau_upp[i] = count > 0 ? static_cast<std::uint32_t>(count - 1) : 0;
    if (res.tau_upp[i] >= threshold) res.candidates.push_back(i);
  }
  return res;
}

UpperBoundResult UbGreedyDivide(BiGrid& grid, std::uint32_t threshold,
                                int threads, const LabelSet* use_labels,
                                LabelSet* record_labels, QueryGuard* guard) {
  const ObjectSet& objects = grid.objects();
  const std::size_t n = objects.size();
  UpperBoundResult res;
  res.tau_upp.assign(n, 0);

  // The paper's strawman: divide O by |P_i| only. The real per-point cost
  // depends on whether b_adj must be computed, which this ignores — hence
  // the poor balance Fig. 8 reports. Threads keep private b_adj memos to
  // stay race-free (duplicated neighbourhood unions are part of the cost).
  std::vector<std::uint64_t> weights(n);
  for (ObjectId i = 0; i < n; ++i) weights[i] = objects[i].NumPoints() + 1;
  std::vector<int> assign = GreedyAssign(weights, threads);

#pragma omp parallel num_threads(threads)
  {
    int t = ThreadId();
    std::unordered_map<std::uint32_t, std::pair<Ewah, std::uint32_t>> memo;
    UnionAccumulator acc;
    std::size_t done = 0;
    for (ObjectId i = 0; i < n; ++i) {
      if (assign[i] != t) continue;
      if (guard != nullptr && (done++ % kGuardStrideObjects) == 0 &&
          guard->Poll()) {
        break;  // each worker drains independently
      }
      const Object& o = objects[i];
      acc.Clear();
      for (std::size_t j = 0; j < o.points.size(); ++j) {
        if (use_labels != nullptr) {
          std::uint8_t l = use_labels->Get(i, j);
          if ((l & label::kMap) == 0 || (l & label::kUpper) == 0) continue;
        }
        const std::uint32_t id = grid.LargeCellOf(i, j);
        auto it = memo.find(id);
        if (it == memo.end()) {
          std::uint32_t cnt = 0;
          Ewah adj = grid.NeighborhoodUnion(id, &cnt);
          it = memo.emplace(id, std::make_pair(std::move(adj), cnt)).first;
        }
        const auto& [adj, adj_count] = it->second;
        if (record_labels != nullptr && adj_count == 1) {
          record_labels->labels[i][j] &=
              static_cast<std::uint8_t>(~label::kMap);
          continue;
        }
        if (!acc.Add(adj) && record_labels != nullptr) {
          record_labels->labels[i][j] &=
              static_cast<std::uint8_t>(~label::kUpper);
        }
      }
      const std::size_t count = acc.Count();
      res.tau_upp[i] = count > 0 ? static_cast<std::uint32_t>(count - 1) : 0;
    }
  }

  for (ObjectId i = 0; i < n; ++i) {
    if (res.tau_upp[i] >= threshold) res.candidates.push_back(i);
  }
  return res;
}

}  // namespace

UpperBoundResult ParallelUpperBounding(BiGrid& grid, std::uint32_t threshold,
                                       UbStrategy strategy, int threads,
                                       const LabelSet* use_labels,
                                       LabelSet* record_labels,
                                       QueryStats* stats, QueryGuard* guard,
                                       const std::vector<std::uint32_t>*
                                           tau_low) {
  threads = ResolveThreads(threads);
  if (threads <= 1) {
    return UpperBounding(grid, threshold, use_labels, record_labels, stats,
                         guard, tau_low);
  }
  UpperBoundResult res =
      strategy == UbStrategy::kGreedyDivideObjects
          ? UbGreedyDivide(grid, threshold, threads, use_labels,
                           record_labels, guard)
          : UbCostBasedGreedy(grid, threshold, threads, use_labels,
                              record_labels, guard);
  FinishCandidateQueue(grid, tau_low, stats, &res);
  return res;
}

// ---------------------------------------------------------------------------
// Verification
// ---------------------------------------------------------------------------

namespace {

/// One core's decisions for the current candidate. `round` holds, by
/// round parity, its disproofs so far and whether its guard poll tripped:
/// a core writes round r + 1's slot while the others still read round
/// r's, and none can write round r's again before all pass round r + 1's
/// barrier.
struct alignas(64) CoreScan {
  struct Round {
    std::size_t disproved = 0;
    bool tripped = false;
  };
  Round round[2];
  std::vector<std::uint32_t> witnesses;
  std::size_t confirmed = 0;
  std::size_t disproved = 0;
  std::size_t comps = 0;
};

/// The parallel verifier's scratch, reused across candidates: one arena
/// for the candidate's scan, the indices of its undecided set's non-zero
/// words, and one CoreScan per core.
struct ParallelScan {
  VerifyArena arena;
  std::vector<std::uint32_t> live;
  std::vector<CoreScan> cores;
};

/// Parallel exact score of one candidate (paper §IV, with/without
/// label): StartScan runs on the calling thread, then one region splits
/// the undecided objects across cores in word-aligned shares. In each
/// round every core decides the objects of one live (non-zero) word of
/// the undecided set with ReachTable::Witness, the same test as
/// ExactScore's; then the cores sum their disproofs and all stop
/// together once confirmed + undecided <= threshold. One word per round
/// stops bird's losers about as early as the serial scan does; deciding
/// a whole share per core with no check inside the region verified
/// slower on quick bird and full bird2 at 4 threads (CHANGES.md). Shares
/// are fixed by round and core, so the result and the work do not
/// depend on timing. Witnesses are collected per core and recorded after
/// the region, so no two cores write one label byte. Each worker's time
/// is accumulated into stats->verify_thread_seconds so load imbalance is
/// reportable.
std::uint32_t ParallelExactScore(const BiGrid& grid, ObjectId i, int threads,
                                 const LabelSet* use_labels,
                                 LabelSet* record_labels, const Ewah* lb_bitset,
                                 QueryStats* stats, bool use_verify_bit,
                                 QueryGuard* guard, long long threshold,
                                 bool* stopped, ParallelScan* scan) {
  VerifyArena& a = scan->arena;
  const ScanStart start =
      StartScan(grid, i, use_labels, use_verify_bit, lb_bitset, &a);
  auto beaten = [&](std::size_t ruled_out) {
    return static_cast<long long>(start.confirmed + start.undecided -
                                  ruled_out) <= threshold;
  };
  const std::vector<std::uint64_t>& words = a.undecided.words();
  std::vector<std::uint32_t>& live = scan->live;
  live.clear();
  if (!beaten(0)) {
    for (std::size_t w = 0; w < words.size(); ++w) {
      if (words[w] != 0) live.push_back(static_cast<std::uint32_t>(w));
    }
  }

  const std::size_t nthreads = static_cast<std::size_t>(threads);
  const std::size_t rounds = (live.size() + nthreads - 1) / nthreads;
  const double r2 = grid.r() * grid.r();
  std::vector<CoreScan>& cores = scan->cores;
  for (CoreScan& core : cores) {
    core.witnesses.clear();
    core.confirmed = core.disproved = core.comps = 0;
  }
  if (rounds > 0) {
#pragma omp parallel num_threads(threads)
    {
      MIO_TRACE_SPAN_CAT("verify.worker", "verify");
      Timer worker_timer;
      const std::size_t t = static_cast<std::size_t>(ThreadId());
      CoreScan& core = cores[t];
      bool tripped = false;
      std::size_t since_poll = kGuardStridePoints;  // poll before the first
      for (std::size_t round = 0; round < rounds; ++round) {
        const std::size_t at = round * nthreads + t;
        const std::size_t w = at < live.size() ? live[at] : 0;
        const std::uint64_t mine = at < live.size() && !tripped ? words[w] : 0;
        for (std::uint64_t word = mine; word != 0; word &= word - 1) {
          const auto o =
              static_cast<ObjectId>(w * 64 + std::countr_zero(word));
          if (guard != nullptr && since_poll >= kGuardStridePoints) {
            since_poll = 0;
            if (guard->Poll()) {  // partial score: the caller discards it
              tripped = true;
              break;
            }
          }
          since_poll += grid.objects()[o].points.size();
          const std::int64_t witness =
              a.reach.Witness(grid, o, r2, &core.comps);
          if (witness >= 0) {
            ++core.confirmed;
            core.witnesses.push_back(static_cast<std::uint32_t>(witness));
          } else {
            ++core.disproved;
          }
        }
        core.round[round % 2] = CoreScan::Round{core.disproved, tripped};
#pragma omp barrier
        std::size_t ruled_out = 0;
        bool any_tripped = false;
        for (const CoreScan& c : cores) {
          ruled_out += c.round[round % 2].disproved;
          any_tripped = any_tripped || c.round[round % 2].tripped;
        }
        if (any_tripped || beaten(ruled_out)) break;
      }
      if (stats != nullptr) {
        stats->verify_thread_seconds[t] += worker_timer.ElapsedSeconds();
      }
    }
  }

  std::size_t confirmed = start.confirmed;
  std::size_t undecided = start.undecided;
  std::size_t comps = 0;
  for (const CoreScan& core : cores) {
    confirmed += core.confirmed;
    undecided -= core.confirmed + core.disproved;
    comps += core.comps;
  }
  if (record_labels != nullptr && undecided == 0) {
    for (const CoreScan& core : cores) {
      a.witnesses.insert(a.witnesses.end(), core.witnesses.begin(),
                         core.witnesses.end());
    }
  }
  if (stats != nullptr) stats->distance_computations += comps;
  return FinishScan(i, start, confirmed, undecided, guard, record_labels, a,
                    stopped);
}

}  // namespace

std::vector<ScoredObject> ParallelVerification(
    const BiGrid& grid, const UpperBoundResult& ub, std::size_t k,
    int threads, const LabelSet* use_labels, LabelSet* record_labels,
    const std::vector<Ewah>* lb_bitsets, QueryStats* stats,
    bool use_verify_bit, QueryGuard* guard) {
  threads = ResolveThreads(threads);
  if (threads <= 1) {
    return Verification(grid, ub, k, use_labels, record_labels, lb_bitsets,
                        stats, use_verify_bit, guard);
  }
  ParallelScan scan;
  scan.cores.resize(static_cast<std::size_t>(threads));
  if (stats != nullptr) {
    stats->verify_thread_seconds.assign(static_cast<std::size_t>(threads),
                                        0.0);
  }
  return VerifyCandidates(
      ub, k, lb_bitsets, stats, guard,
      [&](ObjectId i, const Ewah* lb, long long threshold, bool* stopped) {
        return ParallelExactScore(grid, i, threads, use_labels, record_labels,
                                  lb, stats, use_verify_bit, guard, threshold,
                                  stopped, &scan);
      });
}

}  // namespace mio
