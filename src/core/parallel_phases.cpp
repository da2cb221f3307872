#include "core/parallel_phases.hpp"

#include <algorithm>
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
  std::vector<int> assign = GreedyAssign(weights, threads);

  std::vector<std::uint32_t> local_max(threads, 0);
#pragma omp parallel num_threads(threads)
  {
    MIO_TRACE_SPAN_CAT("lb.worker", "lb");
    int t = ThreadId();
    UnionAccumulator acc;
    std::size_t done = 0;
    for (ObjectId i = 0; i < n; ++i) {
      if (assign[i] != t) continue;
      if (guard != nullptr && (done++ % kGuardStrideObjects) == 0 &&
          guard->Poll()) {
        break;  // each worker drains independently
      }
      const std::size_t count = LowerBoundUnion(grid, i, &acc);
      obs::Add(obs::Counter::kLbCellOrs, grid.KeyList(i).size());
      obs::Observe(obs::Histogram::kLbKeyListLen, grid.KeyList(i).size());
      obs::Observe(obs::Histogram::kLbUnionBits, count);
      res.tau_low[i] = count > 0 ? static_cast<std::uint32_t>(count - 1) : 0;
      local_max[t] = std::max(local_max[t], res.tau_low[i]);
      if (keep_bitsets) res.lb_bitsets[i] = acc.ToEwah();
    }
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
    const std::span<const CellKey> keys = grid.KeyList(i);
#pragma omp parallel num_threads(threads)
    {
      std::size_t t = static_cast<std::size_t>(ThreadId());
      locals[t].Clear();
      for (std::size_t idx = t; idx < keys.size();
           idx += static_cast<std::size_t>(threads)) {
        locals[t].Add(grid.FindSmall(keys[idx])->bits);
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

/// Clears the kUpper bit for the points of a group, optionally keeping the
/// first one (the point that "carries" the group's OR in future replays).
void ClearUpperLabels(LabelSet* record, ObjectId i, const PointGroup& g,
                      bool keep_first) {
  for (std::size_t idx = keep_first ? 1 : 0; idx < g.point_idx.size(); ++idx) {
    record->labels[i][g.point_idx[idx]] &=
        static_cast<std::uint8_t>(~label::kUpper);
  }
  if (!keep_first && !g.point_idx.empty()) {
    record->labels[i][g.point_idx[0]] &=
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
  for (ObjectId i = 0; i < n; ++i) {
    // Per-object poll: each iteration spawns a parallel region anyway.
    if (guard != nullptr && guard->Poll()) break;
    const std::vector<PointGroup>& groups = grid.LargeGroups(i);

    // Cost model Eq. (3): a group whose cell still needs b_adj costs 27
    // cell accesses; a memoised one costs a single bitset update. The
    // labelling term |P_{i,K}| applies only when labels are being
    // recorded (it is "omitted when the labels are utilized").
    std::vector<std::uint64_t> weights(groups.size());
    for (std::size_t g = 0; g < groups.size(); ++g) {
      const LargeCell* cell = grid.FindLarge(groups[g].key);
      std::uint64_t w = (cell != nullptr && cell->AdjReady())
                            ? 1
                            : static_cast<std::uint64_t>(kNeighborhoodSize);
      if (record_labels != nullptr) w += groups[g].point_idx.size();
      weights[g] = w;
    }
    std::vector<int> assign = GreedyAssign(weights, threads);

#pragma omp parallel num_threads(threads)
    {
      int t = ThreadId();
      locals[t].Clear();
      for (std::size_t g = 0; g < groups.size(); ++g) {
        if (assign[g] != t) continue;
        const PointGroup& group = groups[g];
        if (use_labels != nullptr) {
          // Skip the group unless some point still carries kUpper.
          bool any = false;
          for (std::uint32_t j : group.point_idx) {
            std::uint8_t l = use_labels->Get(i, j);
            if ((l & label::kUpper) != 0 && (l & label::kMap) != 0) {
              any = true;
              break;
            }
          }
          if (!any) continue;
        }
        // Points with the same key share one cell, so exactly one core
        // computes b_adj for it — no synchronisation (paper §IV).
        LargeCell& cell = grid.EnsureAdj(group.key);
        if (record_labels != nullptr && cell.adj_count == 1) {
          for (std::uint32_t j : group.point_idx) {
            record_labels->labels[i][j] &=
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
  const double large_width = grid.large_width();
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
    std::unordered_map<CellKey, std::pair<Ewah, std::uint32_t>, CellKeyHash>
        memo;
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
        CellKey key = KeyForWidth(o.points[j], large_width);
        auto it = memo.find(key);
        if (it == memo.end()) {
          std::uint32_t cnt = 0;
          Ewah adj = grid.NeighborhoodUnion(key, *grid.FindLarge(key), &cnt);
          it = memo.emplace(key, std::make_pair(std::move(adj), cnt)).first;
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
  if (threads <= 1 || !grid.has_groups()) {
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

/// One core's share of one P_{i,K} group: a contiguous run of that core's
/// point list, verified with one VerifyGroup call.
struct GroupShare {
  std::size_t group;
  std::size_t begin;
  std::size_t end;
};

/// Parallel exact score of one candidate: points are partitioned across
/// cores (round-robin within each P_{i,K}; tiny groups go to the least
/// loaded core) and each core scans its share of every group with a
/// private accumulator, seeded like the serial path's (SeedPartners);
/// the accumulators are merged afterwards (paper
/// §IV, with/without label). Each worker's scan time is accumulated into
/// stats->verify_thread_seconds so load imbalance is reportable. `cores`
/// holds one scratch arena per thread, reused across candidates.
std::uint32_t ParallelExactScore(BiGrid& grid, ObjectId i, int threads,
                                 const LabelSet* use_labels,
                                 LabelSet* record_labels, const Ewah* lb_bitset,
                                 QueryStats* stats, bool use_verify_bit,
                                 QueryGuard* guard,
                                 std::vector<VerifyArena>& cores) {
  const std::vector<PointGroup>& groups = grid.LargeGroups(i);

  // Phase 1: make sure every needed b_adj exists (with labels, upper
  // bounding may have skipped some cells). Keys are unique per group, so
  // parallel EnsureAdj calls touch distinct cells.
#pragma omp parallel for schedule(dynamic, 8) num_threads(threads)
  for (std::size_t g = 0; g < groups.size(); ++g) {
    grid.EnsureAdj(groups[g].key);
  }

  PlainBitset seed;
  SeedPartners(grid, i, lb_bitset, &seed);

  // Phase 2: prune whole cells already covered by the seed before
  // distributing any points. A recording query keeps them: VerifyGroup
  // must see a settled group to clear its kVerify bits (Labeling-3).
  std::vector<char> group_alive(groups.size(), 1);
  if (record_labels == nullptr) {
#pragma omp parallel num_threads(threads)
    {
      PlainBitset b;  // per-thread decode scratch
#pragma omp for schedule(static)
      for (std::size_t g = 0; g < groups.size(); ++g) {
        grid.FindLarge(groups[g].key)->adj.DecodeInto(&b);
        b.AndNotWith(seed);
        group_alive[g] = b.Count() > 0 ? 1 : 0;
      }
    }
  }

  // Phase 3: distribute the label-filtered points. Each surviving group
  // is split round-robin across cores; groups smaller than the core count
  // feed the least loaded core instead. A core's points of one group form
  // one contiguous share.
  const std::size_t nthreads = static_cast<std::size_t>(threads);
  std::vector<std::vector<std::uint32_t>> task_points(nthreads);
  std::vector<std::vector<GroupShare>> shares(nthreads);
  std::vector<std::size_t> load(nthreads, 0);
  std::vector<std::size_t> share_begin(nthreads);
  std::vector<std::uint32_t> live;  // the current group's filtered points
  for (std::size_t g = 0; g < groups.size(); ++g) {
    if (!group_alive[g]) continue;
    live.clear();
    for (std::uint32_t j : groups[g].point_idx) {
      if (VerifiesPoint(use_labels, i, j, use_verify_bit)) live.push_back(j);
    }
    if (live.empty()) continue;
    for (std::size_t t = 0; t < nthreads; ++t) {
      share_begin[t] = task_points[t].size();
    }
    for (std::size_t idx = 0; idx < live.size(); ++idx) {
      std::size_t t =
          live.size() >= nthreads
              ? idx % nthreads
              : static_cast<std::size_t>(
                    std::min_element(load.begin(), load.end()) - load.begin());
      task_points[t].push_back(live[idx]);
      ++load[t];
    }
    for (std::size_t t = 0; t < nthreads; ++t) {
      if (task_points[t].size() > share_begin[t]) {
        shares[t].push_back(
            GroupShare{g, share_begin[t], task_points[t].size()});
      }
    }
  }

  // Phase 4: per-core scans with private accumulators. Copy-assigning
  // the seed reuses each core's accumulator capacity.
  std::vector<std::size_t> comps(threads, 0);
  std::vector<double> seconds(threads, 0.0);
#pragma omp parallel num_threads(threads)
  {
    MIO_TRACE_SPAN_CAT("verify.worker", "verify");
    Timer worker_timer;
    int t = ThreadId();
    VerifyArena& core = cores[static_cast<std::size_t>(t)];
    core.acc = seed;
    const std::span<const std::uint32_t> mine(
        task_points[static_cast<std::size_t>(t)]);
    std::size_t since_poll = kGuardStridePoints;  // poll before the first
    for (const GroupShare& share : shares[static_cast<std::size_t>(t)]) {
      if (guard != nullptr && since_poll >= kGuardStridePoints) {
        since_poll = 0;
        if (guard->Poll()) break;  // partial score: the caller discards it
      }
      since_poll += share.end - share.begin;
      VerifyGroup(grid, i, groups[share.group].key,
                  mine.subspan(share.begin, share.end - share.begin),
                  &core.acc, &core.scratch, record_labels, &comps[t]);
    }
    seconds[static_cast<std::size_t>(t)] = worker_timer.ElapsedSeconds();
  }

  PlainBitset& merged = cores[0].acc;
  for (int t = 1; t < threads; ++t) {
    merged.OrWith(cores[static_cast<std::size_t>(t)].acc);
  }
  if (stats != nullptr) {
    for (int t = 0; t < threads; ++t) {
      stats->distance_computations += comps[t];
      stats->verify_thread_seconds[static_cast<std::size_t>(t)] +=
          seconds[static_cast<std::size_t>(t)];
    }
  }
  std::size_t count = merged.Count();
  return count > 0 ? static_cast<std::uint32_t>(count - 1) : 0;
}

}  // namespace

std::vector<ScoredObject> ParallelVerification(
    BiGrid& grid, const UpperBoundResult& ub, std::size_t k, int threads,
    const LabelSet* use_labels, LabelSet* record_labels,
    const std::vector<Ewah>* lb_bitsets, QueryStats* stats,
    bool use_verify_bit, QueryGuard* guard) {
  threads = ResolveThreads(threads);
  if (threads <= 1 || !grid.has_groups()) {
    return Verification(grid, ub, k, use_labels, record_labels, lb_bitsets,
                        stats, use_verify_bit, guard);
  }
  TopKTracker tracker(k);
  std::vector<VerifyArena> cores(static_cast<std::size_t>(threads));
  if (stats != nullptr) {
    stats->verify_thread_seconds.assign(static_cast<std::size_t>(threads),
                                        0.0);
  }
  for (ObjectId i : ub.candidates) {
    if (static_cast<long long>(ub.tau_upp[i]) <= tracker.Threshold()) break;
    if (guard != nullptr && guard->Poll()) break;
    MIO_TRACE_SPAN_CAT("verify.candidate", "verify");
    std::uint32_t score =
        ParallelExactScore(grid, i, threads, use_labels, record_labels,
                           lb_bitsets != nullptr ? &(*lb_bitsets)[i] : nullptr,
                           stats, use_verify_bit, guard, cores);
    if (guard != nullptr && guard->tripped()) break;  // partial: discard
    if (stats != nullptr) ++stats->num_verified;
    tracker.Offer(i, score);
  }
  return tracker.Sorted();
}

}  // namespace mio
