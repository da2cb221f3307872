#include "core/mio_engine.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "common/guardrails.hpp"
#include "common/omp_utils.hpp"
#include "common/timer.hpp"
#include "core/bigrid.hpp"
#include "core/lower_bound.hpp"
#include "core/parallel_phases.hpp"
#include "core/upper_bound.hpp"
#include "core/verification.hpp"
#include "obs/metrics.hpp"
#include "obs/perf_counters.hpp"
#include "obs/trace.hpp"

namespace mio {

MioEngine::MioEngine(const ObjectSet& objects, std::string label_dir)
    : objects_(objects), planar_(objects.IsPlanar()) {
  // Branch-free: NaN and ±inf fail `<= max()`, and NaN never wins a max.
  constexpr double kMaxFinite = std::numeric_limits<double>::max();
  for (const Object& o : objects.objects()) {
    double max_abs = 0.0;
    bool finite = true;
    for (const Point& p : o.points) {
      const double ax = std::fabs(p.x);
      const double ay = std::fabs(p.y);
      const double az = std::fabs(p.z);
      finite &= (ax <= kMaxFinite) & (ay <= kMaxFinite) & (az <= kMaxFinite);
      max_abs = std::max(max_abs, std::max(ax, std::max(ay, az)));
    }
    coords_finite_ = coords_finite_ && finite;
    max_abs_coord_ = std::max(max_abs_coord_, max_abs);
  }
  if (!label_dir.empty()) {
    store_ = std::make_unique<LabelStore>(std::move(label_dir));
  }
}

std::shared_ptr<const LabelSet> MioEngine::LookupLabels(
    int ceil_r, double* load_seconds, LabelOutcome* outcome) {
  // The whole probe — including a disk load — runs under cache_mu_, so
  // concurrent queries missing on the same ceiling load the file once
  // instead of racing duplicate loads into the cache.
  std::lock_guard<std::mutex> lock(cache_mu_);
  auto it = label_cache_.find(ceil_r);
  if (it != label_cache_.end()) {
    obs::Add(obs::Counter::kLabelCacheHits);
    *outcome = LabelOutcome::kHitMemory;
    return it->second;
  }
  if (store_ != nullptr && store_->Has(ceil_r)) {
    Timer timer;
    Result<LabelSet> loaded = store_->Load(ceil_r, objects_);
    if (load_seconds != nullptr) *load_seconds = timer.ElapsedSeconds();
    if (loaded.ok()) {
      auto set =
          std::make_shared<const LabelSet>(std::move(loaded).value());
      label_cache_[ceil_r] = set;
      obs::Add(obs::Counter::kLabelCacheHits);
      *outcome = LabelOutcome::kHitDisk;
      return set;
    }
    // A corrupt / mismatched file is a cache miss, not an error: evict it
    // so this query's label-free run re-records and rewrites the labels,
    // and fall back to the always-correct label-free pipeline.
    if (loaded.status().code() == StatusCode::kCorruption) {
      obs::Add(obs::Counter::kLabelsCorruptRecovered);
      store_->Remove(ceil_r);
    }
  }
  obs::Add(obs::Counter::kLabelCacheMisses);
  *outcome = LabelOutcome::kMiss;
  return nullptr;
}

std::shared_ptr<LargeGridData> MioEngine::LookupCachedGrid(int ceil_r) const {
  std::lock_guard<std::mutex> lock(cache_mu_);
  auto it = grid_cache_.find(ceil_r);
  return it != grid_cache_.end() ? it->second : nullptr;
}

Status MioEngine::CheckRadius(double r) const {
  if (!(r > 0.0 && std::isfinite(r))) {
    return Status::InvalidArgument("radius must be finite and > 0, got " +
                                   std::to_string(r));
  }
  if (!coords_finite_) {
    return Status::InvalidArgument("dataset has a non-finite coordinate");
  }
  // Both sides of the lattice: floor(-c/w) - 1 >= INT32_MIN is the same
  // bound as floor(c/w) + 1 <= INT32_MAX.
  if (std::floor(max_abs_coord_ / SmallGridWidth(r)) + 1.0 >
      static_cast<double>(std::numeric_limits<std::int32_t>::max())) {
    return Status::InvalidArgument(
        "radius " + std::to_string(r) +
        " too small for the coordinate range: grid cell keys overflow int32");
  }
  return Status::OK();
}

Status MioEngine::CheckInput(double r, const QueryOptions& options) const {
  MIO_RETURN_NOT_OK(CheckRadius(r));
  if (!std::isfinite(options.deadline_ms)) {
    return Status::InvalidArgument("deadline_ms must be finite, got " +
                                   std::to_string(options.deadline_ms));
  }
  return Status::OK();
}

bool MioEngine::HasLabelsFor(double r) const {
  if (!CheckRadius(r).ok()) return false;
  int ceil_r = static_cast<int>(LargeGridWidth(r));
  std::lock_guard<std::mutex> lock(cache_mu_);
  if (label_cache_.count(ceil_r) > 0) return true;
  return store_ != nullptr && store_->Has(ceil_r);
}

void MioEngine::ClearLabels() {
  // In-flight queries keep their shared_ptr into the evicted sets, so
  // clearing never dangles — it only forces later lookups to miss.
  std::lock_guard<std::mutex> lock(cache_mu_);
  label_cache_.clear();
  if (store_ != nullptr) store_->Clear();
}

void MioEngine::ClearGridCache() {
  std::lock_guard<std::mutex> lock(cache_mu_);
  grid_cache_.clear();
}

namespace {

/// Converts a tripped guard into the result's terminal state: non-OK
/// status, complete=false, and a best-so-far answer. Exact scores from a
/// (possibly short) verification win; otherwise the best partial lower
/// bound stands in (its score is a valid lower bound of the true tau).
void FinalizeTripped(const QueryGuard& guard, const LowerBoundResult& lb,
                     QueryResult* res) {
  res->status = guard.status();
  res->complete = false;
  switch (guard.code()) {
    case StatusCode::kDeadlineExceeded:
      obs::Add(obs::Counter::kQueryDeadlineExceeded);
      break;
    case StatusCode::kCancelled:
      obs::Add(obs::Counter::kQueryCancelled);
      break;
    default:
      break;
  }
  if (!res->topk.empty() || lb.tau_low.empty()) return;
  std::size_t best = 0;
  for (std::size_t i = 1; i < lb.tau_low.size(); ++i) {
    if (lb.tau_low[i] > lb.tau_low[best]) best = i;
  }
  res->topk.push_back(ScoredObject{static_cast<ObjectId>(best),
                                   lb.tau_low[best]});
}

}  // namespace

QueryResult MioEngine::Query(double r, const QueryOptions& options) {
  MIO_TRACE_SPAN_CAT("query", "query");
  QueryResult res;
  res.status = CheckInput(r, options);
  if (!res.status.ok() || objects_.empty()) return res;
  obs::Add(obs::Counter::kQueriesExecuted);

  const int threads = ResolveThreads(options.threads);
  const std::size_t k = std::min(std::max<std::size_t>(options.k, 1),
                                 objects_.size());
  const bool parallel = threads > 1;
  QueryStats& stats = res.stats;
  stats.threads = threads;
  stats.total_points = objects_.Stats().nm;

  QueryGuard guard;
  guard.SetDeadline(options.deadline_ms);
  guard.SetCancelToken(options.cancel);

  Timer total_timer;

  // --- Label lookup (BIGrid-label: Label-Input row of Table II) ---------
  const int ceil_r = static_cast<int>(LargeGridWidth(r));
  // labels_owner pins the set for this whole run: a concurrent
  // ClearLabels only drops the cache's reference, never ours.
  std::shared_ptr<const LabelSet> labels_owner;
  if (options.use_labels) {
    MIO_TRACE_SPAN_CAT("label_input", "query");
    obs::PmuPhaseScope pmu(&stats.hardware.label_input);
    labels_owner =
        LookupLabels(ceil_r, &stats.phases.label_input, &stats.label_outcome);
  }
  const LabelSet* use_labels = labels_owner.get();
  LabelSet recorded;
  LabelSet* record_labels = nullptr;
  if (options.record_labels && use_labels == nullptr) {
    recorded = LabelSet::MakeAllOnes(objects_);
    recorded.recorded_r = r;
    record_labels = &recorded;
  }
  // Labeling-3 is only sound when replaying the exact recorded radius
  // (see labels.hpp); Labeling-1/2 transfer to the whole ceiling class.
  // Non-const: the degradation ladder may clear it (see below).
  bool use_verify_bit = use_labels != nullptr && use_labels->recorded_r == r;

  // --- GRID-MAPPING(O, r) ------------------------------------------------
  // Planar data gets the tighter 2-D small grid (footnote 1); the large
  // grid — and therefore label validity — is unaffected. With reuse_grid,
  // a cached large grid for this ceiling (complete, with memoised b_adj)
  // is adopted and only the small grid is mapped.
  std::shared_ptr<LargeGridData> reuse;
  if (options.reuse_grid) reuse = LookupCachedGrid(ceil_r);
  BiGrid grid(objects_, r, planar_, std::move(reuse));
  {
    MIO_TRACE_SPAN_CAT("grid_mapping", "query");
    ScopedAccumulator acc(&stats.phases.grid_mapping);
    obs::PmuPhaseScope pmu(&stats.hardware.grid_mapping);
    if (parallel) {
      grid.BuildParallel(threads, use_labels, /*build_groups=*/true, &guard);
    } else {
      grid.Build(use_labels, /*build_groups=*/false, &guard);
    }
  }
  stats.reused_grid = grid.reused_large_grid();
  stats.cells_small = grid.NumSmallCells();
  stats.cells_large = grid.NumLargeCells();
  if (use_labels != nullptr) {
    stats.points_pruned_by_labels = use_labels->CountAnyPruned();
  }

  // The with-label verification seeds its accumulators from the
  // lower-bound unions, so keep them in that mode. Non-const: the
  // degradation ladder may shed them (with use_verify_bit — the kVerify
  // bit is only sound on top of the lower-bound seed).
  bool keep_lb_bitsets = use_labels != nullptr;
  bool cache_this_grid = options.reuse_grid && grid.large_grid_complete();

  // --- Memory-budget degradation (docs/ROBUSTNESS.md) ---------------------
  // Project this query's footprint against the budget and shed optional
  // work in ladder order before giving up. The projection uses the built
  // grid's real footprint plus cheap estimates for the optional parts.
  if (options.memory_budget_bytes > 0 && !guard.tripped()) {
    MemoryBreakdown mb = grid.MemoryUsage();
    DegradationInputs in;
    in.budget_bytes = options.memory_budget_bytes;
    in.required_bytes = mb.Total();
    in.label_bytes =
        record_labels != nullptr ? recorded.MemoryUsageBytes() : 0;
    if (cache_this_grid) {
      for (const auto& [name, bytes] : mb.parts) {
        if (name == "large_grid") in.cache_bytes = bytes;
      }
    }
    // The lower-bound unions are not built yet; estimate one compressed
    // bitset per object.
    in.lb_bitset_bytes = keep_lb_bitsets ? objects_.size() * 128 : 0;
    DegradationPlan plan = PlanDegradation(in);
    if (plan.step >= DegradationStep::kShedLabels && record_labels != nullptr) {
      record_labels = nullptr;
      recorded = LabelSet{};
    }
    if (plan.step >= DegradationStep::kDropGridCache && cache_this_grid) {
      ClearGridCache();
      cache_this_grid = false;
    }
    if (plan.step >= DegradationStep::kStreamVerification) {
      keep_lb_bitsets = false;
      use_verify_bit = false;  // sound only on top of the lb-bitset seed
    }
    if (plan.abort) guard.TripResource();
    stats.degradation_level = static_cast<std::uint8_t>(plan.step);
    if (plan.step != DegradationStep::kNone) {
      obs::Add(obs::Counter::kQueryDegraded);
    }
  }
  if (cache_this_grid && !guard.tripped()) {
    std::lock_guard<std::mutex> lock(cache_mu_);
    grid_cache_[ceil_r] = grid.ShareLargeGrid();
  }

  // --- LOWER-BOUNDING(O, r) ----------------------------------------------
  LowerBoundResult lb;
  if (!guard.tripped()) {
    MIO_TRACE_SPAN_CAT("lower_bounding", "query");
    ScopedAccumulator acc(&stats.phases.lower_bounding);
    obs::PmuPhaseScope pmu(&stats.hardware.lower_bounding);
    lb = parallel ? ParallelLowerBounding(grid, options.lb_strategy, threads,
                                          keep_lb_bitsets, &stats, &guard)
                  : LowerBounding(grid, keep_lb_bitsets, &guard);
  }
  std::uint32_t threshold = k == 1 ? lb.tau_low_max : lb.KthLargest(k);
  stats.tau_low_max = lb.tau_low_max;

  // --- UPPER-BOUNDING(O, r, threshold) ------------------------------------
  UpperBoundResult ub;
  if (!guard.tripped()) {
    MIO_TRACE_SPAN_CAT("upper_bounding", "query");
    ScopedAccumulator acc(&stats.phases.upper_bounding);
    obs::PmuPhaseScope pmu(&stats.hardware.upper_bounding);
    ub = parallel
             ? ParallelUpperBounding(grid, threshold, options.ub_strategy,
                                     threads, use_labels, record_labels,
                                     &stats, &guard)
             : UpperBounding(grid, threshold, use_labels, record_labels,
                             &stats, &guard);
  }

  // --- VERIFICATION(O_cand, r) ---------------------------------------------
  if (!guard.tripped()) {
    MIO_TRACE_SPAN_CAT("verification", "query");
    ScopedAccumulator acc(&stats.phases.verification);
    obs::PmuPhaseScope pmu(&stats.hardware.verification);
    const std::vector<Ewah>* lb_bits =
        keep_lb_bitsets ? &lb.lb_bitsets : nullptr;
    res.topk =
        parallel
            ? ParallelVerification(grid, ub, k, threads, use_labels,
                                   record_labels, lb_bits, &stats,
                                   use_verify_bit, &guard)
            : Verification(grid, ub, k, use_labels, record_labels, lb_bits,
                           &stats, use_verify_bit, &guard);
  }

  // --- Post-processing: label output (§III-D) -----------------------------
  // A tripped query ran its phases partially, so the recorded labels are
  // incomplete — discard them rather than persist a low-value set.
  if (record_labels != nullptr && !guard.tripped()) {
    // A miss that ran to completion produced a fresh label set — the next
    // query in this ceiling class will hit. (A shed or tripped recording
    // stays kMiss: nothing reusable was produced.)
    if (stats.label_outcome == LabelOutcome::kMiss) {
      stats.label_outcome = LabelOutcome::kMissRecorded;
    }
    stats.points_pruned_by_labels = recorded.CountMapPruned();
    auto recorded_ptr = std::make_shared<const LabelSet>(std::move(recorded));
    // Publish under cache_mu_: concurrent recorders for the same ceiling
    // serialise their (idempotent) saves instead of interleaving writes.
    std::lock_guard<std::mutex> lock(cache_mu_);
    if (store_ != nullptr) {
      // Persisting is best-effort: a failed write only costs future reuse.
      (void)store_->Save(ceil_r, *recorded_ptr);
    }
    label_cache_[ceil_r] = std::move(recorded_ptr);
  }

  if (guard.tripped()) FinalizeTripped(guard, lb, &res);

  stats.memory = grid.MemoryUsage();
  if (use_labels != nullptr) {
    stats.memory.Add("labels", use_labels->MemoryUsageBytes());
  }
  stats.index_memory_bytes = stats.memory.Total();
  MemoryTracker::Instance().ObserveBreakdown(stats.memory);
  if (options.collect_compression_stats) {
    stats.compression = grid.CompressionStats();
  }
  stats.total_seconds = total_timer.ElapsedSeconds();
  return res;
}

}  // namespace mio
