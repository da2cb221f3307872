// Pipeline metrics registry: monotonic counters and log2-scale
// histograms recording distributions the per-query QueryStats scalars
// cannot capture (key-list lengths, union cardinalities, kernel batch
// sizes, per-point candidate counts).
//
// Recording is contention-free: each thread owns a cache-line-aligned
// shard (registered on first use, kept for the thread pool's lifetime)
// and a snapshot merges the shards under the registry lock. Shard slots
// are single-writer relaxed atomics — the owning thread updates with a
// plain load+store pair (same codegen as a non-atomic add, no RMW) and
// only a concurrent snapshot (the telemetry sampler, a server /metrics
// scrape) crosses threads. A disabled registry
// (SetMetricsEnabled(false)) reduces every recording site to one
// relaxed load and a predicted branch.
//
// Snapshots are safe at any time but only per-slot consistent:
// concurrent recordings may straddle the merge (e.g. a histogram's
// count updated before its sum). Resets are still meant for quiescent
// points — a reset racing an Observe can lose the reset for that slot.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <string_view>

namespace mio {
namespace obs {

/// Monotonic event counts. Extend here; names live in the
/// kCounterNames/kCounterMetricNames tables below — a static_assert
/// fails the build when an enum value is added without both names.
enum class Counter : int {
  kLbCellOrs = 0,        ///< small-cell bitset ORs during lower bounding
  kUbCellOrs,            ///< b_adj ORs during upper bounding
  kAdjBuilds,            ///< large-cell neighbourhood unions computed
  kPostingScans,         ///< posting lists scanned during verification
  kKernelBatches,        ///< dispatched (non-inline) batch kernel calls
  kVerifyPoints,         ///< points exactly verified
  kVerifyPointsSettled,  ///< verified points whose neighbourhood was
                         ///< already fully confirmed (no posting scan)
  kVerifyGroups,         ///< per-cell point groups verified (VerifyGroup)
  kVerifyCellProbes,     ///< neighbourhood cell lookups during verification
  kVerifyPartnersConfirmed,  ///< partners confirmed by a posting scan
  kFaultsInjected,        ///< fault-injection sites that fired
  kQueryDeadlineExceeded, ///< queries stopped by their deadline
  kQueryCancelled,        ///< queries stopped by a cancel token
  kQueryDegraded,         ///< queries that shed work under memory budget
  kLabelsCorruptRecovered,  ///< corrupt label files recovered as cache miss
  kLabelRetryAttempts,      ///< label-store save/load retries performed
  kLabelRetryExhausted,     ///< label-store ops that failed every attempt
  kLabelCacheHits,          ///< label lookups served from cache or disk
  kLabelCacheMisses,        ///< label lookups with nothing reusable
  kTraceDroppedSpans,       ///< spans overwritten by tracer ring overflow
  kBatchQueries,            ///< queries submitted through QueryBatch
  kBatchClasses,            ///< distinct ceil(r) classes across batches
  kBatchGridBuildsSaved,    ///< batch members that reused a class grid
  kBatchPostingsBytesShared,  ///< posting bytes served from a shared grid
  kQueriesExecuted,        ///< engine pipeline runs (sequential + batch)
  kTelemetrySamples,        ///< background telemetry samples taken
  kServerConnections,       ///< client connections accepted by mio serve
  kServerRequests,          ///< requests parsed off server connections
  kServerOverloadRejected,  ///< requests refused with Overloaded
  kServerCoalesced,         ///< requests folded into an in-flight twin
  kServerCacheHits,         ///< requests answered from the result cache
  kServerCacheMisses,       ///< cacheable requests that had to execute
  kServerShedLabels,        ///< admissions that shed label recording
  kServerShedGridCache,     ///< admissions that dropped the grid cache
  kServerDrainCompleted,    ///< requests finished during graceful drain
  kServerIoErrors,          ///< read/write/accept failures on sessions
  kServerEvlogEvents,       ///< structured events written to the evlog
  kServerEvlogDropped,      ///< evlog events lost to a full ring
  kServerEvlogRateLimited,  ///< evlog events suppressed by the rate limit
  kCount_
};

/// Value distributions, bucketed by log2. Names in the
/// kHistogramNames/kHistogramMetricNames tables below.
enum class Histogram : int {
  kLbKeyListLen = 0,      ///< small-grid key-list length per object
  kLbUnionBits,           ///< lower-bound union cardinality per object
  kUbGroupsPerObject,     ///< large-cell groups per object
  kUbUnionBits,           ///< upper-bound union cardinality per object
  kVerifyCandsPerPoint,   ///< unconfirmed candidates per verified group
                          ///< (observed once per VerifyGroup entry)
  kKernelBatchSize,       ///< span length per dispatched kernel call
  kServerQueueWaitUs,     ///< admission-queue wait per executed request (µs)
  kServerE2eUs,           ///< accept-to-respond latency per request (µs)
  kCount_
};

inline constexpr int kNumCounters = static_cast<int>(Counter::kCount_);
inline constexpr int kNumHistograms = static_cast<int>(Histogram::kCount_);

/// Dotted display names, used by stats-json and the human CLI surfaces.
/// Index = enum value. Every enum value MUST have an entry here AND in
/// the matching *MetricNames table; the static_asserts below turn a
/// forgotten entry into a compile error instead of an "unknown" metric.
inline constexpr std::array<const char*, kNumCounters> kCounterNames = {
    "lb_cell_ors",
    "ub_cell_ors",
    "adj_builds",
    "posting_scans",
    "kernel_batches",
    "verify_points",
    "verify_points_settled",
    "verify_groups",
    "verify_cell_probes",
    "verify_partners_confirmed",
    "faults.injected",
    "query.deadline_exceeded",
    "query.cancelled",
    "query.degraded",
    "labels.corrupt_recovered",
    "labels.retry_attempts",
    "labels.retry_exhausted",
    "labels.cache_hits",
    "labels.cache_misses",
    "trace.dropped_spans",
    "batch.queries",
    "batch.classes",
    "batch.grid_builds_saved",
    "batch.postings_bytes_shared",
    "query.executed",
    "telemetry.samples",
    "server.connections",
    "server.requests",
    "server.overload_rejected",
    "server.coalesced",
    "server.cache_hits",
    "server.cache_misses",
    "server.shed_labels",
    "server.shed_grid_cache",
    "server.drain_completed",
    "server.io_errors",
    "server.evlog_events",
    "server.evlog_dropped",
    "server.evlog_rate_limited",
};

/// OpenMetrics sample names (exposition adds the "mio_" prefix and, for
/// counters, the "_total" suffix). Must match `[a-z_][a-z0-9_]*` — the
/// dotted display names are not legal here.
inline constexpr std::array<const char*, kNumCounters> kCounterMetricNames = {
    "lb_cell_ors",
    "ub_cell_ors",
    "adj_builds",
    "posting_scans",
    "kernel_batches",
    "verify_points",
    "verify_points_settled",
    "verify_groups",
    "verify_cell_probes",
    "verify_partners_confirmed",
    "faults_injected",
    "query_deadline_exceeded",
    "query_cancelled",
    "query_degraded",
    "labels_corrupt_recovered",
    "labels_retry_attempts",
    "labels_retry_exhausted",
    "labels_cache_hits",
    "labels_cache_misses",
    "trace_dropped_spans",
    "batch_queries",
    "batch_classes",
    "batch_grid_builds_saved",
    "batch_postings_bytes_shared",
    "query_executed",
    "telemetry_samples",
    "server_connections",
    "server_requests",
    "server_overload_rejected",
    "server_coalesced",
    "server_cache_hits",
    "server_cache_misses",
    "server_shed_labels",
    "server_shed_grid_cache",
    "server_drain_completed",
    "server_io_errors",
    "server_evlog_events",
    "server_evlog_dropped",
    "server_evlog_rate_limited",
};

inline constexpr std::array<const char*, kNumHistograms> kHistogramNames = {
    "lb_key_list_len",
    "lb_union_bits",
    "ub_groups_per_object",
    "ub_union_bits",
    "verify_cands_per_point",
    "kernel_batch_size",
    "server.queue_wait_us",
    "server.e2e_us",
};

inline constexpr std::array<const char*, kNumHistograms>
    kHistogramMetricNames = {
        "lb_key_list_len",
        "lb_union_bits",
        "ub_groups_per_object",
        "ub_union_bits",
        "verify_cands_per_point",
        "kernel_batch_size",
        "server_queue_wait_us",
        "server_e2e_us",
};

/// True when `s` is a legal OpenMetrics/Prometheus sample-name fragment:
/// `[a-z_][a-z0-9_]*`. constexpr so the name tables are checked at
/// compile time; also used by the unit tests.
constexpr bool IsOpenMetricsName(std::string_view s) {
  if (s.empty()) return false;
  auto lower = [](char c) { return c >= 'a' && c <= 'z'; };
  auto digit = [](char c) { return c >= '0' && c <= '9'; };
  if (!lower(s[0]) && s[0] != '_') return false;
  for (char c : s) {
    if (!lower(c) && !digit(c) && c != '_') return false;
  }
  return true;
}

namespace detail {

/// Exhaustiveness: std::array zero-fills missing initialisers with
/// nullptr, so "every enum value has a name" reduces to "no entry is
/// null or empty".
template <std::size_t N>
constexpr bool AllNamed(const std::array<const char*, N>& names) {
  for (const char* n : names) {
    if (n == nullptr || *n == '\0') return false;
  }
  return true;
}

template <std::size_t N>
constexpr bool AllOpenMetricsNames(const std::array<const char*, N>& names) {
  for (const char* n : names) {
    if (n == nullptr || !IsOpenMetricsName(n)) return false;
  }
  return true;
}

}  // namespace detail

static_assert(detail::AllNamed(kCounterNames),
              "every Counter needs a display name in kCounterNames");
static_assert(detail::AllNamed(kHistogramNames),
              "every Histogram needs a display name in kHistogramNames");
static_assert(detail::AllOpenMetricsNames(kCounterMetricNames),
              "every Counter needs a legal [a-z_][a-z0-9_]* name in "
              "kCounterMetricNames");
static_assert(detail::AllOpenMetricsNames(kHistogramMetricNames),
              "every Histogram needs a legal [a-z_][a-z0-9_]* name in "
              "kHistogramMetricNames");

const char* CounterName(Counter c);
const char* HistogramName(Histogram h);

/// OpenMetrics sample name (no "mio_" prefix, no "_total" suffix).
const char* CounterMetricName(Counter c);
const char* HistogramMetricName(Histogram h);

/// Merged state of one histogram. Bucket 0 holds the value 0; bucket
/// b >= 1 holds values in [2^(b-1), 2^b).
struct HistogramSnapshot {
  static constexpr int kBuckets = 41;  // covers values up to 2^40-1

  std::array<std::uint64_t, kBuckets> buckets{};
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t min = 0;  ///< meaningful only when count > 0
  std::uint64_t max = 0;

  double Mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }

  /// Estimated p-quantile (p in [0,1]) by linear interpolation inside the
  /// target log2 bucket's value range ([0,1) for bucket 0, [2^(b-1), 2^b)
  /// for b >= 1). Exact at bucket boundaries; 0 when empty.
  double Percentile(double p) const;
};

/// Snapshot of every counter and histogram, merged across thread shards.
struct MetricsSnapshot {
  std::array<std::uint64_t, kNumCounters> counters{};
  std::array<HistogramSnapshot, kNumHistograms> histograms{};

  bool Empty() const {
    for (std::uint64_t c : counters) {
      if (c != 0) return false;
    }
    for (const HistogramSnapshot& h : histograms) {
      if (h.count != 0) return false;
    }
    return true;
  }
};

namespace detail {

extern std::atomic<bool> g_metrics_enabled;

/// Log2 bucket index for a histogram value.
inline int BucketOf(std::uint64_t v) {
  if (v == 0) return 0;
  int b = std::bit_width(v);  // v in [2^(b-1), 2^b)
  return b < HistogramSnapshot::kBuckets ? b : HistogramSnapshot::kBuckets - 1;
}

/// Single-writer update of a shard slot: only the owning thread calls
/// this, so load+store (not fetch_add) is sound and keeps the plain-add
/// codegen. The atomicity exists solely for concurrent snapshot reads.
inline void ShardBump(std::atomic<std::uint64_t>& slot, std::uint64_t v) {
  slot.store(slot.load(std::memory_order_relaxed) + v,
             std::memory_order_relaxed);
}

struct HistogramShard {
  std::array<std::atomic<std::uint64_t>, HistogramSnapshot::kBuckets>
      buckets{};
  std::atomic<std::uint64_t> count{0};
  std::atomic<std::uint64_t> sum{0};
  std::atomic<std::uint64_t> min{UINT64_MAX};
  std::atomic<std::uint64_t> max{0};

  void Observe(std::uint64_t v) {
    ShardBump(buckets[static_cast<std::size_t>(BucketOf(v))], 1);
    ShardBump(count, 1);
    ShardBump(sum, v);
    if (v < min.load(std::memory_order_relaxed))
      min.store(v, std::memory_order_relaxed);
    if (v > max.load(std::memory_order_relaxed))
      max.store(v, std::memory_order_relaxed);
  }
};

struct alignas(64) MetricShard {
  std::array<std::atomic<std::uint64_t>, kNumCounters> counters{};
  std::array<HistogramShard, kNumHistograms> histograms{};
};

extern thread_local MetricShard* tl_shard;
MetricShard* RegisterShard();

inline MetricShard& Shard() {
  MetricShard* s = tl_shard;
  return s != nullptr ? *s : *RegisterShard();
}

}  // namespace detail

inline bool MetricsEnabled() {
  return detail::g_metrics_enabled.load(std::memory_order_relaxed);
}
void SetMetricsEnabled(bool on);

/// Adds `v` to a counter on the calling thread's shard.
inline void Add(Counter c, std::uint64_t v = 1) {
  if (!MetricsEnabled()) return;
  detail::ShardBump(detail::Shard().counters[static_cast<std::size_t>(c)], v);
}

/// Records one histogram observation on the calling thread's shard.
inline void Observe(Histogram h, std::uint64_t v) {
  if (!MetricsEnabled()) return;
  detail::Shard().histograms[static_cast<std::size_t>(h)].Observe(v);
}

/// Merges every thread shard into one snapshot.
MetricsSnapshot SnapshotMetrics();

/// Zeroes every thread shard (shards stay registered).
void ResetMetrics();

}  // namespace obs
}  // namespace mio
