// Pipeline metrics registry: monotonic counters and log2-scale
// histograms recording distributions the per-query QueryStats scalars
// cannot capture (key-list lengths, union cardinalities, kernel batch
// sizes, server latencies).
//
// Recording is contention-free: each thread owns a cache-line-aligned
// shard (registered on first use; when the thread exits, the next
// registering thread takes it over, counts and all) and a snapshot
// merges the shards under the registry lock. Shard slots
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
#include <string>
#include <string_view>

namespace mio {
namespace obs {

/// Monotonic event counts. Extend here; names live in the kCounterNames
/// table below — a static_assert fails the build when an enum value is
/// added without one.
enum class Counter : int {
  kLbCellOrs = 0,        ///< small-cell bitset ORs during lower bounding
  kUbCellOrs,            ///< b_adj ORs of serial upper bounding (one per
                         ///< distinct large cell of an object)
  kAdjBuilds,            ///< large-cell neighbourhood unions computed
  kKernelBatches,        ///< dispatched (non-inline) batch kernel calls
  kVerifyPoints,         ///< candidate points exactly verified
  kVerifyObjectsDecided, ///< undecided objects a scan confirmed or ruled out
  kVerifyPartnersConfirmed,  ///< partners confirmed by a scan (not seeded)
  kVerifyStops,          ///< scans stopped on the top-k threshold
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
  kCount_
};

/// Value distributions, bucketed by log2. Names in the kHistogramNames
/// table below.
enum class Histogram : int {
  kLbKeyListLen = 0,      ///< small-grid key-list length per object
  kLbUnionBits,           ///< lower-bound union cardinality per object
  kUbGroupsPerObject,     ///< large-cell groups per object
  kUbUnionBits,           ///< upper-bound union cardinality per object
  kKernelBatchSize,       ///< span length per dispatched kernel call
  kServerQueueWaitUs,     ///< admission-queue wait per executed request (µs)
  kServerE2eUs,           ///< accept-to-respond latency per request (µs)
  kCount_
};

inline constexpr int kNumCounters = static_cast<int>(Counter::kCount_);
inline constexpr int kNumHistograms = static_cast<int>(Histogram::kCount_);

/// Dotted display names, used by stats-json and the human CLI surfaces;
/// the OpenMetrics sample names derive from them ('.' -> '_'). Index =
/// enum value. Every enum value MUST have an entry here; the
/// static_asserts below turn a forgotten entry into a compile error
/// instead of an "unknown" metric.
inline constexpr std::array<const char*, kNumCounters> kCounterNames = {
    "lb_cell_ors",
    "ub_cell_ors",
    "adj_builds",
    "kernel_batches",
    "verify_points",
    "verify_objects_decided",
    "verify_partners_confirmed",
    "verify_stops",
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
};

inline constexpr std::array<const char*, kNumHistograms> kHistogramNames = {
    "lb_key_list_len",
    "lb_union_bits",
    "ub_groups_per_object",
    "ub_union_bits",
    "kernel_batch_size",
    "server.queue_wait_us",
    "server.e2e_us",
};

namespace detail {

/// `[a-z_][a-z0-9_]*`, plus '.' after the first character when
/// `allow_dot`.
constexpr bool IsMetricIdent(std::string_view s, bool allow_dot) {
  if (s.empty()) return false;
  auto lower = [](char c) { return c >= 'a' && c <= 'z'; };
  auto digit = [](char c) { return c >= '0' && c <= '9'; };
  if (!lower(s[0]) && s[0] != '_') return false;
  for (char c : s) {
    if (!lower(c) && !digit(c) && c != '_' && !(allow_dot && c == '.')) {
      return false;
    }
  }
  return true;
}

/// Exhaustiveness and legality: std::array zero-fills missing
/// initialisers with nullptr, so "every enum value has a name" reduces to
/// "no entry is null", and each name must be a display name.
template <std::size_t N>
constexpr bool AllDisplayNames(const std::array<const char*, N>& names) {
  for (const char* n : names) {
    if (n == nullptr || !IsMetricIdent(n, /*allow_dot=*/true)) return false;
  }
  return true;
}

}  // namespace detail

/// True when `s` is a legal OpenMetrics/Prometheus sample-name fragment:
/// `[a-z_][a-z0-9_]*`. constexpr; also used by the unit tests.
constexpr bool IsOpenMetricsName(std::string_view s) {
  return detail::IsMetricIdent(s, /*allow_dot=*/false);
}

static_assert(detail::AllDisplayNames(kCounterNames),
              "every Counter needs a [a-z_][a-z0-9_.]* name in kCounterNames");
static_assert(detail::AllDisplayNames(kHistogramNames),
              "every Histogram needs a [a-z_][a-z0-9_.]* name in "
              "kHistogramNames");

const char* CounterName(Counter c);
const char* HistogramName(Histogram h);

/// OpenMetrics sample name: the display name with every '.' as '_' (no
/// "mio_" prefix, no "_total" suffix).
std::string CounterMetricName(Counter c);
std::string HistogramMetricName(Histogram h);

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
