#include "obs/metrics.hpp"

#include <algorithm>
#include <memory>
#include <mutex>
#include <vector>

namespace mio {
namespace obs {

namespace detail {

std::atomic<bool> g_metrics_enabled{true};
thread_local MetricShard* tl_shard = nullptr;

namespace {

struct ShardRegistry {
  std::mutex mu;
  std::vector<std::unique_ptr<MetricShard>> shards;
  std::vector<MetricShard*> released;  ///< shards of exited threads
};

ShardRegistry& GetShardRegistry() {
  static ShardRegistry* r = new ShardRegistry();  // leaked: shutdown-safe
  return *r;
}

/// Hands the calling thread's shard back when the thread exits, for the
/// next registering thread to write. A server that starts a thread per
/// connection then keeps one shard per live thread, not one per thread
/// it ever started. The counts stay in the shard, so snapshots still sum
/// them, and the registry's mutex orders the old owner's last write
/// before the new owner's first.
struct ShardLease {
  MetricShard* shard = nullptr;
  ~ShardLease() {
    if (shard == nullptr) return;
    ShardRegistry& reg = GetShardRegistry();
    std::lock_guard<std::mutex> lock(reg.mu);
    reg.released.push_back(shard);
    tl_shard = nullptr;
  }
};

thread_local ShardLease tl_lease;

}  // namespace

MetricShard* RegisterShard() {
  ShardRegistry& reg = GetShardRegistry();
  std::lock_guard<std::mutex> lock(reg.mu);
  if (reg.released.empty()) {
    reg.shards.push_back(std::make_unique<MetricShard>());
    tl_shard = reg.shards.back().get();
  } else {
    tl_shard = reg.released.back();
    reg.released.pop_back();
  }
  tl_lease.shard = tl_shard;
  return tl_shard;
}

}  // namespace detail

double HistogramSnapshot::Percentile(double p) const {
  if (count == 0) return 0.0;
  if (p <= 0.0) return static_cast<double>(min);
  if (p >= 1.0) return static_cast<double>(max);
  // Rank of the requested quantile, 1-based: the smallest value v such
  // that at least `target` observations are <= v.
  double target = p * static_cast<double>(count);
  std::uint64_t cum = 0;
  for (int b = 0; b < kBuckets; ++b) {
    std::uint64_t n = buckets[static_cast<std::size_t>(b)];
    if (n == 0) continue;
    if (static_cast<double>(cum + n) >= target) {
      if (b == 0) return 0.0;  // bucket 0 holds exactly the value 0
      double low = static_cast<double>(std::uint64_t{1} << (b - 1));
      // The top bucket is clamped (absorbs values >= 2^(kBuckets-1));
      // bound it by the tracked max instead of its nominal power of two.
      double high = b == kBuckets - 1
                        ? static_cast<double>(max) + 1.0
                        : static_cast<double>(std::uint64_t{1} << b);
      if (high < low + 1.0) high = low + 1.0;
      double fraction = (target - static_cast<double>(cum)) /
                        static_cast<double>(n);
      double v = low + fraction * (high - low);
      // Interpolation cannot leave the observed range.
      v = std::max(v, static_cast<double>(min));
      return std::min(v, static_cast<double>(max));
    }
    cum += n;
  }
  return static_cast<double>(max);
}

void SetMetricsEnabled(bool on) {
  detail::g_metrics_enabled.store(on, std::memory_order_relaxed);
}

MetricsSnapshot SnapshotMetrics() {
  auto& reg = detail::GetShardRegistry();
  std::lock_guard<std::mutex> lock(reg.mu);
  MetricsSnapshot snap;
  constexpr auto kRelaxed = std::memory_order_relaxed;
  for (const auto& shard : reg.shards) {
    for (int c = 0; c < kNumCounters; ++c) {
      snap.counters[static_cast<std::size_t>(c)] +=
          shard->counters[static_cast<std::size_t>(c)].load(kRelaxed);
    }
    for (int h = 0; h < kNumHistograms; ++h) {
      const detail::HistogramShard& src =
          shard->histograms[static_cast<std::size_t>(h)];
      std::uint64_t src_count = src.count.load(kRelaxed);
      if (src_count == 0) continue;
      std::uint64_t src_min = src.min.load(kRelaxed);
      std::uint64_t src_max = src.max.load(kRelaxed);
      HistogramSnapshot& dst = snap.histograms[static_cast<std::size_t>(h)];
      for (int b = 0; b < HistogramSnapshot::kBuckets; ++b) {
        dst.buckets[static_cast<std::size_t>(b)] +=
            src.buckets[static_cast<std::size_t>(b)].load(kRelaxed);
      }
      if (dst.count == 0 || src_min < dst.min) dst.min = src_min;
      if (src_max > dst.max) dst.max = src_max;
      dst.count += src_count;
      dst.sum += src.sum.load(kRelaxed);
    }
  }
  return snap;
}

void ResetMetrics() {
  auto& reg = detail::GetShardRegistry();
  std::lock_guard<std::mutex> lock(reg.mu);
  constexpr auto kRelaxed = std::memory_order_relaxed;
  for (auto& shard : reg.shards) {
    for (auto& c : shard->counters) c.store(0, kRelaxed);
    for (auto& h : shard->histograms) {
      for (auto& b : h.buckets) b.store(0, kRelaxed);
      h.count.store(0, kRelaxed);
      h.sum.store(0, kRelaxed);
      h.min.store(UINT64_MAX, kRelaxed);
      h.max.store(0, kRelaxed);
    }
  }
}

const char* CounterName(Counter c) {
  int i = static_cast<int>(c);
  return i >= 0 && i < kNumCounters
             ? kCounterNames[static_cast<std::size_t>(i)]
             : "unknown";
}

const char* HistogramName(Histogram h) {
  int i = static_cast<int>(h);
  return i >= 0 && i < kNumHistograms
             ? kHistogramNames[static_cast<std::size_t>(i)]
             : "unknown";
}

namespace {

std::string SampleName(const char* display) {
  std::string name = display;
  for (char& c : name) {
    if (c == '.') c = '_';
  }
  return name;
}

}  // namespace

std::string CounterMetricName(Counter c) { return SampleName(CounterName(c)); }

std::string HistogramMetricName(Histogram h) {
  return SampleName(HistogramName(h));
}

}  // namespace obs
}  // namespace mio
