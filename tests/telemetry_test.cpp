// Tests for the continuous-telemetry layer: metric-name legality and
// exhaustiveness, log2 -> cumulative le-bucket conversion, the
// OpenMetrics exposition writer, process health, the background
// sampler's scrape writes and tick count, and the exit-flush metrics
// path.
#include <unistd.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/fault_injection.hpp"
#include "gtest/gtest.h"
#include "obs/exit_flush.hpp"
#include "obs/metrics.hpp"
#include "obs/openmetrics.hpp"
#include "obs/telemetry.hpp"

namespace mio {
namespace obs {
namespace {

class TelemetryFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("mio_telemetry_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  std::string Path(const std::string& name) const {
    return (dir_ / name).string();
  }
  std::string ReadAll(const std::string& path) const {
    std::ifstream in(path);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
  }
  std::filesystem::path dir_;
};

// --- Metric names (satellite: exhaustiveness + legality) --------------------

TEST(MetricNames, EveryCounterHasLegalUniqueNames) {
  std::set<std::string> display, metric;
  for (int c = 0; c < kNumCounters; ++c) {
    const char* d = CounterName(static_cast<Counter>(c));
    const std::string m = CounterMetricName(static_cast<Counter>(c));
    ASSERT_NE(d, nullptr);
    EXPECT_STRNE(d, "unknown") << "counter " << c;
    EXPECT_TRUE(IsOpenMetricsName(m)) << m;
    EXPECT_TRUE(display.insert(d).second) << "duplicate display name " << d;
    EXPECT_TRUE(metric.insert(m).second) << "duplicate metric name " << m;
  }
  // The sample name is the display name with '.' as '_'.
  EXPECT_EQ(CounterMetricName(Counter::kServerCacheHits), "server_cache_hits");
}

TEST(MetricNames, EveryHistogramHasLegalUniqueNames) {
  std::set<std::string> display, metric;
  for (int h = 0; h < kNumHistograms; ++h) {
    const char* d = HistogramName(static_cast<Histogram>(h));
    const std::string m = HistogramMetricName(static_cast<Histogram>(h));
    EXPECT_STRNE(d, "unknown") << "histogram " << h;
    EXPECT_TRUE(IsOpenMetricsName(m)) << m;
    EXPECT_TRUE(display.insert(d).second) << "duplicate display name " << d;
    EXPECT_TRUE(metric.insert(m).second) << "duplicate metric name " << m;
  }
}

TEST(MetricNames, OpenMetricsIdentGrammar) {
  EXPECT_TRUE(IsOpenMetricsName("lb_cell_ors"));
  EXPECT_TRUE(IsOpenMetricsName("_private"));
  EXPECT_TRUE(IsOpenMetricsName("a2"));
  EXPECT_FALSE(IsOpenMetricsName(""));
  EXPECT_FALSE(IsOpenMetricsName("labels.cache_hits"));  // dot illegal
  EXPECT_FALSE(IsOpenMetricsName("2fast"));              // leading digit
  EXPECT_FALSE(IsOpenMetricsName("Upper"));              // uppercase
  EXPECT_FALSE(IsOpenMetricsName("with-dash"));
  EXPECT_FALSE(IsOpenMetricsName("with space"));
}

// --- log2 -> cumulative le buckets (satellite: edge cases) ------------------

TEST(CumulativeLeBuckets, EmptyHistogramIsJustInf) {
  HistogramSnapshot h;
  std::vector<LeBucket> buckets = CumulativeLeBuckets(h);
  ASSERT_EQ(buckets.size(), 1u);
  EXPECT_TRUE(buckets[0].infinite);
  EXPECT_EQ(buckets[0].cumulative, 0u);
}

TEST(CumulativeLeBuckets, SingleBucketMass) {
  HistogramSnapshot h;
  // 7 observations of the value 5 -> log2 bucket 3 ([4, 8), le = 7).
  h.buckets[3] = 7;
  h.count = 7;
  h.sum = 35;
  h.min = h.max = 5;
  std::vector<LeBucket> buckets = CumulativeLeBuckets(h);
  ASSERT_EQ(buckets.size(), 5u);  // le 0, 1, 3, 7 + Inf
  EXPECT_EQ(buckets[0].le, 0u);
  EXPECT_EQ(buckets[0].cumulative, 0u);
  EXPECT_EQ(buckets[1].le, 1u);
  EXPECT_EQ(buckets[2].le, 3u);
  EXPECT_EQ(buckets[2].cumulative, 0u);
  EXPECT_EQ(buckets[3].le, 7u);
  EXPECT_EQ(buckets[3].cumulative, 7u);
  EXPECT_TRUE(buckets[4].infinite);
  EXPECT_EQ(buckets[4].cumulative, 7u);
}

TEST(CumulativeLeBuckets, ValueZeroLandsInLeZero) {
  HistogramSnapshot h;
  h.buckets[0] = 3;  // the value 0
  h.buckets[1] = 2;  // the value 1
  h.count = 5;
  std::vector<LeBucket> buckets = CumulativeLeBuckets(h);
  ASSERT_EQ(buckets.size(), 3u);
  EXPECT_EQ(buckets[0].le, 0u);
  EXPECT_EQ(buckets[0].cumulative, 3u);
  EXPECT_EQ(buckets[1].le, 1u);
  EXPECT_EQ(buckets[1].cumulative, 5u);
  EXPECT_TRUE(buckets[2].infinite);
}

TEST(CumulativeLeBuckets, TopOverflowBucketFoldsIntoInfOnly) {
  HistogramSnapshot h;
  // Mass in the clamped top bucket: its range is open-ended, so it must
  // not fabricate a finite le boundary.
  h.buckets[HistogramSnapshot::kBuckets - 1] = 4;
  h.buckets[2] = 1;  // le = 3
  h.count = 5;
  std::vector<LeBucket> buckets = CumulativeLeBuckets(h);
  ASSERT_GE(buckets.size(), 2u);
  const LeBucket& last_finite = buckets[buckets.size() - 2];
  EXPECT_FALSE(last_finite.infinite);
  EXPECT_EQ(last_finite.le, 3u);
  EXPECT_EQ(last_finite.cumulative, 1u);
  EXPECT_TRUE(buckets.back().infinite);
  EXPECT_EQ(buckets.back().cumulative, 5u);
}

TEST(CumulativeLeBuckets, MonotoneAndTerminated) {
  HistogramSnapshot h;
  for (std::uint64_t v : {0ull, 1ull, 3ull, 3ull, 100ull, 5000ull, 5000ull}) {
    ++h.buckets[static_cast<std::size_t>(detail::BucketOf(v))];
    ++h.count;
    h.sum += v;
    if (h.count == 1 || v < h.min) h.min = v;
    if (v > h.max) h.max = v;
  }
  std::vector<LeBucket> buckets = CumulativeLeBuckets(h);
  ASSERT_GE(buckets.size(), 2u);
  std::uint64_t prev_le = 0;
  std::uint64_t prev_cum = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    if (i > 0 && !buckets[i].infinite) {
      EXPECT_GT(buckets[i].le, prev_le);
    }
    EXPECT_GE(buckets[i].cumulative, prev_cum);
    prev_le = buckets[i].le;
    prev_cum = buckets[i].cumulative;
  }
  EXPECT_TRUE(buckets.back().infinite);
  EXPECT_EQ(buckets.back().cumulative, h.count);
}

/// Exposition-side quantile estimate: smallest le with cumulative >=
/// p * count — the standard Prometheus histogram_quantile upper bound.
double LeQuantile(const std::vector<LeBucket>& buckets, std::uint64_t count,
                  double p, double fallback_max) {
  double target = p * static_cast<double>(count);
  for (const LeBucket& b : buckets) {
    if (static_cast<double>(b.cumulative) >= target) {
      return b.infinite ? fallback_max : static_cast<double>(b.le);
    }
  }
  return fallback_max;
}

TEST(CumulativeLeBuckets, QuantilesAgreeWithHistogramPercentile) {
  HistogramSnapshot h;
  // A spread of values across several buckets.
  std::vector<std::uint64_t> values = {0,  1,  2,   3,   5,    9,   17,
                                       33, 90, 200, 900, 3000, 7777};
  for (std::uint64_t v : values) {
    ++h.buckets[static_cast<std::size_t>(detail::BucketOf(v))];
    ++h.count;
    h.sum += v;
    if (h.count == 1 || v < h.min) h.min = v;
    if (v > h.max) h.max = v;
  }
  std::vector<LeBucket> buckets = CumulativeLeBuckets(h);
  for (double p : {0.5, 0.9, 0.99}) {
    double registry = h.Percentile(p);
    double exposition =
        LeQuantile(buckets, h.count, p, static_cast<double>(h.max));
    // Both land in the same log2 bucket: the le upper bound can exceed
    // the interpolated registry estimate by at most one bucket width.
    int bucket = detail::BucketOf(
        static_cast<std::uint64_t>(exposition > 0 ? exposition : 0));
    double width = bucket == 0
                       ? 1.0
                       : static_cast<double>(std::uint64_t{1} << (bucket - 1));
    EXPECT_LE(std::abs(exposition - registry), width + 1e-9)
        << "p=" << p << " registry=" << registry
        << " exposition=" << exposition;
  }
}

// --- Exposition writer ------------------------------------------------------

TEST(OpenMetricsText, StructureAndTermination) {
  MetricsSnapshot snap;
  snap.counters[static_cast<std::size_t>(Counter::kVerifyPoints)] = 42;
  HistogramSnapshot& h =
      snap.histograms[static_cast<std::size_t>(Histogram::kKernelBatchSize)];
  h.buckets[3] = 2;
  h.count = 2;
  h.sum = 10;
  h.min = h.max = 5;

  std::string text = OpenMetricsText(
      snap, {{"process_threads", "gauge", 3.0},
             {"process_cpu_seconds", "counter", 1.5}});
  EXPECT_NE(text.find("# TYPE mio_verify_points counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("mio_verify_points_total 42\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE mio_process_threads gauge\n"),
            std::string::npos);
  EXPECT_NE(text.find("mio_process_threads 3\n"), std::string::npos);
  EXPECT_NE(text.find("mio_process_cpu_seconds_total 1.5\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE mio_kernel_batch_size histogram\n"),
            std::string::npos);
  EXPECT_NE(text.find("mio_kernel_batch_size_bucket{le=\"7\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("mio_kernel_batch_size_bucket{le=\"+Inf\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("mio_kernel_batch_size_sum 10\n"), std::string::npos);
  EXPECT_NE(text.find("mio_kernel_batch_size_count 2\n"), std::string::npos);
  // OpenMetrics termination, exactly at the end.
  ASSERT_GE(text.size(), 6u);
  EXPECT_EQ(text.substr(text.size() - 6), "# EOF\n");
  // Dotted display names must never leak into sample names.
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind("mio_", 0) == 0) {
      std::string name = line.substr(0, line.find_first_of(" {"));
      EXPECT_EQ(name.find('.'), std::string::npos) << name;
    }
  }
}

TEST_F(TelemetryFileTest, WriteFileAtomicLeavesNoTmpAndReplaces) {
  std::string path = Path("scrape.prom");
  std::string error;
  ASSERT_TRUE(WriteFileAtomic(path, "first\n", &error)) << error;
  EXPECT_EQ(ReadAll(path), "first\n");
  ASSERT_TRUE(WriteFileAtomic(path, "second\n", &error)) << error;
  EXPECT_EQ(ReadAll(path), "second\n");
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

TEST_F(TelemetryFileTest, WriteFileAtomicFailsIntoError) {
  std::string error;
  EXPECT_FALSE(WriteFileAtomic(Path("no/such/dir/x.prom"), "x", &error));
  EXPECT_FALSE(error.empty());
}

TEST_F(TelemetryFileTest, InjectedWriteFaultNeverTearsTheLastGoodFile) {
  if (!fault::kCompiledIn) {
    GTEST_SKIP() << "fault injection compiled out";
  }
  fault::Reset();
  std::string path = Path("scrape.prom");
  std::string error;
  ASSERT_TRUE(WriteFileAtomic(path, "good scrape\n", &error)) << error;

  ASSERT_TRUE(fault::Arm("io.metrics.write", "always").ok());
  EXPECT_FALSE(WriteFileAtomic(path, "torn scrape\n", &error));
  EXPECT_NE(error.find("injected fault"), std::string::npos);
  // The fault fires before the temp file is created: the last good file
  // is byte-for-byte intact and no .tmp is left behind.
  EXPECT_EQ(ReadAll(path), "good scrape\n");
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  fault::Reset();
  ASSERT_TRUE(WriteFileAtomic(path, "recovered\n", &error)) << error;
  EXPECT_EQ(ReadAll(path), "recovered\n");
}

TEST_F(TelemetryFileTest, SamplerSurvivesPersistentWriteFailures) {
  if (!fault::kCompiledIn) {
    GTEST_SKIP() << "fault injection compiled out";
  }
  fault::Reset();
  ResetMetrics();
  ASSERT_TRUE(fault::Arm("io.metrics.write", "always").ok());
  TelemetryConfig cfg;
  cfg.interval_ms = 10;
  cfg.metrics_path = Path("scrape.prom");
  TelemetrySampler sampler(cfg);
  sampler.Start();
  // Every scrape write fails; sampling itself must keep going.
  while (sampler.SampleCount() < 3) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  sampler.Stop();
  EXPECT_GE(sampler.SampleCount(), 3u);
  EXPECT_FALSE(std::filesystem::exists(cfg.metrics_path));
  EXPECT_FALSE(std::filesystem::exists(cfg.metrics_path + ".tmp"));
  fault::Reset();

  // With the disk back, the next sampler run scrapes again.
  TelemetrySampler recovered(cfg);
  recovered.Start();
  recovered.Stop();
  EXPECT_TRUE(std::filesystem::exists(cfg.metrics_path));
}

// --- Process health ---------------------------------------------------------

TEST(ProcessHealth, ReadsPlausibleValues) {
  ProcessHealth h = ReadProcessHealth();
  EXPECT_GT(h.rss_bytes, 0u);
  EXPECT_GT(h.peak_rss_bytes, 0u);
  EXPECT_GE(h.cpu_seconds, 0.0);
  EXPECT_GE(h.threads, 1);
  EXPECT_GE(h.open_fds, 3);  // stdin/stdout/stderr at minimum
}

// --- Sampler ----------------------------------------------------------------

TEST_F(TelemetryFileTest, SamplerTakesImmediateAndFinalSamples) {
  ResetMetrics();
  TelemetryConfig cfg;
  cfg.interval_ms = 3600000;  // effectively never fires on its own
  cfg.metrics_path = Path("scrape.prom");
  TelemetrySampler sampler(cfg);
  sampler.Start();
  EXPECT_TRUE(sampler.Running());
  // The immediate Start() sample must already have produced a scrape.
  EXPECT_GE(sampler.SampleCount(), 1u);
  ASSERT_TRUE(std::filesystem::exists(cfg.metrics_path));

  Add(Counter::kQueriesExecuted, 10);
  Add(Counter::kVerifyPoints, 500);
  sampler.Stop();
  EXPECT_FALSE(sampler.Running());
  EXPECT_GE(sampler.SampleCount(), 2u);

  // The final scrape reflects the cumulative counters and the process
  // gauges, and terminates.
  std::string text = ReadAll(cfg.metrics_path);
  EXPECT_NE(text.find("mio_query_executed_total 10\n"), std::string::npos);
  EXPECT_NE(text.find("mio_verify_points_total 500\n"), std::string::npos);
  EXPECT_NE(text.find("mio_process_resident_memory_bytes"),
            std::string::npos);
  EXPECT_EQ(text.substr(text.size() - 6), "# EOF\n");
}

TEST(TelemetrySampler, PeriodicSamplingCountsEveryTick) {
  ResetMetrics();
  TelemetryConfig cfg;
  cfg.interval_ms = 10;
  TelemetrySampler sampler(cfg);
  sampler.Start();
  // Enough wall time for several intervals even on a loaded 1-core box.
  while (sampler.SampleCount() < 6) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  sampler.Stop();
  std::uint64_t total = sampler.SampleCount();
  EXPECT_GE(total, 6u);
  // The registry counted every sampler tick.
  MetricsSnapshot snap = SnapshotMetrics();
  EXPECT_GE(
      snap.counters[static_cast<std::size_t>(Counter::kTelemetrySamples)],
      total);
}

// --- Exit flush -------------------------------------------------------------

TEST_F(TelemetryFileTest, ExitFlushWritesFinalExposition) {
  ResetMetrics();
  Add(Counter::kQueriesExecuted, 7);
  ExitFlushConfig cfg;
  cfg.metrics_path = Path("final.prom");
  ArmExitFlush(cfg);
  EXPECT_TRUE(ExitFlushArmed());
  FlushObservabilityNow();
  EXPECT_FALSE(ExitFlushArmed());
  std::string text = ReadAll(cfg.metrics_path);
  EXPECT_NE(text.find("mio_query_executed_total 7\n"), std::string::npos);
  EXPECT_NE(text.find("mio_process_resident_memory_bytes"),
            std::string::npos);
  EXPECT_EQ(text.substr(text.size() - 6), "# EOF\n");
}

}  // namespace
}  // namespace obs
}  // namespace mio
