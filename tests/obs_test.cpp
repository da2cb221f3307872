// Tests for the observability layer: span tracer (nesting, per-thread
// tracks, ring overflow, Chrome-trace export), metrics registry (shard
// merge, log2 bucketing), the JSON writer/validator, the detail sections
// of the per-query record (--stats-json / --json-out), the exit flush,
// and the load-balance summary.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/timer.hpp"
#include "core/query_result.hpp"
#include "obs/exit_flush.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/qlog.hpp"
#include "obs/stats_sink.hpp"
#include "obs/trace.hpp"

namespace mio {
namespace obs {
namespace {

/// Every tracer test runs against the same process-wide singleton, so
/// each starts from a cleared, enabled tracer and disables it on exit.
class TracerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Tracer::Instance().Clear();
    Tracer::Instance().SetEnabled(true);
  }
  void TearDown() override {
    Tracer::Instance().SetEnabled(false);
    Tracer::Instance().Clear();
  }
};

// The recording tests need the span sites compiled in; under
// -DMIO_TRACING=OFF the macros expand to nothing and there is nothing
// to record (which DisabledOverheadIsNearZero still checks).
#ifndef MIO_TRACING_DISABLED

TEST_F(TracerTest, RecordsCompleteSpans) {
  {
    MIO_TRACE_SPAN("outer");
    MIO_TRACE_SPAN_CAT("inner", "testcat");
  }
  std::vector<TraceEvent> events = Tracer::Instance().Snapshot();
  ASSERT_EQ(events.size(), 2u);
  // Snapshot is sorted by start time: outer opened first.
  EXPECT_STREQ(events[0].name, "outer");
  EXPECT_STREQ(events[1].name, "inner");
  EXPECT_STREQ(events[1].cat, "testcat");
  EXPECT_GE(events[0].dur_ns, events[1].dur_ns);
  EXPECT_GE(events[1].start_ns, events[0].start_ns);
}

TEST_F(TracerTest, NestingDepthIsRecorded) {
  {
    MIO_TRACE_SPAN("level0");
    {
      MIO_TRACE_SPAN("level1");
      { MIO_TRACE_SPAN("level2"); }
    }
  }
  std::vector<TraceEvent> events = Tracer::Instance().Snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].depth, 0);
  EXPECT_EQ(events[1].depth, 1);
  EXPECT_EQ(events[2].depth, 2);
  // Children are contained within the parent span.
  EXPECT_LE(events[0].start_ns, events[1].start_ns);
  EXPECT_GE(events[0].start_ns + events[0].dur_ns,
            events[2].start_ns + events[2].dur_ns);
}

TEST_F(TracerTest, DisabledRecordsNothing) {
  Tracer::Instance().SetEnabled(false);
  { MIO_TRACE_SPAN("invisible"); }
  EXPECT_TRUE(Tracer::Instance().Snapshot().empty());
}

TEST_F(TracerTest, PerThreadTracks) {
  const int threads = 4;
#pragma omp parallel num_threads(threads)
  {
    MIO_TRACE_SPAN("worker");
  }
  std::vector<TraceEvent> events = Tracer::Instance().Snapshot();
  // OpenMP may give fewer threads than asked for, but every recorded
  // span must land on its own track.
  ASSERT_GE(events.size(), 1u);
  std::set<int> tids;
  for (const TraceEvent& e : events) tids.insert(e.tid);
  EXPECT_EQ(tids.size(), events.size());
  EXPECT_GE(Tracer::Instance().NumThreads(), tids.size());
}

TEST_F(TracerTest, RingOverflowCountsDropped) {
  for (std::size_t i = 0; i < Tracer::kRingCapacity + 100; ++i) {
    MIO_TRACE_SPAN("spin");
  }
  EXPECT_GE(Tracer::Instance().DroppedEvents(), 100u);
  EXPECT_LE(Tracer::Instance().Snapshot().size(), Tracer::kRingCapacity);
  Tracer::Instance().Clear();
  EXPECT_EQ(Tracer::Instance().DroppedEvents(), 0u);
  EXPECT_TRUE(Tracer::Instance().Snapshot().empty());
}

TEST_F(TracerTest, ChromeTraceJsonIsValidAndComplete) {
  {
    MIO_TRACE_SPAN_CAT("phase_a", "query");
    MIO_TRACE_SPAN_CAT("phase_b", "verify");
  }
  std::string doc = Tracer::Instance().ToChromeTraceJson();
  std::string error;
  EXPECT_TRUE(ValidateJson(doc, &error)) << error;
  // Chrome trace_event schema essentials.
  EXPECT_NE(doc.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(doc.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(doc.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(doc.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(doc.find("\"name\":\"phase_a\""), std::string::npos);
  EXPECT_NE(doc.find("\"cat\":\"verify\""), std::string::npos);
  EXPECT_NE(doc.find("\"ts\":"), std::string::npos);
  EXPECT_NE(doc.find("\"dur\":"), std::string::npos);
}

#endif  // MIO_TRACING_DISABLED

TEST_F(TracerTest, DisabledOverheadIsNearZero) {
  // Smoke check for the "disabled tracing is ~free" claim: a span site
  // with tracing off must be within a loose constant factor of an empty
  // loop. Generous bound — CI machines are noisy.
  Tracer::Instance().SetEnabled(false);
  const int iters = 2000000;
  volatile std::uint64_t sink = 0;
  Timer plain;
  for (int i = 0; i < iters; ++i) sink = sink + 1;
  double plain_s = plain.ElapsedSeconds();
  Timer spanned;
  for (int i = 0; i < iters; ++i) {
    MIO_TRACE_SPAN("off");
    sink = sink + 1;
  }
  double spanned_s = spanned.ElapsedSeconds();
  EXPECT_LT(spanned_s, plain_s * 20.0 + 0.05);
  EXPECT_TRUE(Tracer::Instance().Snapshot().empty());
}

class MetricsTest : public ::testing::Test {
 protected:
  void SetUp() override { ResetMetrics(); }
  void TearDown() override {
    SetMetricsEnabled(true);
    ResetMetrics();
  }
};

TEST_F(MetricsTest, CountersAccumulate) {
  Add(Counter::kAdjBuilds);
  Add(Counter::kAdjBuilds, 4);
  MetricsSnapshot snap = SnapshotMetrics();
  EXPECT_EQ(snap.counters[static_cast<int>(Counter::kAdjBuilds)], 5u);
  ResetMetrics();
  EXPECT_TRUE(SnapshotMetrics().Empty());
}

TEST_F(MetricsTest, ShardsMergeAcrossThreads) {
  const int threads = 4;
  const int per_thread = 1000;
#pragma omp parallel num_threads(threads)
  {
#pragma omp for
    for (int i = 0; i < threads * per_thread; ++i) {
      Add(Counter::kVerifyPoints);
      Observe(Histogram::kUbUnionBits, static_cast<std::uint64_t>(i % 7));
    }
  }
  MetricsSnapshot snap = SnapshotMetrics();
  EXPECT_EQ(snap.counters[static_cast<int>(Counter::kVerifyPoints)],
            static_cast<std::uint64_t>(threads * per_thread));
  const HistogramSnapshot& h =
      snap.histograms[static_cast<int>(Histogram::kUbUnionBits)];
  EXPECT_EQ(h.count, static_cast<std::uint64_t>(threads * per_thread));
  EXPECT_EQ(h.min, 0u);
  EXPECT_EQ(h.max, 6u);
}

// A thread that exits hands its shard to the next thread that records,
// so a server starting one thread per connection keeps one shard per
// live thread; the exited thread's counts stay in the snapshot.
TEST_F(MetricsTest, ExitedThreadsShardIsReusedWithItsCounts) {
  const detail::MetricShard* first = nullptr;
  const detail::MetricShard* second = nullptr;
  std::thread([&first] {
    Add(Counter::kAdjBuilds, 2);
    first = &detail::Shard();
  }).join();
  std::thread([&second] {
    Add(Counter::kAdjBuilds, 3);
    second = &detail::Shard();
  }).join();
  EXPECT_EQ(second, first);
  EXPECT_EQ(SnapshotMetrics().counters[static_cast<int>(Counter::kAdjBuilds)],
            5u);
}

TEST_F(MetricsTest, HistogramBucketing) {
  // Bucket 0 <- 0; bucket b <- [2^(b-1), 2^b).
  Observe(Histogram::kKernelBatchSize, 0);
  Observe(Histogram::kKernelBatchSize, 1);
  Observe(Histogram::kKernelBatchSize, 2);
  Observe(Histogram::kKernelBatchSize, 3);
  Observe(Histogram::kKernelBatchSize, 4);
  Observe(Histogram::kKernelBatchSize, 1023);
  Observe(Histogram::kKernelBatchSize, 1024);
  MetricsSnapshot snap = SnapshotMetrics();
  const HistogramSnapshot& h =
      snap.histograms[static_cast<int>(Histogram::kKernelBatchSize)];
  EXPECT_EQ(h.buckets[0], 1u);   // 0
  EXPECT_EQ(h.buckets[1], 1u);   // 1
  EXPECT_EQ(h.buckets[2], 2u);   // 2, 3
  EXPECT_EQ(h.buckets[3], 1u);   // 4
  EXPECT_EQ(h.buckets[10], 1u);  // 1023
  EXPECT_EQ(h.buckets[11], 1u);  // 1024
  EXPECT_EQ(h.count, 7u);
  EXPECT_EQ(h.sum, 0u + 1 + 2 + 3 + 4 + 1023 + 1024);
  EXPECT_EQ(h.min, 0u);
  EXPECT_EQ(h.max, 1024u);
  EXPECT_DOUBLE_EQ(h.Mean(), static_cast<double>(h.sum) / 7.0);
}

TEST_F(MetricsTest, DisabledRecordsNothing) {
  SetMetricsEnabled(false);
  Add(Counter::kLbCellOrs, 10);
  Observe(Histogram::kLbUnionBits, 42);
  SetMetricsEnabled(true);
  EXPECT_TRUE(SnapshotMetrics().Empty());
}

TEST(JsonWriterTest, WritesNestedDocument) {
  JsonWriter w;
  w.BeginObject();
  w.Key("s").String("a \"b\"\n\\c");
  w.Key("i").Int(-7);
  w.Key("u").UInt(18446744073709551615ull);
  w.Key("d").Double(0.25);
  w.Key("nan").Double(std::numeric_limits<double>::quiet_NaN());
  w.Key("t").Bool(true);
  w.Key("n").Null();
  w.Key("arr").BeginArray();
  w.Int(1);
  w.BeginObject();
  w.Key("x").Int(2);
  w.EndObject();
  w.EndArray();
  w.EndObject();
  std::string doc = std::move(w).Take();
  std::string error;
  EXPECT_TRUE(ValidateJson(doc, &error)) << error << "\n" << doc;
  EXPECT_NE(doc.find("\"s\":\"a \\\"b\\\"\\n\\\\c\""), std::string::npos);
  EXPECT_NE(doc.find("\"u\":18446744073709551615"), std::string::npos);
  EXPECT_NE(doc.find("\"nan\":null"), std::string::npos);
  EXPECT_NE(doc.find("\"arr\":[1,{\"x\":2}]"), std::string::npos);
}

TEST(JsonValidatorTest, AcceptsWellFormed) {
  EXPECT_TRUE(ValidateJson("{}"));
  EXPECT_TRUE(ValidateJson("[]"));
  EXPECT_TRUE(ValidateJson("[1,2.5,-3e+7,\"x\",true,false,null,{\"a\":[]}]"));
  EXPECT_TRUE(ValidateJson("\"lone string\""));
  EXPECT_TRUE(ValidateJson("  {\"k\" : \"\\u00e9\"}  "));
}

TEST(JsonValidatorTest, RejectsMalformed) {
  EXPECT_FALSE(ValidateJson(""));
  EXPECT_FALSE(ValidateJson("{"));
  EXPECT_FALSE(ValidateJson("{\"a\":1,}"));
  EXPECT_FALSE(ValidateJson("[1 2]"));
  EXPECT_FALSE(ValidateJson("{\"a\" 1}"));
  EXPECT_FALSE(ValidateJson("01"));
  EXPECT_FALSE(ValidateJson("\"unterminated"));
  EXPECT_FALSE(ValidateJson("\"bad\\q escape\""));
  EXPECT_FALSE(ValidateJson("nul"));
  EXPECT_FALSE(ValidateJson("{} extra"));
  std::string error;
  EXPECT_FALSE(ValidateJson("[1,", &error));
  EXPECT_FALSE(error.empty());
}

/// The record a one-shot emitter (--stats-json, --json-out) writes for
/// `stats`, with `identity` naming the run.
std::string RecordLine(const QueryStats& stats,
                       const MetricsSnapshot* metrics,
                       QlogRecord identity = QlogRecord{}) {
  if (identity.workload.empty()) identity.workload = "obs_test";
  QueryResult res;
  res.stats = stats;
  return QlogRecordToJsonLine(
      BuildQlogRecord(std::move(identity), &res, metrics));
}

TEST(StatsSinkTest, DocumentIsValidJsonWithExpectedSections) {
  QueryStats stats;
  stats.total_seconds = 1.5;
  stats.phases.grid_mapping = 0.5;
  stats.phases.verification = 0.75;
  stats.num_candidates = 10;
  stats.num_verified = 4;
  stats.distance_computations = 1234;
  stats.index_memory_bytes = 4096;
  stats.memory.Add("small_grid", 1024);
  stats.verify_thread_seconds = {0.3, 0.45};

  QlogRecord id;
  id.workload = "obs_test";
  id.dataset = "synthetic";
  id.algo = "bigrid";
  id.r = 4.0;
  id.k = 2;
  id.threads = 2;
  id.scale = "quick";
  id.wall_seconds = 1.6;

  ResetMetrics();
  Add(Counter::kAdjBuilds, 3);
  Observe(Histogram::kKernelBatchSize, 32);
  MetricsSnapshot metrics = SnapshotMetrics();

  std::string doc = RecordLine(stats, &metrics, id);
  std::string error;
  ASSERT_TRUE(ValidateJson(doc, &error)) << error << "\n" << doc;
  ASSERT_TRUE(ValidateQlogLine(doc).ok()) << doc;
  EXPECT_NE(doc.find("\"schema\":\"mio-qlog-v1\""), std::string::npos);
  EXPECT_NE(doc.find("\"workload\":\"obs_test\""), std::string::npos);
  EXPECT_NE(doc.find("\"scale\":\"quick\""), std::string::npos);
  EXPECT_NE(doc.find("\"kernel_tier\""), std::string::npos);
  EXPECT_NE(doc.find("\"phases\""), std::string::npos);
  EXPECT_NE(doc.find("\"verify_load_balance\""), std::string::npos);
  EXPECT_NE(doc.find("\"imbalance\""), std::string::npos);
  EXPECT_NE(doc.find("\"memory\""), std::string::npos);
  EXPECT_NE(doc.find("\"parts\":{\"small_grid\":1024}"), std::string::npos);
  EXPECT_NE(doc.find("\"tracker\""), std::string::npos);
  EXPECT_NE(doc.find("\"metrics\""), std::string::npos);
  EXPECT_NE(doc.find("\"adj_builds\":3"), std::string::npos);
  EXPECT_NE(doc.find("\"kernel_batch_size\""), std::string::npos);
  EXPECT_NE(doc.find("\"git\""), std::string::npos);
  ResetMetrics();
}

TEST(StatsSinkTest, OmitsMetricsWhenNull) {
  QueryStats stats;
  std::string doc = RecordLine(stats, nullptr);
  std::string error;
  ASSERT_TRUE(ValidateJson(doc, &error)) << error;
  EXPECT_TRUE(ValidateQlogLine(doc).ok()) << doc;
  EXPECT_EQ(doc.find("\"metrics\""), std::string::npos);
  EXPECT_EQ(doc.find("\"tracker\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Histogram bucket edges + percentile interpolation
// ---------------------------------------------------------------------------

TEST_F(MetricsTest, BucketOfEdgeValues) {
  using detail::BucketOf;
  EXPECT_EQ(BucketOf(0), 0);
  EXPECT_EQ(BucketOf(1), 1);
  // Powers of two open a new bucket; 2^k - 1 closes the previous one.
  for (int k = 1; k < 39; ++k) {
    EXPECT_EQ(BucketOf(std::uint64_t{1} << k), k + 1) << k;
    EXPECT_EQ(BucketOf((std::uint64_t{1} << k) - 1), k) << k;
  }
  // Everything at or beyond 2^40 clamps into the top bucket.
  EXPECT_EQ(BucketOf(std::uint64_t{1} << 40), HistogramSnapshot::kBuckets - 1);
  EXPECT_EQ(BucketOf(UINT64_MAX), HistogramSnapshot::kBuckets - 1);
}

TEST_F(MetricsTest, HistogramPercentileEdges) {
  HistogramSnapshot empty;
  EXPECT_DOUBLE_EQ(empty.Percentile(0.5), 0.0);

  // All-zero observations: bucket 0 holds exactly the value 0.
  for (int i = 0; i < 5; ++i) Observe(Histogram::kLbKeyListLen, 0);
  HistogramSnapshot zeros = SnapshotMetrics()
      .histograms[static_cast<int>(Histogram::kLbKeyListLen)];
  EXPECT_DOUBLE_EQ(zeros.Percentile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(zeros.Percentile(0.99), 0.0);
  ResetMetrics();

  // A single observation is reported exactly regardless of p (the
  // interpolated mid-bucket estimate is clamped to the observed range).
  Observe(Histogram::kLbKeyListLen, 4);
  HistogramSnapshot one = SnapshotMetrics()
      .histograms[static_cast<int>(Histogram::kLbKeyListLen)];
  EXPECT_DOUBLE_EQ(one.Percentile(0.0), 4.0);
  EXPECT_DOUBLE_EQ(one.Percentile(0.5), 4.0);
  EXPECT_DOUBLE_EQ(one.Percentile(1.0), 4.0);
  ResetMetrics();

  // Top-bucket observations stay inside [min, max] even though the
  // bucket's nominal range extends to 2^40 and beyond.
  Observe(Histogram::kLbKeyListLen, UINT64_MAX);
  Observe(Histogram::kLbKeyListLen, UINT64_MAX);
  HistogramSnapshot top = SnapshotMetrics()
      .histograms[static_cast<int>(Histogram::kLbKeyListLen)];
  double p50 = top.Percentile(0.5);
  EXPECT_GE(p50, static_cast<double>(top.min));
  EXPECT_LE(p50, static_cast<double>(top.max));
}

TEST_F(MetricsTest, HistogramPercentileInterpolatesInsideBucket) {
  // Values 1..7: bucket 1 <- {1}, bucket 2 <- {2,3}, bucket 3 <- {4..7}.
  for (std::uint64_t v = 1; v <= 7; ++v) {
    Observe(Histogram::kUbUnionBits, v);
  }
  HistogramSnapshot h = SnapshotMetrics()
      .histograms[static_cast<int>(Histogram::kUbUnionBits)];
  EXPECT_DOUBLE_EQ(h.Percentile(0.0), 1.0);   // min
  EXPECT_DOUBLE_EQ(h.Percentile(1.0), 7.0);   // max
  // target rank 3.5 lands in bucket 3 ([4,8)) with cum=3 below it:
  // 4 + (3.5-3)/4 * (8-4) = 4.5.
  EXPECT_DOUBLE_EQ(h.Percentile(0.5), 4.5);
  // Percentiles are monotone in p.
  double prev = 0.0;
  for (double p = 0.0; p <= 1.0; p += 0.05) {
    double v = h.Percentile(p);
    EXPECT_GE(v, prev);
    prev = v;
  }
}

TEST(StatsSinkTest, VectorPercentileInterpolation) {
  EXPECT_DOUBLE_EQ(Percentile({}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(Percentile({5.0}, 0.5), 5.0);
  EXPECT_DOUBLE_EQ(Percentile({1.0, 2.0, 3.0, 4.0}, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile({1.0, 2.0, 3.0, 4.0}, 1.0), 4.0);
  // R-7: h = p*(n-1); p=0.5 over 4 values interpolates halfway.
  EXPECT_DOUBLE_EQ(Percentile({1.0, 2.0, 3.0, 4.0}, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(Percentile({10.0, 20.0, 30.0, 40.0, 50.0}, 0.9), 46.0);
  // Unsorted input is handled (sorts a copy).
  EXPECT_DOUBLE_EQ(Percentile({4.0, 1.0, 3.0, 2.0}, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(Median({1.0, 3.0}), 2.0);
  EXPECT_DOUBLE_EQ(Median({7.0}), 7.0);
}

TEST(StatsSinkTest, HistogramJsonCarriesPercentiles) {
  ResetMetrics();
  for (std::uint64_t v = 1; v <= 7; ++v) Observe(Histogram::kKernelBatchSize, v);
  MetricsSnapshot metrics = SnapshotMetrics();
  QueryStats stats;
  std::string doc = RecordLine(stats, &metrics);
  std::string error;
  ASSERT_TRUE(ValidateJson(doc, &error)) << error;
  EXPECT_NE(doc.find("\"p50\""), std::string::npos);
  EXPECT_NE(doc.find("\"p90\""), std::string::npos);
  EXPECT_NE(doc.find("\"p99\""), std::string::npos);
  ResetMetrics();
}

// ---------------------------------------------------------------------------
// Exit-time observability flush (obs/exit_flush.hpp)
// ---------------------------------------------------------------------------

class ExitFlushTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DisarmExitFlush();
    dir_ = std::filesystem::temp_directory_path() /
           ("mio_exit_flush_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    DisarmExitFlush();
    Tracer::Instance().SetEnabled(false);
    Tracer::Instance().Clear();
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  std::string PathFor(const char* name) { return (dir_ / name).string(); }
  /// The record the CLI pre-renders for the backstop.
  static std::string BackstopLine() {
    QlogRecord id;
    id.workload = "query";
    id.r = 4.0;
    return InterruptedRecordLine(std::move(id));
  }
  static std::string Slurp(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  }
  std::filesystem::path dir_;
};

TEST_F(ExitFlushTest, FlushWritesTruncationMarkedArtifacts) {
  Tracer::Instance().SetEnabled(true);
  Tracer::Instance().Clear();
  { MIO_TRACE_SPAN("interrupted_phase"); }

  ExitFlushConfig cfg;
  cfg.trace_path = PathFor("trace.json");
  cfg.stats_path = PathFor("stats.json");
  cfg.stats_document = BackstopLine();
  ArmExitFlush(cfg);
  EXPECT_TRUE(ExitFlushArmed());

  FlushObservabilityNow();
  EXPECT_FALSE(ExitFlushArmed());

  std::string trace = Slurp(cfg.trace_path);
  std::string error;
  ASSERT_TRUE(ValidateJson(trace, &error)) << error;
  EXPECT_NE(trace.find("\"truncated\":true"), std::string::npos);
  EXPECT_NE(trace.find("interrupted_phase"), std::string::npos);

  std::string stats = Slurp(cfg.stats_path);
  ASSERT_FALSE(stats.empty());
  EXPECT_NE(stats.find("\"truncated\":true"), std::string::npos);
  // The interrupted run's file still loads as a qlog.
  Result<std::vector<QlogRecord>> loaded = LoadQlogFile(cfg.stats_path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString() << "\n" << stats;
  ASSERT_EQ(loaded.value().size(), 1u);
  EXPECT_EQ(loaded.value()[0].status, "Cancelled");
  EXPECT_FALSE(loaded.value()[0].complete);
}

TEST_F(ExitFlushTest, FlushIsIdempotentAndDisarmable) {
  ExitFlushConfig cfg;
  cfg.stats_path = PathFor("stats.json");
  cfg.stats_document = BackstopLine();
  ArmExitFlush(cfg);
  DisarmExitFlush();
  FlushObservabilityNow();  // disarmed: must write nothing
  EXPECT_FALSE(std::filesystem::exists(cfg.stats_path));

  ArmExitFlush(cfg);
  FlushObservabilityNow();
  EXPECT_TRUE(std::filesystem::exists(cfg.stats_path));
  std::filesystem::remove(cfg.stats_path);
  FlushObservabilityNow();  // already flushed: no re-write
  EXPECT_FALSE(std::filesystem::exists(cfg.stats_path));
}

TEST(ThreadLoadTest, ComputesSummary) {
  ThreadLoadReport rep = ComputeThreadLoad({0.2, 0.4, 0.6});
  EXPECT_DOUBLE_EQ(rep.min_seconds, 0.2);
  EXPECT_DOUBLE_EQ(rep.max_seconds, 0.6);
  EXPECT_DOUBLE_EQ(rep.mean_seconds, 0.4);
  EXPECT_DOUBLE_EQ(rep.imbalance, 1.5);

  ThreadLoadReport empty = ComputeThreadLoad({});
  EXPECT_DOUBLE_EQ(empty.imbalance, 0.0);
  EXPECT_DOUBLE_EQ(empty.mean_seconds, 0.0);
}

}  // namespace
}  // namespace obs
}  // namespace mio
