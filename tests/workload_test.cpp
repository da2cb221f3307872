// Tests for the workload layer: spec parsing (defaults inheritance,
// repeat cycling, error reporting) and end-to-end RunWorkload — qlog
// record contents, label reuse across ceil(r) classes, and deterministic
// tail-sampling via the workload.query_delay fault site.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "common/fault_injection.hpp"
#include "common/omp_utils.hpp"
#include "obs/metrics.hpp"
#include "obs/qlog.hpp"
#include "test_utils.hpp"
#include "workload/workload_runner.hpp"
#include "workload/workload_spec.hpp"

namespace mio {
namespace {

// --- Spec parser ------------------------------------------------------------

TEST(WorkloadSpec, ParsesDirectivesAndDefaults) {
  Result<WorkloadSpec> spec = ParseWorkloadSpec(
      "# a workload\n"
      "name urban-mix\n"
      "dataset data/urban.bin\n"
      "sample 0.5 seed=7\n"
      "defaults k=2 threads=4 labels=on deadline_ms=250\n"
      "query r=4\n"
      "query r=4.2 threads=8 k=1 labels=off record=on\n");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  const WorkloadSpec& s = spec.value();
  EXPECT_EQ(s.name, "urban-mix");
  EXPECT_EQ(s.dataset, "data/urban.bin");
  EXPECT_DOUBLE_EQ(s.sample_rate, 0.5);
  EXPECT_EQ(s.sample_seed, 7u);
  ASSERT_EQ(s.queries.size(), 2u);

  // First query inherits all defaults; labels=on implies record=on.
  EXPECT_DOUBLE_EQ(s.queries[0].r, 4.0);
  EXPECT_EQ(s.queries[0].k, 2u);
  EXPECT_EQ(s.queries[0].threads, 4);
  EXPECT_TRUE(s.queries[0].use_labels);
  EXPECT_TRUE(s.queries[0].record_labels);
  EXPECT_DOUBLE_EQ(s.queries[0].deadline_ms, 250.0);

  // Second overrides threads/k/labels but keeps the deadline default.
  EXPECT_DOUBLE_EQ(s.queries[1].r, 4.2);
  EXPECT_EQ(s.queries[1].k, 1u);
  EXPECT_EQ(s.queries[1].threads, 8);
  EXPECT_FALSE(s.queries[1].use_labels);
  EXPECT_TRUE(s.queries[1].record_labels);
  EXPECT_DOUBLE_EQ(s.queries[1].deadline_ms, 250.0);
}

TEST(WorkloadSpec, RepeatCyclesThroughRadii) {
  Result<WorkloadSpec> spec = ParseWorkloadSpec(
      "name cycle\n"
      "repeat 7 r=3,4.5,9\n");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  const std::vector<WorkloadQuery>& q = spec.value().queries;
  ASSERT_EQ(q.size(), 7u);
  const double expect[] = {3.0, 4.5, 9.0, 3.0, 4.5, 9.0, 3.0};
  for (std::size_t i = 0; i < q.size(); ++i) {
    EXPECT_DOUBLE_EQ(q[i].r, expect[i]) << "query " << i;
  }
}

TEST(WorkloadSpec, ErrorsCarryTheLineNumber) {
  struct Case {
    const char* text;
    const char* line;  // expected "line N" marker in the message
  } cases[] = {
      {"query r=4\nquery\n", "line 2"},             // query without r
      {"defaults r=4\n", "line 1"},                 // r not allowed here
      {"query r=4 k=0\n", "line 1"},                // k must be positive
      {"query r=4 threads=nope\n", "line 1"},       // not a number
      {"repeat 0 r=3\n", "line 1"},                 // zero repeat count
      {"repeat 3\n", "line 1"},                     // repeat without r list
      {"name only\n", ""},                          // no queries at all
      {"query r=4 labels=maybe\n", "line 1"},       // bad on/off value
      {"bogus-directive 1\n", "line 1"},            // unknown directive
      {"query r=nan\n", "line 1"},                  // non-finite radius
      {"query r=inf\n", "line 1"},
      {"query r=4 deadline_ms=nan\n", "line 1"},    // non-finite deadline
      {"query r=4 deadline_ms=inf\n", "line 1"},
      // strtoull accepts a sign and saturates on overflow: k=-1 once ran
      // with k = 2^64 - 1 and verified every object.
      {"defaults k=-1\nquery r=3\n", "line 1"},
      {"query r=3 k=+2\n", "line 1"},
      {"query r=3 k=18446744073709551616\n", "line 1"},  // ERANGE
      {"query r=3 k=9223372036854775808\n", "line 1"},   // above --k's bound
      {"query r=3 threads=-1\n", "line 1"},
      {"sample 0.5 seed=-1\nquery r=3\n", "line 1"},
      // threads=99999999999 once became 1,215,752,191 threads and the run
      // aborted with bad_alloc; the cap is `mio query --threads`'s.
      {"query r=3 threads=257\n", "line 1"},
      {"query r=3 threads=99999999999\n", "line 1"},
      {"defaults threads=4294967297\nquery r=3\n", "line 1"},
      // At most kMaxWorkloadQueries: `repeat 18446744073709551615 r=3`
      // would push 2^64 queries.
      {"repeat 1000001 r=3\n", "line 1"},
      {"repeat 999999 r=3\nrepeat 2 r=4\n", "line 2"},
      {"repeat 1000000 r=3\nquery r=4\n", "line 2"},
  };
  for (const Case& c : cases) {
    Result<WorkloadSpec> spec = ParseWorkloadSpec(c.text);
    ASSERT_FALSE(spec.ok()) << c.text;
    if (c.line[0] != '\0') {
      EXPECT_NE(spec.status().message().find(c.line), std::string::npos)
          << c.text << " -> " << spec.status().message();
    }
  }
}

TEST(WorkloadSpec, LoadFromMissingFileFails) {
  EXPECT_FALSE(LoadWorkloadSpec("/nonexistent/spec.workload").ok());
}

// The domain's bounds themselves: k as `mio query --k` bounds it,
// threads at the CLI's cap, the query cap, ceil_r at int32.
TEST(WorkloadSpec, AcceptsTheDomainBounds) {
  Result<WorkloadSpec> spec = ParseWorkloadSpec(
      "slo latency_ms=5 ceil_r=2147483647\n"
      "query r=3 k=9223372036854775807 threads=256\n"
      "repeat 999999 r=3\n");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_EQ(spec.value().queries.size(), kMaxWorkloadQueries);
  EXPECT_EQ(spec.value().queries[0].k, 9223372036854775807u);
  EXPECT_EQ(spec.value().queries[0].threads, kMaxRequestedThreads);
  EXPECT_EQ(spec.value().slos[0].ceil_r, 2147483647);
}

// Deterministic mutation fuzzing of whole spec texts, seeded with the
// specs scripts/check.sh runs: no input may crash the parser, and every
// accepted spec must lie inside the documented domain.
TEST(WorkloadSpec, FuzzedSpecsNeverCrash) {
  const std::vector<std::string> seeds = {
      "name check-qlog-mix\nsample 0.25 seed=1\n"
      "defaults k=1 threads=2 labels=on\nrepeat 102 r=3,4.5,3.2,6.8,2.1,5.5\n",
      "name bench-canonical\ndefaults k=1 threads=2 labels=on\n"
      "slo latency_ms=10000 objective=0.95\nrepeat 30 r=3,4.5,9\n",
      "name bench-canonical\ndefaults k=1 threads=2 labels=on\n"
      "slo latency_ms=0.000001 objective=0.999\nrepeat 30 r=3,4.5,9\n",
      "name serve-replay\ndefaults k=2 threads=1 labels=off\n"
      "repeat 12 r=3,4.5,6\n",
      "name mix\ndataset d.bin\nquery r=4 k=3 threads=4 record=on "
      "reuse_grid=off deadline_ms=50\n"
      "slo ceil_r=5 latency_ms=80 objective=0.99\n",
  };
  Pcg32 rng(0x73706563 /* "spec" */, 3);
  std::size_t accepted = 0;
  for (int i = 0; i < 3000; ++i) {
    const std::string text = mio::testing::MutateLine(seeds, rng);
    Result<WorkloadSpec> spec = ParseWorkloadSpec(text);
    if (!spec.ok()) {
      ASSERT_EQ(spec.status().code(), StatusCode::kInvalidArgument) << text;
      continue;
    }
    ++accepted;
    const WorkloadSpec& s = spec.value();
    ASSERT_TRUE(s.sample_rate > 0.0 && s.sample_rate <= 1.0) << text;
    ASSERT_FALSE(s.queries.empty()) << text;
    ASSERT_LE(s.queries.size(), kMaxWorkloadQueries) << text;
    for (const WorkloadQuery& q : s.queries) {
      ASSERT_TRUE(std::isfinite(q.r) && q.r > 0.0) << text;
      ASSERT_GE(q.k, 1u) << text;
      ASSERT_LE(q.k, 9223372036854775807u) << text;
      ASSERT_GE(q.threads, 1) << text;
      ASSERT_LE(q.threads, kMaxRequestedThreads) << text;
      ASSERT_TRUE(std::isfinite(q.deadline_ms) && q.deadline_ms >= 0.0)
          << text;
    }
    for (const obs::SloObjective& slo : s.slos) {
      ASSERT_GT(slo.objective, 0.0) << text;
      ASSERT_LT(slo.objective, 1.0) << text;
      ASSERT_GE(slo.ceil_r, 0) << text;
      ASSERT_TRUE(std::isfinite(slo.latency_ms) && slo.latency_ms > 0.0)
          << text;
    }
  }
  // The mutations must reach the accepting paths, not only the errors.
  EXPECT_GT(accepted, 100u);
}

// --- Runner -----------------------------------------------------------------

class WorkloadRunTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fault::Reset();
    obs::SetMetricsEnabled(true);
    obs::ResetMetrics();
    dir_ = std::filesystem::temp_directory_path() /
           ("mio_workload_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    fault::Reset();
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  std::string PathFor(const std::string& name) {
    return (dir_ / name).string();
  }

  /// Names of the q*.trace.json files currently in `dir`.
  static std::vector<std::string> TraceFilesIn(const std::string& dir) {
    std::vector<std::string> names;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      names.push_back(entry.path().filename().string());
    }
    std::sort(names.begin(), names.end());
    return names;
  }

  std::filesystem::path dir_;
};

TEST_F(WorkloadRunTest, WritesOneValidRecordPerQuery) {
  ObjectSet objects =
      testing::MakeRandomObjects(60, 3, 6, /*domain=*/100.0, /*seed=*/11);
  Result<WorkloadSpec> spec = ParseWorkloadSpec(
      "name unit-mix\n"
      "defaults k=1 threads=1 labels=on\n"
      "repeat 8 r=3,4.5\n");
  ASSERT_TRUE(spec.ok());

  WorkloadRunOptions opts;
  opts.dataset_name = "random-60";
  opts.qlog_path = PathFor("run.jsonl");
  Result<WorkloadRunSummary> run = RunWorkload(objects, spec.value(), opts);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run.value().queries, 8u);
  EXPECT_EQ(run.value().qlog_records, 8u);
  EXPECT_EQ(run.value().failed, 0u);

  Result<std::vector<obs::QlogRecord>> loaded = obs::LoadQlogFile(opts.qlog_path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded.value().size(), 8u);
  for (std::size_t i = 0; i < loaded.value().size(); ++i) {
    const obs::QlogRecord& rec = loaded.value()[i];
    EXPECT_EQ(rec.query_index, i);
    EXPECT_EQ(rec.workload, "unit-mix");
    EXPECT_EQ(rec.dataset, "random-60");
    EXPECT_EQ(rec.algo, "bigrid-label");
    EXPECT_EQ(rec.objects, 60u);
    EXPECT_EQ(rec.ceil_r, i % 2 == 0 ? 3 : 5);  // ceil(3)=3, ceil(4.5)=5
    EXPECT_GT(rec.wall_seconds, 0.0);
    EXPECT_EQ(rec.status, "OK");
    EXPECT_TRUE(rec.complete);
  }
}

TEST_F(WorkloadRunTest, LabelsHitAfterFirstQueryPerCeilClass) {
  ObjectSet objects =
      testing::MakeRandomObjects(60, 3, 6, /*domain=*/100.0, /*seed=*/11);
  Result<WorkloadSpec> spec = ParseWorkloadSpec(
      "name label-reuse\n"
      "defaults labels=on\n"
      "repeat 9 r=3,4.5,9\n");
  ASSERT_TRUE(spec.ok());

  WorkloadRunOptions opts;
  opts.qlog_path = PathFor("run.jsonl");
  Result<WorkloadRunSummary> run = RunWorkload(objects, spec.value(), opts);
  ASSERT_TRUE(run.ok()) << run.status().ToString();

  Result<std::vector<obs::QlogRecord>> loaded = obs::LoadQlogFile(opts.qlog_path);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded.value().size(), 9u);
  // Three ceil(r) classes cycling: the first visit of each class records
  // labels, every revisit hits.
  for (std::size_t i = 0; i < 9; ++i) {
    const obs::QlogRecord& rec = loaded.value()[i];
    if (i < 3) {
      EXPECT_EQ(rec.label_outcome, "recorded") << "query " << i;
    } else {
      EXPECT_TRUE(rec.LabelHit()) << "query " << i << ": "
                                  << rec.label_outcome;
    }
  }

  // The counters agree: 6 hits, 3 misses.
  obs::MetricsSnapshot m = obs::SnapshotMetrics();
  EXPECT_EQ(m.counters[static_cast<std::size_t>(obs::Counter::kLabelCacheHits)],
            6u);
  EXPECT_EQ(
      m.counters[static_cast<std::size_t>(obs::Counter::kLabelCacheMisses)],
      3u);

  // And the report aggregates to a 2/3 hit rate in every class.
  obs::QlogReport report = obs::BuildQlogReport(loaded.value(), 3);
  ASSERT_EQ(report.ceil_classes.size(), 3u);
  for (const obs::QlogCeilClassStats& cls : report.ceil_classes) {
    EXPECT_EQ(cls.queries, 3u);
    EXPECT_EQ(cls.recorded, 1u);
    EXPECT_EQ(cls.hits, 2u);
    EXPECT_NEAR(cls.HitRate(), 2.0 / 3.0, 1e-12);
  }
}

TEST_F(WorkloadRunTest, SamplingShrinksTheDataset) {
  ObjectSet objects =
      testing::MakeRandomObjects(80, 3, 5, /*domain=*/100.0, /*seed=*/3);
  Result<WorkloadSpec> spec = ParseWorkloadSpec(
      "name sampled\n"
      "sample 0.25 seed=9\n"
      "query r=3\n");
  ASSERT_TRUE(spec.ok());
  WorkloadRunOptions opts;
  opts.qlog_path = PathFor("run.jsonl");
  Result<WorkloadRunSummary> run = RunWorkload(objects, spec.value(), opts);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  Result<std::vector<obs::QlogRecord>> loaded = obs::LoadQlogFile(opts.qlog_path);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded.value().size(), 1u);
  EXPECT_LT(loaded.value()[0].objects, 80u);
  EXPECT_GT(loaded.value()[0].objects, 0u);
}

TEST_F(WorkloadRunTest, EmptyDatasetFails) {
  ObjectSet empty;
  Result<WorkloadSpec> spec = ParseWorkloadSpec("query r=3\n");
  ASSERT_TRUE(spec.ok());
  EXPECT_FALSE(RunWorkload(empty, spec.value(), WorkloadRunOptions{}).ok());
}

#ifndef MIO_TRACING_DISABLED
TEST_F(WorkloadRunTest, FaultForcedSlowQueryIsTheOnlyTrace) {
  ObjectSet objects =
      testing::MakeRandomObjects(40, 3, 5, /*domain=*/100.0, /*seed=*/5);
  Result<WorkloadSpec> spec = ParseWorkloadSpec(
      "name tail\n"
      "repeat 6 r=3\n");
  ASSERT_TRUE(spec.ok());

  // Arm a 50ms busy-wait on the 4th query; with slowest_n=1 it must be
  // the single surviving trace regardless of ambient timing noise.
  ASSERT_TRUE(fault::Arm("workload.query_delay", "nth=4").ok());

  WorkloadRunOptions opts;
  opts.qlog_path = PathFor("run.jsonl");
  opts.trace_dir = PathFor("traces");
  opts.tail.slowest_n = 1;
  Result<WorkloadRunSummary> run = RunWorkload(objects, spec.value(), opts);
  ASSERT_TRUE(run.ok()) << run.status().ToString();

  EXPECT_EQ(run.value().tail_indices, (std::vector<std::uint64_t>{3}));
  EXPECT_EQ(run.value().traces_written, 1u);
  EXPECT_EQ(TraceFilesIn(opts.trace_dir),
            (std::vector<std::string>{obs::TailTraceFileName(3)}));

  // The qlog agrees the delayed query is the slowest one.
  Result<std::vector<obs::QlogRecord>> loaded = obs::LoadQlogFile(opts.qlog_path);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded.value().size(), 6u);
  const std::vector<obs::QlogRecord>& recs = loaded.value();
  for (std::size_t i = 0; i < recs.size(); ++i) {
    if (i == 3) continue;
    EXPECT_GT(recs[3].wall_seconds, recs[i].wall_seconds) << "query " << i;
  }
  EXPECT_GE(recs[3].wall_seconds, 0.05);
}

TEST_F(WorkloadRunTest, ThresholdKeepsEveryForcedSlowQuery) {
  ObjectSet objects =
      testing::MakeRandomObjects(40, 3, 5, /*domain=*/100.0, /*seed=*/5);
  Result<WorkloadSpec> spec = ParseWorkloadSpec(
      "name tail-threshold\n"
      "repeat 5 r=3\n");
  ASSERT_TRUE(spec.ok());

  // Delay every query past a 40ms threshold; slowest-N stays disabled.
  ASSERT_TRUE(fault::Arm("workload.query_delay", "always").ok());

  WorkloadRunOptions opts;
  opts.trace_dir = PathFor("traces");
  opts.tail.threshold_seconds = 0.04;
  Result<WorkloadRunSummary> run = RunWorkload(objects, spec.value(), opts);
  ASSERT_TRUE(run.ok()) << run.status().ToString();

  // Every query was delayed past the threshold: all five keep traces and
  // nothing is ever evicted (threshold members are permanent).
  EXPECT_EQ(run.value().tail_indices,
            (std::vector<std::uint64_t>{0, 1, 2, 3, 4}));
  EXPECT_EQ(run.value().traces_written, 5u);
  EXPECT_EQ(run.value().traces_evicted, 0u);
  EXPECT_EQ(TraceFilesIn(opts.trace_dir).size(), 5u);
}
#endif  // MIO_TRACING_DISABLED

TEST_F(WorkloadRunTest, NoTraceDirMeansNoFilesButTailIsTracked) {
  ObjectSet objects =
      testing::MakeRandomObjects(40, 3, 5, /*domain=*/100.0, /*seed=*/5);
  Result<WorkloadSpec> spec = ParseWorkloadSpec("repeat 4 r=3\n");
  ASSERT_TRUE(spec.ok());
  WorkloadRunOptions opts;
  opts.tail.slowest_n = 2;
  Result<WorkloadRunSummary> run = RunWorkload(objects, spec.value(), opts);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run.value().tail_indices.size(), 2u);
  EXPECT_EQ(run.value().traces_written, 0u);
}

// --- SLO directive ----------------------------------------------------------

TEST(WorkloadSpec, SloDirectiveParsesObjectives) {
  Result<WorkloadSpec> spec = ParseWorkloadSpec(
      "name slo-mix\n"
      "slo latency_ms=50\n"
      "slo latency_ms=120.5 ceil_r=4 objective=0.99\n"
      "query r=3\n");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  const std::vector<obs::SloObjective>& slos = spec.value().slos;
  ASSERT_EQ(slos.size(), 2u);
  EXPECT_EQ(slos[0].ceil_r, 0);  // scope: all queries
  EXPECT_DOUBLE_EQ(slos[0].latency_ms, 50.0);
  EXPECT_DOUBLE_EQ(slos[0].objective, 0.95);  // default
  EXPECT_EQ(slos[1].ceil_r, 4);
  EXPECT_DOUBLE_EQ(slos[1].latency_ms, 120.5);
  EXPECT_DOUBLE_EQ(slos[1].objective, 0.99);
}

TEST(WorkloadSpec, SloDirectiveRejectsBadOptions) {
  const char* bad[] = {
      "slo\nquery r=3\n",                          // missing latency_ms
      "slo ceil_r=4\nquery r=3\n",                 // missing latency_ms
      "slo latency_ms=0\nquery r=3\n",             // non-positive latency
      "slo latency_ms=50 objective=1\nquery r=3\n",    // objective not < 1
      "slo latency_ms=50 objective=0\nquery r=3\n",    // objective not > 0
      "slo latency_ms=50 ceil_r=0\nquery r=3\n",   // explicit zero class
      "slo latency_ms=50 ceil_r=2147483648\nquery r=3\n",  // above int32
      "slo latency_ms=50 bogus=1\nquery r=3\n",    // unknown option
  };
  for (const char* text : bad) {
    Result<WorkloadSpec> spec = ParseWorkloadSpec(text);
    EXPECT_FALSE(spec.ok()) << text;
    if (!spec.ok()) {
      EXPECT_NE(spec.status().message().find("line 1"), std::string::npos)
          << text << " -> " << spec.status().message();
    }
  }
}

// --- Telemetry via the runner -----------------------------------------------

TEST_F(WorkloadRunTest, MetricsOutProducesValidExposition) {
  ObjectSet objects =
      testing::MakeRandomObjects(50, 3, 5, /*domain=*/100.0, /*seed=*/3);
  Result<WorkloadSpec> spec = ParseWorkloadSpec(
      "name telemetry-mix\n"
      "defaults labels=on\n"
      "repeat 6 r=3,4.5\n");
  ASSERT_TRUE(spec.ok());

  WorkloadRunOptions opts;
  opts.qlog_path = PathFor("run.jsonl");
  opts.metrics_out = PathFor("metrics.prom");
  opts.telemetry_interval_ms = 20;
  Result<WorkloadRunSummary> run = RunWorkload(objects, spec.value(), opts);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  // At minimum the immediate start sample and the final stop sample.
  EXPECT_GE(run.value().telemetry_samples, 2u);

  ASSERT_TRUE(std::filesystem::exists(opts.metrics_out));
  std::ifstream in(opts.metrics_out);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(text.find("# TYPE mio_query_executed counter"), std::string::npos);
  EXPECT_NE(text.find("mio_query_executed_total 6"), std::string::npos);
  EXPECT_NE(text.find("process_resident_memory_bytes"), std::string::npos);
  ASSERT_GE(text.size(), 6u);
  EXPECT_EQ(text.substr(text.size() - 6), "# EOF\n");
  // No half-written temp file left behind.
  EXPECT_FALSE(std::filesystem::exists(opts.metrics_out + ".tmp"));
}

}  // namespace
}  // namespace mio
