// Tests for the qlog layer (obs/qlog.hpp): the record builder against
// real engine queries, mio-qlog-v1 record round-trip on every field,
// string-escaping edge cases, validator rejections, the JsonValue parser,
// writer/loader file behaviour, tail-sampling policy, and report
// aggregation against the shared R-7 percentile helper.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <string>
#include <tuple>
#include <vector>

#include "core/mio_engine.hpp"
#include "core/query_result.hpp"
#include "geo/kernels.hpp"
#include "obs/json.hpp"
#include "obs/qlog.hpp"
#include "obs/stats_sink.hpp"
#include "test_utils.hpp"

namespace mio {
namespace obs {
namespace {

class QlogFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("mio_qlog_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  std::string PathFor(const std::string& name) {
    return (dir_ / name).string();
  }
  std::filesystem::path dir_;
};

/// A record with a distinctive value in every field, so a round-trip
/// mix-up between any two fields is caught.
QlogRecord MakeFullRecord() {
  QlogRecord rec;
  rec.query_index = 41;
  rec.workload = "mix-workload";
  rec.dataset = "data/birds.bin";
  rec.algo = "bigrid-label";
  rec.r = 4.25;
  rec.ceil_r = 5;
  rec.k = 3;
  rec.threads = 7;
  rec.scale = "quick";
  rec.wall_seconds = 0.125;
  rec.total_seconds = 0.117;
  rec.phase_label_input = 0.001;
  rec.phase_grid_mapping = 0.032;
  rec.phase_lower_bounding = 0.008;
  rec.phase_upper_bounding = 0.046;
  rec.phase_verification = 0.03;
  rec.objects = 1200;
  rec.candidates = 321;
  rec.verified = 54;
  rec.stopped = 51;
  rec.distance_computations = 987654;
  rec.winner_id = 17;
  rec.winner_score = 290;
  rec.tau_low_max = 288;
  rec.grid_reused = true;
  rec.cells_small = 4321;
  rec.cells_large = 765;
  rec.label_outcome = "hit_disk";
  rec.points_pruned_by_labels = 23456;
  rec.status = "DeadlineExceeded";
  rec.complete = false;
  rec.degradation_level = 2;
  rec.git = "v1.2-3-gabcdef";
  rec.kernel_tier = "avx2";
  rec.index_memory_bytes = 123456789;
  rec.peak_memory_bytes = 234567890;
  rec.trace_dropped_spans = 11;
  rec.server_request_id = "r000041";
  rec.server_correlation_id = "client-7";
  rec.server_client = "c3";
  rec.server_role = "leader";
  rec.server_queue_wait_seconds = 0.004;
  rec.server_e2e_seconds = 0.131;
  rec.server_refusal = "not really";
  rec.server_retry_after_ms = 12.5;
  rec.server_stages = {10.0, 10.002, 10.006, 10.123, 10.131};
  return rec;
}

/// A refused server request's record: no execution, no enqueued stage.
QlogRecord MakeRefusedRecord() {
  QlogRecord rec;
  rec.query_index = 42;
  rec.workload = "serve";
  rec.r = 3.0;
  rec.server_request_id = "r000042";
  rec.server_client = "c4";
  rec.server_role = "refused";
  rec.server_refusal = "admission queue full";
  rec.server_retry_after_ms = 75.0;
  rec.server_e2e_seconds = 0.0001;
  rec.server_stages = {11.0, -1.0, -1.0, -1.0, 11.0001};
  rec.status = "Overloaded";
  rec.complete = false;
  rec.wall_seconds = 0.0001;
  return rec;
}

TEST(QlogRecord, RoundTripsEveryField) {
  QlogRecord rec = MakeFullRecord();
  rec.truncated = true;
  std::string line = QlogRecordToJsonLine(rec);
  EXPECT_EQ(line.find('\n'), std::string::npos);
  ASSERT_TRUE(ValidateQlogLine(line).ok());

  QlogRecord back;
  ASSERT_TRUE(ParseQlogRecord(line, &back).ok());
  EXPECT_EQ(back.query_index, rec.query_index);
  EXPECT_EQ(back.workload, rec.workload);
  EXPECT_EQ(back.dataset, rec.dataset);
  EXPECT_EQ(back.algo, rec.algo);
  EXPECT_DOUBLE_EQ(back.r, rec.r);
  EXPECT_EQ(back.ceil_r, rec.ceil_r);
  EXPECT_EQ(back.k, rec.k);
  EXPECT_EQ(back.threads, rec.threads);
  EXPECT_EQ(back.scale, rec.scale);
  EXPECT_DOUBLE_EQ(back.wall_seconds, rec.wall_seconds);
  EXPECT_DOUBLE_EQ(back.total_seconds, rec.total_seconds);
  EXPECT_DOUBLE_EQ(back.phase_label_input, rec.phase_label_input);
  EXPECT_DOUBLE_EQ(back.phase_grid_mapping, rec.phase_grid_mapping);
  EXPECT_DOUBLE_EQ(back.phase_lower_bounding, rec.phase_lower_bounding);
  EXPECT_DOUBLE_EQ(back.phase_upper_bounding, rec.phase_upper_bounding);
  EXPECT_DOUBLE_EQ(back.phase_verification, rec.phase_verification);
  EXPECT_EQ(back.objects, rec.objects);
  EXPECT_EQ(back.candidates, rec.candidates);
  EXPECT_EQ(back.verified, rec.verified);
  EXPECT_EQ(back.stopped, rec.stopped);
  EXPECT_EQ(back.distance_computations, rec.distance_computations);
  EXPECT_EQ(back.winner_id, rec.winner_id);
  EXPECT_EQ(back.winner_score, rec.winner_score);
  EXPECT_EQ(back.tau_low_max, rec.tau_low_max);
  EXPECT_EQ(back.grid_reused, rec.grid_reused);
  EXPECT_EQ(back.cells_small, rec.cells_small);
  EXPECT_EQ(back.cells_large, rec.cells_large);
  EXPECT_EQ(back.label_outcome, rec.label_outcome);
  EXPECT_EQ(back.points_pruned_by_labels, rec.points_pruned_by_labels);
  EXPECT_EQ(back.status, rec.status);
  EXPECT_EQ(back.complete, rec.complete);
  EXPECT_EQ(back.degradation_level, rec.degradation_level);
  EXPECT_EQ(back.git, rec.git);
  EXPECT_EQ(back.kernel_tier, rec.kernel_tier);
  EXPECT_EQ(back.index_memory_bytes, rec.index_memory_bytes);
  EXPECT_EQ(back.peak_memory_bytes, rec.peak_memory_bytes);
  EXPECT_EQ(back.trace_dropped_spans, rec.trace_dropped_spans);
  EXPECT_EQ(back.server_request_id, rec.server_request_id);
  EXPECT_EQ(back.server_correlation_id, rec.server_correlation_id);
  EXPECT_EQ(back.server_client, rec.server_client);
  EXPECT_EQ(back.server_role, rec.server_role);
  EXPECT_DOUBLE_EQ(back.server_queue_wait_seconds,
                   rec.server_queue_wait_seconds);
  EXPECT_DOUBLE_EQ(back.server_e2e_seconds, rec.server_e2e_seconds);
  EXPECT_EQ(back.server_refusal, rec.server_refusal);
  EXPECT_DOUBLE_EQ(back.server_retry_after_ms, rec.server_retry_after_ms);
  for (std::size_t i = 0; i < rec.server_stages.size(); ++i) {
    EXPECT_DOUBLE_EQ(back.server_stages[i], rec.server_stages[i]) << i;
  }
  EXPECT_TRUE(back.HasServer());
  EXPECT_TRUE(back.ServerExecuted());
  EXPECT_FALSE(back.ServerRefused());
  EXPECT_TRUE(back.truncated);
}

TEST(QlogRecord, RefusedRecordRoundTripsItsReasonHintAndStages) {
  QlogRecord rec = MakeRefusedRecord();
  std::string line = QlogRecordToJsonLine(rec);
  ASSERT_TRUE(ValidateQlogLine(line).ok()) << line;
  // Unstamped stages are omitted, not written as negatives.
  EXPECT_NE(line.find(R"("stages":{"accepted":11,"responded":11.0001})"),
            std::string::npos)
      << line;
  QlogRecord back;
  ASSERT_TRUE(ParseQlogRecord(line, &back).ok());
  EXPECT_TRUE(back.ServerRefused());
  EXPECT_FALSE(back.ServerExecuted());
  EXPECT_LT(back.server_stages[1], 0.0);
  EXPECT_DOUBLE_EQ(back.server_stages[4], 11.0001);
  EXPECT_EQ(back.status, "Overloaded");
  EXPECT_FALSE(back.complete);
}

TEST(QlogRecord, RoundTripsEscapingEdgeCases) {
  QlogRecord rec = MakeFullRecord();
  // Quotes, backslashes, control characters, a tab, and multi-byte UTF-8
  // in the free-text fields.
  rec.workload = "a\"b\\c\n\td\x01";
  rec.dataset = "päth/with ünïcode/\"quoted\".bin";
  std::string line = QlogRecordToJsonLine(rec);
  ASSERT_TRUE(ValidateQlogLine(line).ok());
  QlogRecord back;
  ASSERT_TRUE(ParseQlogRecord(line, &back).ok());
  EXPECT_EQ(back.workload, rec.workload);
  EXPECT_EQ(back.dataset, rec.dataset);
}

TEST(QlogRecord, DefaultRecordIsValid) {
  std::string line = QlogRecordToJsonLine(QlogRecord{});
  EXPECT_TRUE(ValidateQlogLine(line).ok()) << line;
}

/// A batched member's record, without a server section.
QlogRecord MakeBatchedRecord() {
  QlogRecord rec;
  rec.batch_id = 3;
  rec.batch_size = 8;
  rec.label_outcome = "recorded";
  return rec;
}

/// A record whose detail sections are filled by hand: memory parts, two
/// verification threads, compression, one counter and one histogram, and
/// the tracker entries.
QlogRecord MakeDetailRecord() {
  QlogRecord rec;
  rec.query_index = 7;
  rec.workload = "detail";
  rec.r = 2.5;
  auto stats = std::make_shared<QueryStats>();
  stats->memory.Add("small_grid", 4096);
  stats->memory.Add("large_grid", 1024);
  stats->verify_thread_seconds = {0.25, 0.75};
  stats->compression.num_bitsets = 12;
  stats->compression.compressed_bytes = 300;
  stats->compression.uncompressed_bytes = 1200;
  rec.detail = stats;
  auto metrics = std::make_shared<MetricsSnapshot>();
  metrics->counters[static_cast<std::size_t>(Counter::kAdjBuilds)] = 9;
  HistogramSnapshot& hist =
      metrics->histograms[static_cast<std::size_t>(Histogram::kUbUnionBits)];
  hist.count = 3;
  hist.sum = 14;
  hist.min = 2;
  hist.max = 8;
  hist.buckets[2] = 1;
  hist.buckets[3] = 1;
  hist.buckets[4] = 1;
  rec.metrics = metrics;
  rec.tracker = {{"small_grid", 4096, 8192}, {"labels", 0, 512}};
  return rec;
}

// The exact bytes of the writer, captured from the writer before the
// record's fields moved into one table, less the environment's PMU tier
// and the hardware section dropped since: keys, order, number formatting
// and every omission rule.
TEST(QlogRecord, WriterBytesArePinned) {
  QlogRecord truncated = MakeFullRecord();
  truncated.truncated = true;
  const std::pair<QlogRecord, std::string> pins[] = {
      {truncated,
       R"({"schema":"mio-qlog-v1","truncated":true,"query_index":41)"
       R"(,"workload":"mix-workload","dataset":"data/birds.bin")"
       R"(,"algo":"bigrid-label","params":{"r":4.25,"ceil_r":5,"k":3)"
       R"(,"threads":7,"scale":"quick"},"wall_seconds":0.125)"
       R"(,"total_seconds":0.117,"phases":{"label_input":0.001)"
       R"(,"grid_mapping":0.032,"lower_bounding":0.008)"
       R"(,"upper_bounding":0.046,"verification":0.03,"total":0.117})"
       R"(,"funnel":{"objects":1200,"candidates":321,"verified":54)"
       R"(,"stopped":51,"distance_computations":987654,"tau_low_max":288})"
       R"(,"grid":{"reused":true,"cells_small":4321,"cells_large":765})"
       R"(,"winner":{"id":17,"score":290},"labels":{"outcome":"hit_disk")"
       R"(,"points_pruned":23456},"outcome":{"status":"DeadlineExceeded")"
       R"(,"complete":false,"degradation_level":2})"
       R"(,"env":{"git":"v1.2-3-gabcdef")"
       R"(,"kernel_tier":"avx2"},"memory":{"index_bytes":123456789)"
       R"(,"peak_bytes":234567890},"trace":{"dropped_spans":11})"
       R"(,"server":{"request_id":"r000041","correlation_id":"client-7")"
       R"(,"client":"c3","role":"leader","queue_wait_seconds":0.004)"
       R"(,"e2e_seconds":0.131,"refusal":"not really")"
       R"(,"retry_after_ms":12.5,"stages":{"accepted":10,"enqueued":10.002)"
       R"(,"dequeued":10.006,"executed":10.123,"responded":10.131}}})"},
      {MakeRefusedRecord(),
       R"({"schema":"mio-qlog-v1","query_index":42,"workload":"serve")"
       R"(,"dataset":"","algo":"","params":{"r":3,"ceil_r":0,"k":1)"
       R"(,"threads":1},"wall_seconds":0.0001,"total_seconds":0)"
       R"(,"phases":{"label_input":0,"grid_mapping":0,"lower_bounding":0)"
       R"(,"upper_bounding":0,"verification":0,"total":0})"
       R"(,"funnel":{"objects":0,"candidates":0,"verified":0)"
       R"(,"stopped":0,"distance_computations":0,"tau_low_max":0})"
       R"(,"grid":{"reused":false,"cells_small":0,"cells_large":0})"
       R"(,"winner":{"id":0,"score":0},"labels":{"outcome":"off")"
       R"(,"points_pruned":0},"outcome":{"status":"Overloaded")"
       R"(,"complete":false,"degradation_level":0},"env":{"git":"")"
       R"(,"kernel_tier":""},"memory":{"index_bytes":0)"
       R"(,"peak_bytes":0},"trace":{"dropped_spans":0})"
       R"(,"server":{"request_id":"r000042","client":"c4","role":"refused")"
       R"(,"queue_wait_seconds":0,"e2e_seconds":0.0001)"
       R"(,"refusal":"admission queue full","retry_after_ms":75)"
       R"(,"stages":{"accepted":11,"responded":11.0001}}})"},
      {MakeBatchedRecord(),
       R"({"schema":"mio-qlog-v1","query_index":0,"workload":"")"
       R"(,"dataset":"","algo":"","params":{"r":0,"ceil_r":0,"k":1)"
       R"(,"threads":1},"wall_seconds":0,"total_seconds":0)"
       R"(,"phases":{"label_input":0,"grid_mapping":0,"lower_bounding":0)"
       R"(,"upper_bounding":0,"verification":0,"total":0})"
       R"(,"funnel":{"objects":0,"candidates":0,"verified":0)"
       R"(,"stopped":0,"distance_computations":0,"tau_low_max":0})"
       R"(,"grid":{"reused":false,"cells_small":0,"cells_large":0})"
       R"(,"winner":{"id":0,"score":0},"labels":{"outcome":"recorded")"
       R"(,"points_pruned":0},"outcome":{"status":"OK","complete":true)"
       R"(,"degradation_level":0},"env":{"git":"")"
       R"(,"kernel_tier":""},"memory":{"index_bytes":0,"peak_bytes":0})"
       R"(,"trace":{"dropped_spans":0},"batch":{"id":3,"size":8}})"},
      {QlogRecord{},
       R"({"schema":"mio-qlog-v1","query_index":0,"workload":"")"
       R"(,"dataset":"","algo":"","params":{"r":0,"ceil_r":0,"k":1)"
       R"(,"threads":1},"wall_seconds":0,"total_seconds":0)"
       R"(,"phases":{"label_input":0,"grid_mapping":0,"lower_bounding":0)"
       R"(,"upper_bounding":0,"verification":0,"total":0})"
       R"(,"funnel":{"objects":0,"candidates":0,"verified":0)"
       R"(,"stopped":0,"distance_computations":0,"tau_low_max":0})"
       R"(,"grid":{"reused":false,"cells_small":0,"cells_large":0})"
       R"(,"winner":{"id":0,"score":0},"labels":{"outcome":"off")"
       R"(,"points_pruned":0},"outcome":{"status":"OK","complete":true)"
       R"(,"degradation_level":0},"env":{"git":"")"
       R"(,"kernel_tier":""},"memory":{"index_bytes":0,"peak_bytes":0})"
       R"(,"trace":{"dropped_spans":0}})"},
      {MakeDetailRecord(),
       R"({"schema":"mio-qlog-v1","query_index":7,"workload":"detail")"
       R"(,"dataset":"","algo":"","params":{"r":2.5,"ceil_r":0,"k":1)"
       R"(,"threads":1},"wall_seconds":0,"total_seconds":0)"
       R"(,"phases":{"label_input":0,"grid_mapping":0,"lower_bounding":0)"
       R"(,"upper_bounding":0,"verification":0,"total":0})"
       R"(,"funnel":{"objects":0,"candidates":0,"verified":0)"
       R"(,"stopped":0,"distance_computations":0,"tau_low_max":0})"
       R"(,"grid":{"reused":false,"cells_small":0,"cells_large":0})"
       R"(,"winner":{"id":0,"score":0},"labels":{"outcome":"off")"
       R"(,"points_pruned":0},"outcome":{"status":"OK","complete":true)"
       R"(,"degradation_level":0},"env":{"git":"")"
       R"(,"kernel_tier":""},"memory":{"index_bytes":0,"peak_bytes":0)"
       R"(,"parts":{"small_grid":4096,"large_grid":1024})"
       R"(,"tracker":{"small_grid":{"current_bytes":4096)"
       R"(,"peak_bytes":8192},"labels":{"current_bytes":0)"
       R"(,"peak_bytes":512}}},"trace":{"dropped_spans":0})"
       R"(,"verify_load_balance":{"workers":2,"per_thread_seconds":[0.25)"
       R"(,0.75],"min_seconds":0.25,"max_seconds":0.75,"mean_seconds":0.5)"
       R"(,"imbalance":1.5},"compression":{"num_bitsets":12)"
       R"(,"compressed_bytes":300,"uncompressed_bytes":1200)"
       R"(,"savings_ratio":0.75},"metrics":{"counters":{"adj_builds":9})"
       R"(,"histograms":{"ub_union_bits":{"count":3,"sum":14,"min":2)"
       R"(,"max":8,"mean":4.66666667,"p50":6,"p90":8,"p99":8)"
       R"(,"log2_buckets":{"2":1,"3":1,"4":1}}}}})"},
  };
  for (const auto& [rec, pinned] : pins) {
    EXPECT_EQ(QlogRecordToJsonLine(rec), pinned);
  }
}

// The one builder every emitter uses: each engine-derived field must be
// the query's QueryStats value, for an unlabelled query that records
// labels and a labelled one that reuses them.
TEST(QlogBuilder, RecordCarriesTheQueryStats) {
  ObjectSet set = testing::MakeRandomObjects(60, 3, 8, 20.0, 5);
  MioEngine engine(set);
  QueryOptions unlabelled;
  unlabelled.threads = 2;
  unlabelled.record_labels = true;
  unlabelled.reuse_grid = true;  // caches its complete large grid
  QueryOptions labelled;
  labelled.k = 3;
  labelled.use_labels = true;
  labelled.reuse_grid = true;
  const std::vector<std::pair<double, QueryOptions>> queries = {
      {4.5, unlabelled}, {4.2, labelled}};
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const auto& [r, opt] = queries[i];
    QueryResult res = engine.Query(r, opt);
    ASSERT_TRUE(res.status.ok()) << res.status.ToString();
    const QueryStats& s = res.stats;

    QlogRecord id;
    id.query_index = i;
    id.workload = "builder-test";
    id.dataset = "random";
    id.algo = opt.use_labels ? "bigrid-label" : "bigrid";
    id.r = r;
    id.k = opt.k;
    id.threads = opt.threads;
    id.objects = set.size();
    id.wall_seconds = 0.5;
    QlogRecord rec = BuildQlogRecord(id, &res);

    // Identity is kept.
    EXPECT_EQ(rec.query_index, i);
    EXPECT_EQ(rec.workload, "builder-test");
    EXPECT_EQ(rec.dataset, "random");
    EXPECT_EQ(rec.algo, id.algo);
    EXPECT_EQ(rec.r, r);
    EXPECT_EQ(rec.ceil_r, 5);
    EXPECT_EQ(rec.k, opt.k);
    EXPECT_EQ(rec.objects, set.size());
    EXPECT_EQ(rec.wall_seconds, 0.5);
    // Everything else is the query's stats and outcome.
    EXPECT_EQ(rec.threads, s.threads);
    EXPECT_EQ(rec.total_seconds, s.total_seconds);
    EXPECT_EQ(rec.phase_label_input, s.phases.label_input);
    EXPECT_EQ(rec.phase_grid_mapping, s.phases.grid_mapping);
    EXPECT_EQ(rec.phase_lower_bounding, s.phases.lower_bounding);
    EXPECT_EQ(rec.phase_upper_bounding, s.phases.upper_bounding);
    EXPECT_EQ(rec.phase_verification, s.phases.verification);
    EXPECT_EQ(rec.candidates, s.num_candidates);
    EXPECT_EQ(rec.verified, s.num_verified);
    EXPECT_EQ(rec.stopped, s.num_stopped);
    EXPECT_EQ(rec.distance_computations, s.distance_computations);
    EXPECT_EQ(rec.tau_low_max, s.tau_low_max);
    EXPECT_EQ(rec.winner_id, res.best().id);
    EXPECT_EQ(rec.winner_score, res.best().score);
    EXPECT_EQ(rec.grid_reused, s.reused_grid);
    EXPECT_EQ(rec.cells_small, s.cells_small);
    EXPECT_EQ(rec.cells_large, s.cells_large);
    EXPECT_EQ(rec.label_outcome, LabelOutcomeName(s.label_outcome));
    EXPECT_EQ(rec.points_pruned_by_labels, s.points_pruned_by_labels);
    EXPECT_EQ(rec.status, StatusCodeName(res.status.code()));
    EXPECT_EQ(rec.complete, res.complete);
    EXPECT_EQ(rec.degradation_level, s.degradation_level);
    EXPECT_EQ(rec.index_memory_bytes, s.index_memory_bytes);
    EXPECT_GT(rec.peak_memory_bytes, 0u);
    EXPECT_EQ(rec.git, GitDescribe());
    EXPECT_EQ(rec.kernel_tier, KernelTierName(ActiveKernelTier()));
    ASSERT_NE(rec.detail, nullptr);
    EXPECT_EQ(rec.detail->memory.parts.size(), s.memory.parts.size());

    // The two queries exercise both sides of the label and grid fields.
    if (opt.use_labels) {
      EXPECT_EQ(rec.label_outcome, "hit_memory");
      EXPECT_TRUE(rec.grid_reused);
    } else {
      EXPECT_EQ(rec.label_outcome, "off");
      EXPECT_FALSE(rec.grid_reused);
      EXPECT_EQ(rec.threads, 2);
    }

    // The line validates, carries the per-query memory parts, and the
    // new fields read back.
    std::string line = QlogRecordToJsonLine(rec);
    ASSERT_TRUE(ValidateQlogLine(line).ok()) << line;
    EXPECT_NE(line.find("\"parts\":{"), std::string::npos) << line;
    EXPECT_EQ(line.find("\"metrics\""), std::string::npos) << line;
    QlogRecord back;
    ASSERT_TRUE(ParseQlogRecord(line, &back).ok());
    EXPECT_EQ(back.tau_low_max, rec.tau_low_max);
    EXPECT_EQ(back.grid_reused, rec.grid_reused);
    EXPECT_EQ(back.cells_small, rec.cells_small);
    EXPECT_EQ(back.cells_large, rec.cells_large);
    EXPECT_EQ(back.git, rec.git);
    EXPECT_EQ(back.detail, nullptr);
  }
}

// A real query's record, detail sections included, carries per-phase
// time only in "phases": no hardware section, and an env of the git
// describe and the kernel tier alone.
TEST(QlogBuilder, EngineRecordHasNoHardwareSectionOrPmuTier) {
  ObjectSet set = testing::MakeRandomObjects(40, 3, 8, 20.0, 9);
  MioEngine engine(set);
  QueryOptions opt;
  opt.threads = 2;
  QueryResult res = engine.Query(4.5, opt);
  ASSERT_TRUE(res.status.ok()) << res.status.ToString();
  QlogRecord id;
  id.workload = "builder-test";
  id.r = 4.5;
  const QlogRecord rec = BuildQlogRecord(id, &res);
  ASSERT_NE(rec.detail, nullptr);

  const std::string line = QlogRecordToJsonLine(rec);
  ASSERT_TRUE(ValidateQlogLine(line).ok()) << line;
  JsonValue doc;
  ASSERT_TRUE(ParseJson(line, &doc)) << line;
  EXPECT_EQ(doc.Find("hardware"), nullptr) << line;
  ASSERT_NE(doc.Find("phases"), nullptr);
  EXPECT_GT(doc.Find("phases")->GetDouble("total"), 0.0) << line;
  const JsonValue* env = doc.Find("env");
  ASSERT_NE(env, nullptr);
  std::vector<std::string> keys;
  for (const auto& [key, value] : env->members()) keys.push_back(key);
  EXPECT_EQ(keys, (std::vector<std::string>{"git", "kernel_tier"})) << line;
}

// Without an execution of its own (server follower/cached) the record
// keeps zeroed engine fields and writes no detail section; a rejected
// radius gets class 0 instead of an undefined cast.
TEST(QlogBuilder, NoResultAndRejectedRadius) {
  QlogRecord id;
  id.r = 4.5;
  id.threads = 3;
  QlogRecord rec = BuildQlogRecord(id, /*result=*/nullptr);
  EXPECT_EQ(rec.ceil_r, 5);
  EXPECT_EQ(rec.threads, 3);
  EXPECT_EQ(rec.status, "OK");
  EXPECT_TRUE(rec.complete);
  EXPECT_EQ(rec.peak_memory_bytes, 0u);
  EXPECT_EQ(rec.detail, nullptr);
  std::string line = QlogRecordToJsonLine(rec);
  ASSERT_TRUE(ValidateQlogLine(line).ok()) << line;
  for (const char* section : {"\"verify_load_balance\"", "\"parts\"",
                              "\"compression\"", "\"metrics\"",
                              "\"tracker\""}) {
    EXPECT_EQ(line.find(section), std::string::npos) << section;
  }

  ObjectSet set = testing::MakeRandomObjects(5, 2, 4, 10.0, 1);
  MioEngine engine(set);
  for (double r : {3e9, 1e300, -1.0}) {
    QueryResult res = engine.Query(r);
    id.r = r;
    rec = BuildQlogRecord(id, &res);
    EXPECT_EQ(rec.ceil_r, 0) << r;
    EXPECT_EQ(rec.status, "InvalidArgument") << r;
    EXPECT_TRUE(ValidateQlogLine(QlogRecordToJsonLine(rec)).ok()) << r;
  }
}

TEST(QlogValidate, OptionalSectionsMustBeObjects) {
  std::string good = QlogRecordToJsonLine(MakeFullRecord());
  ASSERT_EQ(good.back(), '}');
  for (const char* extra :
       {R"("verify_load_balance":[])", R"("compression":"x")",
        R"("metrics":true)", R"("truncated":"yes")"}) {
    std::string line = good.substr(0, good.size() - 1) + "," + extra + "}";
    EXPECT_FALSE(ValidateQlogLine(line).ok()) << extra;
  }
  for (const char* extra :
       {R"("verify_load_balance":{})", R"("compression":{})",
        R"("metrics":{})", R"("truncated":true)"}) {
    std::string line = good.substr(0, good.size() - 1) + "," + extra + "}";
    EXPECT_TRUE(ValidateQlogLine(line).ok()) << extra;
  }
  // A present grid section must carry its fields.
  std::string broken = good;
  const std::string cells = "\"cells_small\":4321,";
  std::size_t pos = broken.find(cells);
  ASSERT_NE(pos, std::string::npos);
  broken.erase(pos, cells.size());
  EXPECT_FALSE(ValidateQlogLine(broken).ok());
}

TEST(QlogRecord, PhasesTotalIsSumOfPhases) {
  QlogRecord rec = MakeFullRecord();
  std::string line = QlogRecordToJsonLine(rec);
  JsonValue doc;
  ASSERT_TRUE(ParseJson(line, &doc));
  const JsonValue* phases = doc.Find("phases");
  ASSERT_NE(phases, nullptr);
  double expected = rec.phase_label_input + rec.phase_grid_mapping +
                    rec.phase_lower_bounding + rec.phase_upper_bounding +
                    rec.phase_verification;
  EXPECT_DOUBLE_EQ(phases->GetDouble("total"), expected);
}

TEST(QlogValidate, RejectsMalformedInput) {
  EXPECT_FALSE(ValidateQlogLine("").ok());
  EXPECT_FALSE(ValidateQlogLine("not json").ok());
  EXPECT_FALSE(ValidateQlogLine("[1,2,3]").ok());
  EXPECT_FALSE(ValidateQlogLine("{}").ok());
  EXPECT_FALSE(ValidateQlogLine(R"({"schema":"mio-stats-v1"})").ok());
}

TEST(QlogValidate, RejectsMissingOrWrongTypedFields) {
  std::string good = QlogRecordToJsonLine(MakeFullRecord());
  ASSERT_TRUE(ValidateQlogLine(good).ok());

  // Dropping any single required field must fail validation. Fields are
  // located via their serialized "key":value form, with the comma that
  // keeps the rest well-formed, so the schema is what rejects the line.
  // The list is written out by hand, independently of the writer.
  for (const char* needle :
       {"\"schema\":\"mio-qlog-v1\",", "\"query_index\":41,",
        "\"workload\":\"mix-workload\",", "\"dataset\":\"data/birds.bin\",",
        "\"algo\":\"bigrid-label\",", "\"r\":4.25,", "\"ceil_r\":5,",
        "\"k\":3,", "\"threads\":7,", "\"wall_seconds\":0.125,",
        "\"total_seconds\":0.117,", "\"label_input\":0.001,",
        "\"grid_mapping\":0.032,", "\"lower_bounding\":0.008,",
        "\"upper_bounding\":0.046,", "\"verification\":0.03,",
        ",\"total\":0.117", "\"objects\":1200,", "\"candidates\":321,",
        "\"verified\":54,", "\"distance_computations\":987654,",
        "\"reused\":true,", "\"cells_small\":4321,", ",\"cells_large\":765",
        "\"id\":17,", ",\"score\":290", "\"outcome\":\"hit_disk\",",
        ",\"points_pruned\":23456", "\"status\":\"DeadlineExceeded\",",
        "\"complete\":false,", ",\"degradation_level\":2",
        ",\"kernel_tier\":\"avx2\"",
        "\"index_bytes\":123456789,", ",\"peak_bytes\":234567890",
        "\"dropped_spans\":11", "\"request_id\":\"r000041\",",
        "\"role\":\"leader\",", "\"queue_wait_seconds\":0.004,",
        "\"e2e_seconds\":0.131,"}) {
    std::string broken = good;
    std::size_t pos = broken.find(needle);
    ASSERT_NE(pos, std::string::npos) << needle;
    broken.erase(pos, std::string(needle).size());
    ASSERT_TRUE(ValidateJson(broken)) << broken;
    EXPECT_FALSE(ValidateQlogLine(broken).ok()) << "dropped " << needle;
  }
  // So must dropping a required section, or a present batch section's
  // fields.
  for (const char* section : {"params", "phases", "funnel", "winner",
                              "labels", "outcome", "env", "memory",
                              "trace"}) {
    std::string broken = good;
    const std::size_t pos = broken.find("\"" + std::string(section) + "\":{");
    ASSERT_NE(pos, std::string::npos) << section;
    broken.erase(pos, broken.find("},", pos) + 2 - pos);
    ASSERT_TRUE(ValidateJson(broken)) << broken;
    EXPECT_FALSE(ValidateQlogLine(broken).ok()) << "dropped " << section;
  }
  const std::string batched = QlogRecordToJsonLine(MakeBatchedRecord());
  ASSERT_TRUE(ValidateQlogLine(batched).ok());
  for (const char* needle : {"\"id\":3,", ",\"size\":8"}) {
    std::string broken = batched;
    std::size_t pos = broken.find(needle);
    ASSERT_NE(pos, std::string::npos) << needle;
    broken.erase(pos, std::string(needle).size());
    ASSERT_TRUE(ValidateJson(broken)) << broken;
    EXPECT_FALSE(ValidateQlogLine(broken).ok()) << "dropped " << needle;
  }

  // Wrong type: string where a number is required.
  std::string broken = good;
  std::size_t pos = broken.find("\"wall_seconds\":0.125");
  ASSERT_NE(pos, std::string::npos);
  broken.replace(pos, std::string("\"wall_seconds\":0.125").size(),
                 "\"wall_seconds\":\"fast\"");
  EXPECT_FALSE(ValidateQlogLine(broken).ok());

  // A number its unsigned member cannot hold: a uint32 above 2^32 - 1
  // would wrap to 0, a negative uint64 would read as 0.
  for (const auto& [from, to, name] :
       {std::tuple{"\"degradation_level\":2",
                   "\"degradation_level\":4294967296",
                   "outcome.degradation_level"},
        std::tuple{"\"distance_computations\":987654",
                   "\"distance_computations\":-1",
                   "funnel.distance_computations"}}) {
    std::string out_of_range = good;
    const std::size_t at = out_of_range.find(from);
    ASSERT_NE(at, std::string::npos) << from;
    out_of_range.replace(at, std::string(from).size(), to);
    ASSERT_TRUE(ValidateJson(out_of_range)) << out_of_range;
    const Status st = ValidateQlogLine(out_of_range);
    EXPECT_FALSE(st.ok()) << to;
    EXPECT_NE(st.ToString().find(name), std::string::npos) << st.ToString();
  }
}

TEST(QlogValidate, RejectsUnknownLabelOutcome) {
  QlogRecord rec = MakeFullRecord();
  rec.label_outcome = "banana";
  EXPECT_FALSE(ValidateQlogLine(QlogRecordToJsonLine(rec)).ok());
}

// The validator accepts exactly core's outcome names (it parses them
// with ParseLabelOutcome); every enum value must validate.
TEST(QlogValidate, LabelOutcomeNamesMatchCoreEnum) {
  for (LabelOutcome o :
       {LabelOutcome::kOff, LabelOutcome::kHitMemory, LabelOutcome::kHitDisk,
        LabelOutcome::kMissRecorded, LabelOutcome::kMiss}) {
    QlogRecord rec;
    rec.label_outcome = LabelOutcomeName(o);
    EXPECT_TRUE(ValidateQlogLine(QlogRecordToJsonLine(rec)).ok())
        << rec.label_outcome;
  }
}

// The server stamps its roles from kServerRoleNames and the validator
// accepts exactly that list; every role must validate.
TEST(QlogValidate, AcceptsEveryServerRole) {
  for (const char* role : kServerRoleNames) {
    QlogRecord rec;
    rec.server_request_id = "r000001";
    rec.server_role = role;
    EXPECT_TRUE(ValidateQlogLine(QlogRecordToJsonLine(rec)).ok()) << role;
  }
}

TEST(QlogValidate, ServerSectionRejectsBadShapes) {
  QlogRecord rec = MakeFullRecord();
  rec.server_role = "bystander";  // not a server role
  EXPECT_FALSE(ValidateQlogLine(QlogRecordToJsonLine(rec)).ok());

  std::string good = QlogRecordToJsonLine(MakeFullRecord());
  // Server section present but its request_id is empty.
  std::string broken = good;
  std::size_t pos = broken.find("\"request_id\":\"r000041\"");
  ASSERT_NE(pos, std::string::npos);
  broken.replace(pos, std::string("\"request_id\":\"r000041\"").size(),
                 "\"request_id\":\"\"");
  EXPECT_FALSE(ValidateQlogLine(broken).ok());
  // Wrong type on a server latency, a stage, or the stages object.
  for (const auto& [from, to] :
       std::vector<std::pair<std::string, std::string>>{
           {"\"queue_wait_seconds\":0.004", "\"queue_wait_seconds\":\"slow\""},
           {"\"dequeued\":10.006", "\"dequeued\":\"late\""},
           {"\"stages\":{", "\"stages\":[],\"x\":{"}}) {
    broken = good;
    pos = broken.find(from);
    ASSERT_NE(pos, std::string::npos) << from;
    broken.replace(pos, from.size(), to);
    EXPECT_FALSE(ValidateQlogLine(broken).ok()) << broken;
  }
}

// One read rule per JSON type: an optional number, like a required one,
// must be finite when present (a writer cannot emit Inf back).
TEST(QlogValidate, OptionalNumbersMustBeFinite) {
  const std::string good = QlogRecordToJsonLine(MakeFullRecord());
  ASSERT_TRUE(ValidateQlogLine(good).ok());
  for (const char* to : {"\"tau_low_max\":1e999", "\"tau_low_max\":-1e999"}) {
    std::string broken = good;
    const std::string from = "\"tau_low_max\":288";
    const std::size_t pos = broken.find(from);
    ASSERT_NE(pos, std::string::npos);
    broken.replace(pos, from.size(), to);
    EXPECT_FALSE(ValidateQlogLine(broken).ok()) << broken;
  }
}

TEST(QlogValidate, RefusalFieldsMustHaveTheirTypes) {
  const std::string good = QlogRecordToJsonLine(MakeRefusedRecord());
  ASSERT_TRUE(ValidateQlogLine(good).ok()) << good;
  // The reason is a string and the retry hint a finite number: a writer
  // cannot emit Inf, so "1e999" is a corrupt record, not a long backoff.
  for (const auto& [from, to] :
       std::vector<std::pair<std::string, std::string>>{
           {"\"refusal\":\"admission queue full\"", "\"refusal\":7"},
           {"\"retry_after_ms\":75", "\"retry_after_ms\":\"soon\""},
           {"\"retry_after_ms\":75", "\"retry_after_ms\":1e999"},
           {"\"retry_after_ms\":75", "\"retry_after_ms\":null"}}) {
    std::string broken = good;
    std::size_t pos = broken.find(from);
    ASSERT_NE(pos, std::string::npos) << from << " in " << good;
    broken.replace(pos, from.size(), to);
    EXPECT_FALSE(ValidateQlogLine(broken).ok()) << broken;
  }
}

// Forward compatibility: the validator and parser must accept records
// written before the "server" section existed (no section at all) and
// records from a future writer carrying unknown keys — mixing shapes in
// one file is how schema evolution lands without a version bump.
TEST(QlogValidate, MixedOldAndNewShapesCoexist) {
  // Old shape: no server section.
  QlogRecord old_rec;
  old_rec.wall_seconds = 0.25;
  std::string old_line = QlogRecordToJsonLine(old_rec);
  ASSERT_EQ(old_line.find("\"server\""), std::string::npos);
  EXPECT_TRUE(ValidateQlogLine(old_line).ok());

  // New shape with a server section.
  std::string new_line = QlogRecordToJsonLine(MakeFullRecord());
  EXPECT_TRUE(ValidateQlogLine(new_line).ok());

  // Future shape: unknown top-level key, unknown key inside an existing
  // section, and an entire unknown section must all be ignored.
  std::string future = new_line;
  ASSERT_EQ(future.back(), '}');
  future.pop_back();
  future +=
      R"(,"carrier_pigeon":7,"future_section":{"nested":[1,2,3]}})";
  EXPECT_TRUE(ValidateQlogLine(future).ok());
  QlogRecord back;
  ASSERT_TRUE(ParseQlogRecord(future, &back).ok());
  EXPECT_EQ(back.server_request_id, "r000041");

  QlogRecord old_back;
  ASSERT_TRUE(ParseQlogRecord(old_line, &old_back).ok());
  EXPECT_FALSE(old_back.HasServer());
  EXPECT_DOUBLE_EQ(old_back.server_e2e_seconds, 0.0);

  // Records written before params.scale, funnel.tau_low_max,
  // funnel.stopped, the grid section and env.git existed (the committed
  // BENCH files) still validate and read back with defaults. So does a
  // server section without any of its optional keys. The list of
  // optional keys is written out by hand, independently of the writer.
  std::string pre_grid = new_line;
  for (const std::string cut :
       {",\"scale\":\"quick\"", ",\"tau_low_max\":288",
        ",\"stopped\":51",
        "\"git\":\"v1.2-3-gabcdef\",", "\"correlation_id\":\"client-7\",",
        "\"client\":\"c3\",", ",\"refusal\":\"not really\"",
        ",\"retry_after_ms\":12.5",
        ",\"stages\":{\"accepted\":10,\"enqueued\":10.002,"
        "\"dequeued\":10.006,\"executed\":10.123,\"responded\":10.131}"}) {
    std::size_t pos = pre_grid.find(cut);
    ASSERT_NE(pos, std::string::npos) << cut;
    pre_grid.erase(pos, cut.size());
  }
  std::size_t grid = pre_grid.find(",\"grid\":{");
  ASSERT_NE(grid, std::string::npos);
  pre_grid.erase(grid, pre_grid.find('}', grid) - grid + 1);
  QlogRecord pre_back;
  ASSERT_TRUE(ParseQlogRecord(pre_grid, &pre_back).ok()) << pre_grid;
  EXPECT_EQ(pre_back.scale, "");
  EXPECT_EQ(pre_back.tau_low_max, 0u);
  EXPECT_EQ(pre_back.stopped, 0u);
  EXPECT_FALSE(pre_back.grid_reused);
  EXPECT_EQ(pre_back.cells_small, 0u);
  EXPECT_EQ(pre_back.cells_large, 0u);
  EXPECT_EQ(pre_back.git, "");
  EXPECT_EQ(pre_back.winner_id, 17u);
  EXPECT_EQ(pre_back.server_request_id, "r000041");
  EXPECT_EQ(pre_back.server_correlation_id, "");
  EXPECT_EQ(pre_back.server_client, "");
  EXPECT_EQ(pre_back.server_refusal, "");
  EXPECT_EQ(pre_back.server_retry_after_ms, 0.0);
  for (double stage : pre_back.server_stages) EXPECT_LT(stage, 0.0);

  // The truncated marker and the detail sections are optional too.
  QlogRecord detail = MakeDetailRecord();
  detail.truncated = true;
  std::string bare = QlogRecordToJsonLine(detail);
  for (const std::string cut :
       {"\"truncated\":true,",
        ",\"parts\":{\"small_grid\":4096,\"large_grid\":1024}",
        ",\"tracker\":{\"small_grid\":{\"current_bytes\":4096,"
        "\"peak_bytes\":8192},\"labels\":{\"current_bytes\":0,"
        "\"peak_bytes\":512}}"}) {
    std::size_t pos = bare.find(cut);
    ASSERT_NE(pos, std::string::npos) << cut;
    bare.erase(pos, cut.size());
  }
  // verify_load_balance, compression and metrics follow trace.
  const std::string trace = "\"trace\":{\"dropped_spans\":0}";
  std::size_t end = bare.find(trace);
  ASSERT_NE(end, std::string::npos);
  bare.erase(end + trace.size());
  bare += "}";
  QlogRecord bare_back;
  ASSERT_TRUE(ParseQlogRecord(bare, &bare_back).ok()) << bare;
  EXPECT_FALSE(bare_back.truncated);
  EXPECT_EQ(bare_back.query_index, 7u);

  // A report over the mixed population counts only the server records
  // in the server split.
  QlogReport report = BuildQlogReport({old_rec, MakeFullRecord()});
  EXPECT_EQ(report.num_queries, 2u);
  EXPECT_EQ(report.server_requests, 1u);
  EXPECT_EQ(report.server_executed, 1u);
}

// A record written before the PMU tier was deleted, on a hardware-tier
// host: env names the tier and a hardware section holds counts and
// derived rates. It still parses, because readers ignore keys no field
// names, and writing it back drops both keys and changes nothing else.
TEST(QlogValidate, OlderHardwareTierRecordParsesAndWritesBackWithoutIt) {
  const std::string env_tier = R"("pmu_tier":"hardware",)";
  const std::string hardware =
      R"(,"hardware":{"phases":{"grid_mapping":{"cycles":400000)"
      R"(,"instructions":800000,"cache_references":2000,"cache_misses":100)"
      R"(,"branch_misses":40,"task_clock_ns":125000,"ipc":2)"
      R"(,"cache_miss_rate":0.05,"branch_misses_per_ki":0.05})"
      R"(,"total":{"cycles":400000,"instructions":800000)"
      R"(,"cache_references":2000,"cache_misses":100,"branch_misses":40)"
      R"(,"task_clock_ns":125000,"ipc":2,"cache_miss_rate":0.05)"
      R"(,"branch_misses_per_ki":0.05}},"derived":{"cycles_per_point":400)"
      R"(,"cycles_per_candidate":80000}})";
  const std::string older =
      R"({"schema":"mio-qlog-v1","query_index":2,"workload":"profile")"
      R"(,"dataset":"bird.bin","algo":"bigrid","params":{"r":4.5)"
      R"(,"ceil_r":5,"k":1,"threads":1,"scale":"quick"})"
      R"(,"wall_seconds":0.25,"total_seconds":0.1875,"phases")"
      R"(:{"label_input":0,"grid_mapping":0.125,"lower_bounding":0.03125)"
      R"(,"upper_bounding":0.015625,"verification":0.015625)"
      R"(,"total":0.1875},"funnel":{"objects":1000,"candidates":12)"
      R"(,"verified":5,"distance_computations":7000,"tau_low_max":30})"
      R"(,"grid":{"reused":false,"cells_small":900,"cells_large":300})"
      R"(,"winner":{"id":17,"score":31},"labels":{"outcome":"off")"
      R"(,"points_pruned":0},"outcome":{"status":"OK","complete":true)"
      R"(,"degradation_level":0},"env":{"git":"v1.0-5-g1234567",)" +
      env_tier +
      R"("kernel_tier":"avx2"},"memory":{"index_bytes":4096)"
      R"(,"peak_bytes":8192},"trace":{"dropped_spans":0})" +
      hardware + "}";
  QlogRecord back;
  ASSERT_TRUE(ParseQlogRecord(older, &back).ok()) << older;
  EXPECT_EQ(back.kernel_tier, "avx2");
  EXPECT_EQ(back.git, "v1.0-5-g1234567");
  EXPECT_EQ(back.winner_id, 17u);
  EXPECT_DOUBLE_EQ(back.phase_grid_mapping, 0.125);

  std::string expected = older;
  expected.erase(expected.find(env_tier), env_tier.size());
  expected.erase(expected.find(hardware), hardware.size());
  // funnel.stopped, absent from the older record, is written back as 0.
  const std::string verified = R"("verified":5,)";
  expected.insert(expected.find(verified) + verified.size(), R"("stopped":0,)");
  EXPECT_EQ(QlogRecordToJsonLine(back), expected);
}

TEST(QlogReportTest, ServerSplitSeparatesQueueWaitFromExecute) {
  std::vector<QlogRecord> records;
  // Two executed requests (solo + leader), one follower, one cached.
  for (int i = 0; i < 2; ++i) {
    QlogRecord rec;
    rec.server_request_id = i == 0 ? "r000001" : "r000002";
    rec.server_role = i == 0 ? "solo" : "leader";
    rec.server_queue_wait_seconds = 0.010;
    rec.wall_seconds = 0.100;
    rec.server_e2e_seconds = 0.115;
    records.push_back(rec);
  }
  QlogRecord follower;
  follower.server_request_id = "r000003";
  follower.server_role = "follower";
  follower.wall_seconds = 0.116;  // e2e, not an execution
  follower.server_e2e_seconds = 0.116;
  records.push_back(follower);
  QlogRecord cached;
  cached.server_request_id = "r000004";
  cached.server_role = "cached";
  cached.wall_seconds = 0.001;
  cached.server_e2e_seconds = 0.001;
  records.push_back(cached);
  // A refused request is counted but never executed: its 0.1 ms must
  // not pull down any latency summary.
  records.push_back(MakeRefusedRecord());
  // A non-server record must stay out of the split entirely.
  QlogRecord local;
  local.wall_seconds = 0.050;
  records.push_back(local);

  QlogReport report = BuildQlogReport(records);
  EXPECT_EQ(report.num_queries, 6u);
  EXPECT_EQ(report.server_requests, 5u);
  EXPECT_EQ(report.server_executed, 2u);
  EXPECT_EQ(report.server_coalesced, 1u);
  EXPECT_EQ(report.server_cached, 1u);
  EXPECT_EQ(report.server_refused, 1u);
  EXPECT_EQ(report.incomplete, 0u);
  EXPECT_DOUBLE_EQ(report.latency.min, 0.001);  // the cache hit
  ASSERT_FALSE(report.slowest.empty());
  for (const QlogSlowQuery& slow : report.slowest) {
    EXPECT_NE(slow.status, "Overloaded");
  }
  // Queue-wait and execute cover only the executed pair — a follower's
  // or cache hit's e2e wall must not leak into the execute summary.
  EXPECT_DOUBLE_EQ(report.server_queue_wait.max, 0.010);
  EXPECT_DOUBLE_EQ(report.server_queue_wait.sum, 0.020);
  EXPECT_DOUBLE_EQ(report.server_execute.max, 0.100);
  EXPECT_DOUBLE_EQ(report.server_execute.sum, 0.200);
  // E2e covers all four server records.
  EXPECT_DOUBLE_EQ(report.server_e2e.max, 0.116);
  EXPECT_DOUBLE_EQ(report.server_e2e.min, 0.001);

  // Both renderings carry the split.
  std::string json = QlogReportToJson(report);
  EXPECT_NE(json.find("\"server\""), std::string::npos);
  EXPECT_NE(json.find("\"queue_wait\""), std::string::npos);
  EXPECT_NE(json.find("\"refused\":1"), std::string::npos);
  std::string text = FormatQlogReport(report);
  EXPECT_NE(text.find("server: 5 requests (2 executed, 1 coalesced, "
                      "1 cached, 1 refused)"),
            std::string::npos)
      << text;
}

TEST(QlogValidate, LabelHitHelperMatchesNames) {
  QlogRecord rec;
  rec.label_outcome = "hit_memory";
  EXPECT_TRUE(rec.LabelHit());
  rec.label_outcome = "hit_disk";
  EXPECT_TRUE(rec.LabelHit());
  for (const char* miss : {"off", "recorded", "miss"}) {
    rec.label_outcome = miss;
    EXPECT_FALSE(rec.LabelHit()) << miss;
  }
}

// --- JsonValue parser (the read side the qlog is built on) ------------------

TEST(JsonParse, ParsesScalarsAndContainers) {
  JsonValue doc;
  ASSERT_TRUE(ParseJson(
      R"({"i":42,"d":-1.5e2,"s":"hi","b":true,"n":null,"a":[1,"two",false]})",
      &doc));
  ASSERT_TRUE(doc.IsObject());
  EXPECT_DOUBLE_EQ(doc.GetDouble("i"), 42.0);
  EXPECT_EQ(doc.GetUInt("i"), 42u);
  EXPECT_DOUBLE_EQ(doc.GetDouble("d"), -150.0);
  EXPECT_EQ(doc.GetString("s"), "hi");
  EXPECT_TRUE(doc.GetBool("b"));
  ASSERT_NE(doc.Find("n"), nullptr);
  EXPECT_TRUE(doc.Find("n")->IsNull());
  const JsonValue* a = doc.Find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->IsArray());
  ASSERT_EQ(a->elements().size(), 3u);
  EXPECT_DOUBLE_EQ(a->elements()[0].AsDouble(), 1.0);
  EXPECT_EQ(a->elements()[1].AsString(), "two");
  EXPECT_FALSE(a->elements()[2].AsBool(true));
}

TEST(JsonParse, DecodesEscapesAndSurrogatePairs) {
  JsonValue doc;
  ASSERT_TRUE(
      ParseJson(R"({"s":"q\"b\\s\/n\nt\tué pair😀"})", &doc));
  // é = é (2-byte UTF-8), 😀 = 😀 (4-byte via surrogates).
  EXPECT_EQ(doc.GetString("s"), "q\"b\\s/n\nt\tu\xC3\xA9 pair\xF0\x9F\x98\x80");
}

TEST(JsonParse, FallbacksOnAbsentOrWrongType) {
  JsonValue doc;
  ASSERT_TRUE(ParseJson(R"({"s":"text","neg":-3})", &doc));
  EXPECT_DOUBLE_EQ(doc.GetDouble("missing", 7.5), 7.5);
  EXPECT_DOUBLE_EQ(doc.GetDouble("s", 7.5), 7.5);
  EXPECT_EQ(doc.GetUInt("neg", 9), 9u);  // negative cannot be a uint
  EXPECT_EQ(doc.GetString("missing", "fb"), "fb");
  EXPECT_TRUE(doc.GetBool("missing", true));
  EXPECT_EQ(doc.Find("missing"), nullptr);
}

TEST(JsonParse, ReportsErrors) {
  JsonValue doc;
  std::string error;
  EXPECT_FALSE(ParseJson("{\"a\":}", &doc, &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(ParseJson("{\"a\":1} extra", &doc, &error));
}

// --- Writer / loader --------------------------------------------------------

TEST_F(QlogFileTest, WriterAppendsAndLoaderRoundTrips) {
  std::string path = PathFor("run.jsonl");
  QlogWriter writer;
  ASSERT_TRUE(writer.Open(path).ok());
  ASSERT_TRUE(writer.is_open());
  for (std::uint64_t i = 0; i < 5; ++i) {
    QlogRecord rec = MakeFullRecord();
    rec.query_index = i;
    rec.wall_seconds = 0.01 * static_cast<double>(i + 1);
    ASSERT_TRUE(writer.Append(rec).ok());
  }
  EXPECT_EQ(writer.records_written(), 5u);
  ASSERT_TRUE(writer.Close().ok());

  Result<std::vector<QlogRecord>> loaded = LoadQlogFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded.value().size(), 5u);
  for (std::uint64_t i = 0; i < 5; ++i) {
    EXPECT_EQ(loaded.value()[i].query_index, i);
  }
}

TEST_F(QlogFileTest, WriterRefusesInvalidRecord) {
  QlogWriter writer;
  ASSERT_TRUE(writer.Open(PathFor("run.jsonl")).ok());
  QlogRecord rec;
  rec.label_outcome = "not-an-outcome";
  EXPECT_FALSE(writer.Append(rec).ok());
  EXPECT_EQ(writer.records_written(), 0u);
}

TEST_F(QlogFileTest, AppendWithoutOpenFails) {
  QlogWriter writer;
  EXPECT_FALSE(writer.Append(QlogRecord{}).ok());
}

TEST_F(QlogFileTest, LoaderReportsLineNumberOfBadRecord) {
  std::string path = PathFor("bad.jsonl");
  {
    std::ofstream out(path);
    out << QlogRecordToJsonLine(MakeFullRecord()) << "\n";
    out << "{\"schema\":\"mio-qlog-v1\"}\n";  // line 2: missing fields
  }
  Result<std::vector<QlogRecord>> loaded = LoadQlogFile(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find(":2:"), std::string::npos)
      << loaded.status().message();
}

TEST_F(QlogFileTest, LoaderSkipsBlankLinesAndMissingFileFails) {
  std::string path = PathFor("gaps.jsonl");
  {
    std::ofstream out(path);
    out << QlogRecordToJsonLine(MakeFullRecord()) << "\n\n";
    out << QlogRecordToJsonLine(MakeFullRecord()) << "\n";
  }
  Result<std::vector<QlogRecord>> loaded = LoadQlogFile(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().size(), 2u);
  EXPECT_FALSE(LoadQlogFile(PathFor("nope.jsonl")).ok());
}

// scripts/run_benches.sh output starts with a machine-identity line; it
// must not stop `mio qlog diff` from reading the records below it. Only
// the first line may be one.
TEST_F(QlogFileTest, LoaderSkipsABenchHeaderFirstLine) {
  const std::string header =
      R"({"schema":"mio-bench-header-v1","git":"abc","machine":{"cpus":4}})";
  std::string path = PathFor("bench.jsonl");
  {
    std::ofstream out(path);
    out << header << "\n" << QlogRecordToJsonLine(MakeFullRecord()) << "\n";
  }
  Result<std::vector<QlogRecord>> loaded = LoadQlogFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded.value().size(), 1u);
  EXPECT_EQ(loaded.value()[0].query_index, 41u);

  std::string late = PathFor("late.jsonl");
  {
    std::ofstream out(late);
    out << QlogRecordToJsonLine(MakeFullRecord()) << "\n" << header << "\n";
  }
  EXPECT_FALSE(LoadQlogFile(late).ok());
}

// --- Tail sampler -----------------------------------------------------------

TEST(TailSampler, DisabledExportsNothing) {
  TailSampler sampler(TailSamplerConfig{});
  EXPECT_FALSE(sampler.enabled());
  EXPECT_FALSE(sampler.Offer(0, 10.0).export_trace);
  EXPECT_TRUE(sampler.TailIndices().empty());
}

TEST(TailSampler, ThresholdKeepsEveryExceeder) {
  TailSamplerConfig cfg;
  cfg.threshold_seconds = 0.1;
  TailSampler sampler(cfg);
  EXPECT_FALSE(sampler.Offer(0, 0.05).export_trace);
  EXPECT_TRUE(sampler.Offer(1, 0.10).export_trace);  // >= threshold
  EXPECT_TRUE(sampler.Offer(2, 0.50).export_trace);
  EXPECT_FALSE(sampler.Offer(3, 0.09).export_trace);
  EXPECT_EQ(sampler.TailIndices(), (std::vector<std::uint64_t>{1, 2}));
}

TEST(TailSampler, SlowestNEvictsFasterMembers) {
  TailSamplerConfig cfg;
  cfg.slowest_n = 2;
  TailSampler sampler(cfg);
  // Fills: both exported, no evictions.
  EXPECT_TRUE(sampler.Offer(0, 0.3).export_trace);
  EXPECT_TRUE(sampler.Offer(1, 0.1).export_trace);
  // 0.2 displaces 0.1 (index 1).
  TailSampler::Decision d = sampler.Offer(2, 0.2);
  EXPECT_TRUE(d.export_trace);
  EXPECT_EQ(d.evict, (std::vector<std::uint64_t>{1}));
  // Too fast to join: not exported, nothing evicted.
  d = sampler.Offer(3, 0.05);
  EXPECT_FALSE(d.export_trace);
  EXPECT_TRUE(d.evict.empty());
  EXPECT_EQ(sampler.TailIndices(), (std::vector<std::uint64_t>{0, 2}));
}

TEST(TailSampler, TiesKeepTheLaterIndex) {
  TailSamplerConfig cfg;
  cfg.slowest_n = 1;
  TailSampler sampler(cfg);
  EXPECT_TRUE(sampler.Offer(0, 0.2).export_trace);
  TailSampler::Decision d = sampler.Offer(1, 0.2);  // tie: later index wins
  EXPECT_TRUE(d.export_trace);
  EXPECT_EQ(d.evict, (std::vector<std::uint64_t>{0}));
  EXPECT_EQ(sampler.TailIndices(), (std::vector<std::uint64_t>{1}));
}

TEST(TailSampler, ThresholdMembersAreNeverEvicted) {
  TailSamplerConfig cfg;
  cfg.threshold_seconds = 0.1;
  cfg.slowest_n = 1;
  TailSampler sampler(cfg);
  // Exceeds the threshold AND joins slowest-1.
  EXPECT_TRUE(sampler.Offer(0, 0.15).export_trace);
  // Displaces it from slowest-1, but the threshold membership holds: no
  // eviction of its trace file.
  TailSampler::Decision d = sampler.Offer(1, 0.2);
  EXPECT_TRUE(d.export_trace);
  EXPECT_TRUE(d.evict.empty());
  EXPECT_EQ(sampler.TailIndices(), (std::vector<std::uint64_t>{0, 1}));
}

TEST(TailSampler, FinalSetMatchesOfflineRecomputation) {
  // The check scripts recompute the tail set from the qlog; this pins the
  // streaming semantics to the documented offline definition.
  TailSamplerConfig cfg;
  cfg.threshold_seconds = 0.45;
  cfg.slowest_n = 3;
  TailSampler sampler(cfg);
  std::vector<double> wall = {0.12, 0.48, 0.03, 0.2, 0.2,
                              0.46, 0.2,  0.31, 0.02, 0.19};
  for (std::size_t i = 0; i < wall.size(); ++i) {
    (void)sampler.Offer(i, wall[i]);
  }
  // Offline: threshold-exceeders {1, 5} plus slowest-3 by (wall, index)
  // descending = {1 (0.48), 5 (0.46), 7 (0.31)}.
  EXPECT_EQ(sampler.TailIndices(), (std::vector<std::uint64_t>{1, 5, 7}));
}

TEST(TailSampler, TraceFileNameIsZeroPadded) {
  EXPECT_EQ(TailTraceFileName(0), "q000000.trace.json");
  EXPECT_EQ(TailTraceFileName(123), "q000123.trace.json");
  EXPECT_EQ(TailTraceFileName(1234567), "q1234567.trace.json");
}

// --- Report -----------------------------------------------------------------

std::vector<QlogRecord> MakeWorkloadRecords() {
  std::vector<QlogRecord> records;
  // 20 queries over two ceil(r) classes; wall latency i+1 centiseconds.
  for (std::uint64_t i = 0; i < 20; ++i) {
    QlogRecord rec;
    rec.query_index = i;
    rec.r = i % 2 == 0 ? 3.5 : 7.0;
    rec.ceil_r = i % 2 == 0 ? 4 : 7;
    rec.wall_seconds = 0.01 * static_cast<double>(i + 1);
    rec.phase_grid_mapping = 0.004 * static_cast<double>(i + 1);
    rec.phase_verification = 0.006 * static_cast<double>(i + 1);
    rec.label_outcome = i < 2 ? "recorded" : (i % 5 == 0 ? "miss"
                                              : i % 2 == 0 ? "hit_memory"
                                                           : "hit_disk");
    rec.status = i == 19 ? "DeadlineExceeded" : "OK";
    rec.complete = i != 19;
    rec.degradation_level = i == 18 ? 1 : 0;
    records.push_back(std::move(rec));
  }
  return records;
}

TEST(QlogReportTest, LatencyPercentilesMatchSharedHelper) {
  std::vector<QlogRecord> records = MakeWorkloadRecords();
  QlogReport report = BuildQlogReport(records, 3);
  std::vector<double> wall;
  for (const QlogRecord& rec : records) wall.push_back(rec.wall_seconds);
  EXPECT_DOUBLE_EQ(report.latency.p50, Percentile(wall, 0.50));
  EXPECT_DOUBLE_EQ(report.latency.p95, Percentile(wall, 0.95));
  EXPECT_DOUBLE_EQ(report.latency.p99, Percentile(wall, 0.99));
  EXPECT_DOUBLE_EQ(report.latency.min, 0.01);
  EXPECT_DOUBLE_EQ(report.latency.max, 0.20);
  EXPECT_EQ(report.num_queries, 20u);
  EXPECT_EQ(report.incomplete, 1u);
  EXPECT_EQ(report.degraded, 1u);
}

TEST(QlogReportTest, PhaseSharesSumToOne) {
  QlogReport report = BuildQlogReport(MakeWorkloadRecords(), 3);
  ASSERT_EQ(report.phases.size(), 5u);
  double share_sum = 0.0;
  for (const QlogPhaseAggregate& agg : report.phases) {
    share_sum += agg.share;
  }
  EXPECT_NEAR(share_sum, 1.0, 1e-12);
  // grid_mapping : verification totals were built at a 4:6 ratio.
  EXPECT_NEAR(report.phases[1].total_seconds / report.phases[4].total_seconds,
              4.0 / 6.0, 1e-9);
}

TEST(QlogReportTest, LabelReusePerCeilClass) {
  QlogReport report = BuildQlogReport(MakeWorkloadRecords(), 3);
  ASSERT_EQ(report.ceil_classes.size(), 2u);
  EXPECT_EQ(report.ceil_classes[0].ceil_r, 4);
  EXPECT_EQ(report.ceil_classes[1].ceil_r, 7);
  std::uint64_t total = 0, hits = 0, recorded = 0, misses = 0;
  for (const QlogCeilClassStats& cls : report.ceil_classes) {
    total += cls.queries;
    hits += cls.hits;
    recorded += cls.recorded;
    misses += cls.misses;
    EXPECT_GE(cls.HitRate(), 0.0);
    EXPECT_LE(cls.HitRate(), 1.0);
  }
  EXPECT_EQ(total, 20u);
  // i in {0,1} recorded; i in {5,10,15} miss (i=0 already counted as
  // recorded); the rest hit.
  EXPECT_EQ(recorded, 2u);
  EXPECT_EQ(misses, 3u);
  EXPECT_EQ(hits, 15u);
}

TEST(QlogReportTest, SlowestTableIsWallDescending) {
  QlogReport report = BuildQlogReport(MakeWorkloadRecords(), 4);
  ASSERT_EQ(report.slowest.size(), 4u);
  EXPECT_EQ(report.slowest[0].query_index, 19u);
  EXPECT_EQ(report.slowest[0].status, "DeadlineExceeded");
  for (std::size_t i = 1; i < report.slowest.size(); ++i) {
    EXPECT_GE(report.slowest[i - 1].wall_seconds,
              report.slowest[i].wall_seconds);
  }
}

TEST(QlogReportTest, EmptyInputProducesZeroReport) {
  QlogReport report = BuildQlogReport({}, 5);
  EXPECT_EQ(report.num_queries, 0u);
  EXPECT_DOUBLE_EQ(report.latency.p99, 0.0);
  EXPECT_TRUE(report.slowest.empty());
  EXPECT_TRUE(report.ceil_classes.empty());
}

TEST_F(QlogFileTest, ReportJsonIsValidAndResolvesTraceFiles) {
  QlogReport report = BuildQlogReport(MakeWorkloadRecords(), 2);
  // Only q19's trace file exists.
  std::ofstream(PathFor(TailTraceFileName(19))) << "{}";
  std::string doc = QlogReportToJson(report, dir_.string());
  std::string error;
  ASSERT_TRUE(ValidateJson(doc, &error)) << error;
  JsonValue parsed;
  ASSERT_TRUE(ParseJson(doc, &parsed));
  EXPECT_EQ(parsed.GetString("schema"), "mio-qlog-report-v1");
  const JsonValue* slowest = parsed.Find("slowest");
  ASSERT_NE(slowest, nullptr);
  ASSERT_EQ(slowest->elements().size(), 2u);
  EXPECT_FALSE(slowest->elements()[0].GetString("trace_file").empty());
  EXPECT_TRUE(slowest->elements()[1].GetString("trace_file").empty());

  std::string text = FormatQlogReport(report, dir_.string());
  EXPECT_NE(text.find("q19"), std::string::npos);
  EXPECT_NE(text.find(TailTraceFileName(19)), std::string::npos);
}

// --- SLOs -------------------------------------------------------------------

TEST(QlogSlo, CountsViolationsBudgetAndBurnRate) {
  // MakeWorkloadRecords: walls 0.01..0.20s; 5 of 20 exceed 150ms.
  std::vector<QlogRecord> records = MakeWorkloadRecords();
  SloObjective slo;
  slo.latency_ms = 150.0;
  slo.objective = 0.9;  // budget = 2 violations
  std::vector<SloResult> results = EvaluateSlos(records, {slo});
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].queries, 20u);
  EXPECT_EQ(results[0].violations, 5u);
  EXPECT_DOUBLE_EQ(results[0].error_budget, 2.0);
  EXPECT_DOUBLE_EQ(results[0].burn_rate, 2.5);  // (5/20)/0.1
  EXPECT_FALSE(results[0].met);
}

TEST(QlogSlo, CeilRScopesTheObjective) {
  std::vector<QlogRecord> records = MakeWorkloadRecords();
  // ceil_r=4 class: odd walls 0.01,0.03,...,0.19 — 10 queries, all <= 0.19.
  SloObjective scoped;
  scoped.ceil_r = 4;
  scoped.latency_ms = 200.0;
  scoped.objective = 0.95;
  // An objective scoped to a class absent from the run is vacuously met.
  SloObjective absent;
  absent.ceil_r = 99;
  absent.latency_ms = 1.0;
  std::vector<SloResult> results = EvaluateSlos(records, {scoped, absent});
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].queries, 10u);
  EXPECT_EQ(results[0].violations, 0u);
  EXPECT_TRUE(results[0].met);
  EXPECT_DOUBLE_EQ(results[0].burn_rate, 0.0);
  EXPECT_EQ(results[1].queries, 0u);
  EXPECT_TRUE(results[1].met);
}

// A failed request misses its objective however fast it failed: an
// Overloaded refusal and a DeadlineExceeded cut, both well under the
// latency bound, are violations.
TEST(QlogSlo, FailedRequestsAreViolationsHoweverFast) {
  QlogRecord ok;
  ok.wall_seconds = 0.002;
  QlogRecord cut;
  cut.wall_seconds = 0.003;
  cut.status = "DeadlineExceeded";
  cut.complete = false;
  std::vector<QlogRecord> records = {ok, MakeRefusedRecord(), cut};
  SloObjective slo;
  slo.latency_ms = 100.0;
  slo.objective = 0.5;
  std::vector<SloResult> results = EvaluateSlos(records, {slo});
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].queries, 3u);
  EXPECT_EQ(results[0].violations, 2u);
  EXPECT_FALSE(results[0].met);
}

TEST(QlogSlo, FormatMarksMissedObjectives) {
  std::vector<QlogRecord> records = MakeWorkloadRecords();
  SloObjective missed;
  missed.latency_ms = 10.0;  // only the first query fits
  missed.objective = 0.99;
  std::string text = FormatSloReport(EvaluateSlos(records, {missed}));
  EXPECT_NE(text.find("MISSED"), std::string::npos);
}

// --- Fuzzing ----------------------------------------------------------------

// Deterministic mutation fuzzing of mio-qlog-v1 lines, the server section's
// stages, retry hint and refused role included: no input may crash the
// validator or the parser, the two must agree, and every accepted line
// must reach a fixed point after one parse -> serialise pass.
TEST(QlogValidate, FuzzedLinesNeverCrashAndRoundTrip) {
  QlogRecord batched;
  batched.batch_id = 3;
  batched.batch_size = 8;
  batched.label_outcome = "recorded";
  const std::vector<std::string> seeds = {
      QlogRecordToJsonLine(MakeFullRecord()),
      QlogRecordToJsonLine(MakeRefusedRecord()),
      QlogRecordToJsonLine(batched)};
  Pcg32 rng(0x716c6f67 /* "qlog" */, 2);
  std::size_t accepted = 0;
  for (int i = 0; i < 3000; ++i) {
    const std::string line = mio::testing::MutateLine(seeds, rng);
    QlogRecord rec;
    const Status parsed = ParseQlogRecord(line, &rec);
    ASSERT_EQ(ValidateQlogLine(line).ok(), parsed.ok()) << line;
    if (!parsed.ok()) continue;
    ++accepted;
    const std::string once = QlogRecordToJsonLine(rec);
    QlogRecord back;
    ASSERT_TRUE(ParseQlogRecord(once, &back).ok()) << line << "\n" << once;
    ASSERT_EQ(QlogRecordToJsonLine(back), once) << line;
  }
  // The mutations must reach the accepting paths, not only the errors.
  EXPECT_GT(accepted, 100u);
}

// --- Diff -------------------------------------------------------------------

std::vector<QlogRecord> MakeDiffRecords(double latency_scale,
                                        double hit_rate) {
  std::vector<QlogRecord> records;
  for (std::uint64_t i = 0; i < 40; ++i) {
    QlogRecord rec;
    rec.query_index = i;
    rec.ceil_r = i % 2 == 0 ? 4 : 7;
    rec.wall_seconds = latency_scale * 0.01 * static_cast<double>(1 + i % 10);
    rec.phase_grid_mapping = 0.4 * rec.wall_seconds;
    rec.phase_verification = 0.6 * rec.wall_seconds;
    rec.objects = 1000;
    rec.candidates = 100;
    rec.verified = 20;
    rec.label_outcome =
        static_cast<double>(i % 10) < 10.0 * hit_rate ? "hit_memory"
                                                      : "recorded";
    records.push_back(std::move(rec));
  }
  return records;
}

TEST(QlogDiff, IdenticalRunsHaveNoRegressions) {
  std::vector<QlogRecord> base = MakeDiffRecords(1.0, 0.8);
  QlogDiffResult diff = DiffQlogs(base, base);
  EXPECT_FALSE(diff.HasRegression());
  EXPECT_EQ(diff.regressions, 0u);
  EXPECT_EQ(diff.baseline_queries, 40u);
  EXPECT_EQ(diff.candidate_queries, 40u);
  EXPECT_FALSE(diff.entries.empty());
}

TEST(QlogDiff, LatencyRegressionIsFlagged) {
  QlogDiffResult diff =
      DiffQlogs(MakeDiffRecords(1.0, 0.8), MakeDiffRecords(1.5, 0.8));
  EXPECT_TRUE(diff.HasRegression());
  bool p95_flagged = false;
  for (const QlogDiffEntry& e : diff.entries) {
    if (e.metric == "latency.p95") {
      p95_flagged = e.regression;
      EXPECT_NEAR(e.delta, 0.5, 1e-9);
    }
  }
  EXPECT_TRUE(p95_flagged);
}

TEST(QlogDiff, LatencyImprovementIsNotARegression) {
  QlogDiffResult diff =
      DiffQlogs(MakeDiffRecords(1.0, 0.8), MakeDiffRecords(0.5, 0.8));
  for (const QlogDiffEntry& e : diff.entries) {
    EXPECT_FALSE(e.regression) << e.metric;
  }
}

TEST(QlogDiff, TinyBaselinePercentilesAreNotGated) {
  // Baselines below min_seconds carry no relative claim.
  QlogDiffResult diff = DiffQlogs(MakeDiffRecords(0.000001, 0.8),
                                  MakeDiffRecords(0.000005, 0.8));
  for (const QlogDiffEntry& e : diff.entries) {
    if (e.metric.rfind("latency.", 0) == 0) {
      EXPECT_FALSE(e.regression) << e.metric;
    }
  }
}

TEST(QlogDiff, PhaseShareShiftIsFlagged) {
  std::vector<QlogRecord> base = MakeDiffRecords(1.0, 0.8);
  std::vector<QlogRecord> cand = MakeDiffRecords(1.0, 0.8);
  // Same totals, but verification swallows grid_mapping's share.
  for (QlogRecord& rec : cand) {
    rec.phase_verification += rec.phase_grid_mapping * 0.9;
    rec.phase_grid_mapping *= 0.1;
  }
  QlogDiffResult diff = DiffQlogs(base, cand);
  bool flagged = false;
  for (const QlogDiffEntry& e : diff.entries) {
    if (e.metric == "phase_share.verification" && e.regression) flagged = true;
    if (e.metric == "phase_share.grid_mapping") {
      EXPECT_FALSE(e.regression);  // its share *dropped*
    }
  }
  EXPECT_TRUE(flagged);
}

TEST(QlogDiff, FunnelLooseningIsFlagged) {
  std::vector<QlogRecord> base = MakeDiffRecords(1.0, 0.8);
  std::vector<QlogRecord> cand = MakeDiffRecords(1.0, 0.8);
  for (QlogRecord& rec : cand) rec.candidates = 200;  // 2x looser pruning
  QlogDiffResult diff = DiffQlogs(base, cand);
  bool flagged = false;
  for (const QlogDiffEntry& e : diff.entries) {
    if (e.metric == "funnel.candidates_per_object") flagged = e.regression;
  }
  EXPECT_TRUE(flagged);
  EXPECT_TRUE(diff.HasRegression());
}

TEST(QlogDiff, HitRateDropIsFlaggedPerClassAndOverall) {
  QlogDiffResult diff =
      DiffQlogs(MakeDiffRecords(1.0, 0.8), MakeDiffRecords(1.0, 0.5));
  bool overall = false, per_class = false;
  for (const QlogDiffEntry& e : diff.entries) {
    if (e.metric == "labels.hit_rate") overall = e.regression;
    if (e.metric.rfind("labels.hit_rate.ceil_r_", 0) == 0 && e.regression) {
      per_class = true;
    }
  }
  EXPECT_TRUE(overall);
  EXPECT_TRUE(per_class);
}

// Fast refusals in the candidate must neither mask a latency regression
// nor read as a speed-up: they never executed.
TEST(QlogDiff, RefusedRecordsStayOutOfWallPercentiles) {
  std::vector<QlogRecord> base = MakeDiffRecords(1.0, 0.8);
  std::vector<QlogRecord> slower = MakeDiffRecords(1.5, 0.8);
  std::vector<QlogRecord> slower_and_refusing = slower;
  for (int i = 0; i < 120; ++i) {
    slower_and_refusing.push_back(MakeRefusedRecord());
  }
  QlogDiffResult plain = DiffQlogs(base, slower);
  QlogDiffResult mixed = DiffQlogs(base, slower_and_refusing);
  ASSERT_EQ(plain.entries.size(), mixed.entries.size());
  for (std::size_t i = 0; i < plain.entries.size(); ++i) {
    EXPECT_EQ(mixed.entries[i].metric, plain.entries[i].metric);
    EXPECT_DOUBLE_EQ(mixed.entries[i].candidate, plain.entries[i].candidate)
        << mixed.entries[i].metric;
    EXPECT_EQ(mixed.entries[i].regression, plain.entries[i].regression)
        << mixed.entries[i].metric;
  }
  bool p50_flagged = false;
  for (const QlogDiffEntry& e : mixed.entries) {
    if (e.metric == "latency.p50") p50_flagged = e.regression;
  }
  EXPECT_TRUE(p50_flagged);
  EXPECT_EQ(mixed.candidate_queries, slower_and_refusing.size());
}

/// `n` records of one configuration (workload, r), each `wall` seconds.
std::vector<QlogRecord> ConfigRecords(const std::string& workload, double r,
                                      int n, double wall) {
  QlogRecord rec;
  rec.workload = workload;
  rec.r = r;
  rec.wall_seconds = wall;
  return std::vector<QlogRecord>(static_cast<std::size_t>(n), rec);
}

// A slowdown of the fast r = 2 configuration sits below every wall
// percentile of the run, which the r = 9 queries dominate; only that
// configuration's median entry can see it.
TEST(QlogDiff, RegressionConfinedToOneConfigurationIsFlaggedByItsEntry) {
  std::vector<QlogRecord> base = ConfigRecords("w", 9.0, 40, 0.010);
  std::vector<QlogRecord> cand = base;
  for (const QlogRecord& rec : ConfigRecords("w", 2.0, 10, 0.002)) {
    base.push_back(rec);
  }
  for (const QlogRecord& rec : ConfigRecords("w", 2.0, 10, 0.003)) {
    cand.push_back(rec);
  }
  cand.push_back(MakeRefusedRecord());  // never executed: no configuration
  QlogDiffResult diff = DiffQlogs(base, cand);
  EXPECT_EQ(diff.configs_compared, 2u);
  EXPECT_EQ(diff.configs_only_baseline, 0u);
  EXPECT_EQ(diff.configs_only_candidate, 0u);
  std::size_t config_entries = 0;
  for (const QlogDiffEntry& e : diff.entries) {
    if (e.metric == "latency.median[w// r=2 k=1 t=1]") {
      ++config_entries;
      EXPECT_DOUBLE_EQ(e.baseline, 0.002);
      EXPECT_DOUBLE_EQ(e.candidate, 0.003);
      EXPECT_TRUE(e.regression);
    } else if (e.metric == "latency.median[w// r=9 k=1 t=1]") {
      ++config_entries;
      EXPECT_FALSE(e.regression);
    } else {
      EXPECT_FALSE(e.regression) << e.metric;
    }
  }
  EXPECT_EQ(config_entries, 2u);
  EXPECT_EQ(diff.regressions, 1u);
}

TEST(QlogDiff, NoSharedConfigurationComparesNothing) {
  QlogDiffResult diff = DiffQlogs(ConfigRecords("w", 3.0, 5, 0.01),
                                  ConfigRecords("other", 3.0, 5, 0.01));
  EXPECT_EQ(diff.configs_compared, 0u);
  EXPECT_EQ(diff.configs_only_baseline, 1u);
  EXPECT_EQ(diff.configs_only_candidate, 1u);
  for (const QlogDiffEntry& e : diff.entries) {
    EXPECT_EQ(e.metric.rfind("latency.median[", 0), std::string::npos)
        << e.metric;
  }
}

TEST(QlogDiff, JsonIsValidAndCarriesVerdict) {
  QlogDiffResult diff =
      DiffQlogs(MakeDiffRecords(1.0, 0.8), MakeDiffRecords(1.5, 0.8));
  std::string doc = QlogDiffToJson(diff);
  std::string error;
  ASSERT_TRUE(ValidateJson(doc, &error)) << error;
  JsonValue parsed;
  ASSERT_TRUE(ParseJson(doc, &parsed));
  EXPECT_EQ(parsed.GetString("schema"), "mio-qlog-diff-v1");
  EXPECT_EQ(parsed.GetUInt("regressions"), diff.regressions);
  EXPECT_GT(diff.regressions, 0u);
  ASSERT_NE(parsed.Find("entries"), nullptr);
  EXPECT_EQ(parsed.Find("entries")->elements().size(), diff.entries.size());
  EXPECT_EQ(parsed.GetUInt("configs_compared"), 1u);

  std::string text = FormatQlogDiff(diff);
  EXPECT_NE(text.find("REGRESSION"), std::string::npos);
}

}  // namespace
}  // namespace obs
}  // namespace mio
