// The per-query record ("mio-qlog-v1"): one validated JSON line per
// query — wall latency, per-phase seconds, the pruning funnel, the grid
// shape, the label-reuse outcome, the guardrail outcome, and resource
// footprints. It is the only per-query record the repo writes: every
// emitter (`mio run-workload`, `mio serve`, `mio query`/`sweep
// --stats-json`, `mio profile`, the bench harnesses' --json-out, and the
// exit backstop) builds it with BuildQlogRecord and serialises it with
// QlogRecordToJsonLine. Emitters that hold the query's QueryStats add
// the per-query detail sections (hardware counters, verification load
// balance, memory parts, compression); one-shot emitters that reset the
// metrics registry around their run add the registry snapshot too.
//
// The same header also holds the tail-based trace sampler: tracing stays
// armed for every query, but the Chrome trace is only kept for queries
// exceeding a latency threshold or landing in the slowest-N, so the
// outliers that matter stay fully explainable while a 10k-query workload
// does not write 10k trace files.
//
// `mio qlog report` aggregates qlogs (p50/p95/p99 latency via the shared
// R-7 percentile helpers, per-phase aggregates, label hit rate per
// ceil(r) class, slowest-N pointers) and `mio qlog diff` compares two.
#pragma once

#include <array>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/memory_tracker.hpp"
#include "common/status.hpp"
#include "core/query_result.hpp"
#include "obs/metrics.hpp"

namespace mio {
namespace obs {

/// The server request stages, in lifecycle order — the keys of a server
/// record's "stages" object.
inline constexpr const char* kServerStageNames[] = {
    "accepted", "enqueued", "dequeued", "executed", "responded"};

/// One query's log record. String enums (`label_outcome`, `status`) are
/// carried as their canonical short names (LabelOutcomeName /
/// StatusCodeName) so the record round-trips through its JSON line.
struct QlogRecord {
  // Identity.
  std::uint64_t query_index = 0;  ///< position in the run, 0-based
  std::string workload;           ///< spec name, "serve", bench or tool name
  std::string dataset;
  std::string algo;               ///< "bigrid" / "bigrid-label" / baseline
  double r = 0.0;
  int ceil_r = 0;                 ///< the label-reuse equivalence class
  std::uint64_t k = 1;
  int threads = 1;
  std::string scale;              ///< preset scale; "" omits params.scale

  // Timing. `wall_seconds` is the harness-side clock around the query;
  // `total_seconds` the engine-side clock (phases + glue).
  double wall_seconds = 0.0;
  double total_seconds = 0.0;
  double phase_label_input = 0.0;
  double phase_grid_mapping = 0.0;
  double phase_lower_bounding = 0.0;
  double phase_upper_bounding = 0.0;
  double phase_verification = 0.0;

  // Pruning funnel (objects -> upper-bound survivors -> verified).
  std::uint64_t objects = 0;
  std::uint64_t candidates = 0;
  std::uint64_t verified = 0;
  std::uint64_t distance_computations = 0;
  std::uint64_t winner_id = 0;
  std::uint64_t winner_score = 0;
  std::uint64_t tau_low_max = 0;  ///< best lower bound found

  // Grid shape: small/large cell counts, and whether the large grid came
  // from the engine's grid cache (reuse_grid).
  bool grid_reused = false;
  std::uint64_t cells_small = 0;
  std::uint64_t cells_large = 0;

  // Label reuse (LabelOutcomeName: off / hit_memory / hit_disk /
  // recorded / miss).
  std::string label_outcome = "off";
  std::uint64_t points_pruned_by_labels = 0;

  // Guardrail outcome (StatusCodeName).
  std::string status = "OK";
  bool complete = true;
  std::uint32_t degradation_level = 0;

  // Environment and resources.
  std::string git;  ///< GitDescribe() of the emitting binary
  std::string pmu_tier;
  std::string kernel_tier;
  std::uint64_t index_memory_bytes = 0;
  std::uint64_t peak_memory_bytes = 0;
  std::uint64_t trace_dropped_spans = 0;

  // Batch execution (`mio run-workload --batch`). batch_size == 0 means
  // the query ran sequentially and the optional "batch" section is
  // omitted from the JSON line; a batched query carries its batch's id
  // and total member count so reports can split the two populations.
  std::uint64_t batch_id = 0;
  std::uint64_t batch_size = 0;

  // Server request lifecycle (`mio serve`). An empty server_request_id
  // means the query did not run through the server and the optional
  // "server" section is omitted from the JSON line. The role strings are
  // the request outcomes: "solo" / "leader" (actually executed),
  // "follower" (result shared from an identical in-flight query),
  // "cached" (served from the result cache), "refused" (turned away by
  // admission: outcome Overloaded, with the reason and a retry hint).
  // Follower, cached and refused records carry zeroed engine stats —
  // their wall_seconds is the client-visible end-to-end time, not an
  // execution. An admission shed raises degradation_level to its step.
  std::string server_request_id;      ///< "r000042"
  std::string server_correlation_id;  ///< client-supplied request `id`
  std::string server_client;          ///< connection id ("c3")
  std::string server_role;            ///< solo/leader/follower/cached/refused
  double server_queue_wait_seconds = 0.0;  ///< enqueued -> dequeued
  double server_e2e_seconds = 0.0;         ///< accepted -> responded
  std::string server_refusal;              ///< refusal reason ("" = none)
  double server_retry_after_ms = 0.0;      ///< refusal backoff hint
  /// Stage timestamps in kServerStageNames order: seconds since server
  /// start, negative for a stage the request never reached (omitted
  /// from the "stages" object).
  std::array<double, 5> server_stages = {-1.0, -1.0, -1.0, -1.0, -1.0};

  /// Set only on the exit backstop's record: the run was interrupted
  /// before it wrote its real record (adds a top-level "truncated").
  bool truncated = false;

  // Per-query detail sections, written when present and never parsed
  // back (readers ignore them). `detail` is the query's own QueryStats:
  // "hardware", "verify_load_balance", "memory.parts" and "compression"
  // come from it, each only when non-empty. `metrics` adds the registry
  // snapshot ("metrics") and the tracker's per-tag current/peak bytes
  // ("memory.tracker"), captured with it. Held by pointer so records
  // loaded by the readers stay small.
  std::shared_ptr<const QueryStats> detail;
  std::shared_ptr<const MetricsSnapshot> metrics;
  std::vector<MemoryTracker::Entry> tracker;

  /// True when the query ran as a QueryBatch member.
  bool Batched() const { return batch_size > 0; }

  /// True when the record came from a `mio serve` request.
  bool HasServer() const { return !server_request_id.empty(); }

  /// True for server records whose engine stats are real (solo/leader);
  /// follower, cached and refused records never touched the engine.
  bool ServerExecuted() const {
    return server_role == "solo" || server_role == "leader";
  }

  /// True for a request admission turned away: it never executed, so
  /// latency statistics leave it out (SLOs count it as a violation).
  bool ServerRefused() const { return server_role == "refused"; }

  /// True when the label lookup reused an existing set (memory or disk).
  bool LabelHit() const {
    return label_outcome == "hit_memory" || label_outcome == "hit_disk";
  }
};

/// The one record builder. `identity` carries who ran the query and
/// with what parameters (query_index, workload, dataset, algo, r, k,
/// threads, scale, objects, wall_seconds, and any batch/server fields);
/// the builder keeps those and fills the rest from `result` and the
/// environment (git, kernel and PMU tiers, the tracker's peak bytes).
/// `ceil_r` is derived from r and is 0 for a radius the engine rejects.
///
/// `result` null means the request was answered without an execution of
/// its own (a server follower or cache hit): engine fields stay zeroed,
/// the outcome is OK/complete, and no detail section is written.
/// Otherwise params.threads is the team the engine resolved
/// (QueryStats::threads) and the record carries the stats as `detail`.
/// `metrics` (one-shot emitters, which reset the registry around their
/// run) adds the metrics and memory.tracker sections.
QlogRecord BuildQlogRecord(QlogRecord identity, const QueryResult* result,
                           const MetricsSnapshot* metrics = nullptr);

/// Serialises one record as a single "mio-qlog-v1" JSON line (no
/// trailing newline). The output always passes ValidateQlogLine.
std::string QlogRecordToJsonLine(const QlogRecord& rec);

/// Schema check of one JSONL line: well-formed JSON, `"schema":
/// "mio-qlog-v1"`, every required section and field present with the
/// right type, enum strings from their canonical sets, and each optional
/// section an object when present.
Status ValidateQlogLine(std::string_view line);

/// Parses (and validates) one line back into a record.
Status ParseQlogRecord(std::string_view line, QlogRecord* out);

/// Reads a whole qlog file, validating every line; the line number is
/// included in any error. Blank lines are skipped, and so is a leading
/// "mio-bench-header-v1" line (scripts/run_benches.sh output).
Result<std::vector<QlogRecord>> LoadQlogFile(const std::string& path);

/// Append-oriented qlog file writer: one validated JSONL line per
/// Append(), flushed per record so a killed workload keeps every
/// completed query. "-" writes to stdout.
class QlogWriter {
 public:
  QlogWriter() = default;
  ~QlogWriter();
  QlogWriter(const QlogWriter&) = delete;
  QlogWriter& operator=(const QlogWriter&) = delete;

  /// Opens `path` (truncating, or appending with `append` — each bench
  /// harness run appends its records to one --json-out file).
  Status Open(const std::string& path, bool append = false);

  Status Append(const QlogRecord& rec);

  /// Flushes and closes; returns the first deferred write error.
  Status Close();

  bool is_open() const { return file_ != nullptr; }
  std::size_t records_written() const { return records_; }

 private:
  std::FILE* file_ = nullptr;
  bool owns_file_ = false;  ///< false for "-" (stdout)
  std::size_t records_ = 0;
};

/// Tail-sampling policy: which queries keep their trace file.
struct TailSamplerConfig {
  /// Queries with wall latency >= this are tail, permanently (0 = off).
  double threshold_seconds = 0.0;
  /// The slowest N queries of the whole workload are tail; membership is
  /// provisional — a faster query is evicted when a slower one arrives
  /// (0 = off).
  std::size_t slowest_n = 0;

  bool enabled() const { return threshold_seconds > 0.0 || slowest_n > 0; }
};

/// Streaming decision-maker over per-query latencies. Offer() is called
/// once per query in workload order; the final tail set is exactly
///   {i : wall_i >= threshold}  ∪  slowest-N by (wall, index)
/// with ties broken toward the later index (deterministic — the check
/// scripts recompute the same set from the qlog).
class TailSampler {
 public:
  explicit TailSampler(TailSamplerConfig cfg) : cfg_(cfg) {}

  struct Decision {
    /// Export this query's trace now.
    bool export_trace = false;
    /// Previously-exported queries that just fell out of the slowest-N
    /// set: their trace files should be deleted.
    std::vector<std::uint64_t> evict;
  };

  Decision Offer(std::uint64_t index, double wall_seconds);

  bool enabled() const { return cfg_.enabled(); }

  /// Current tail set (sorted by index); final after the last Offer().
  std::vector<std::uint64_t> TailIndices() const;

 private:
  TailSamplerConfig cfg_;
  /// Current slowest-N members, ordered by (seconds, index) ascending —
  /// begin() is the next eviction candidate.
  std::set<std::pair<double, std::uint64_t>> slowest_;
  /// Threshold-exceeders: never evicted.
  std::unordered_set<std::uint64_t> permanent_;
};

/// Conventional trace-file name for a workload query, used by the
/// runner, the report, and the check scripts alike: "q000123.trace.json".
std::string TailTraceFileName(std::uint64_t query_index);

// --- Aggregation (`mio qlog report`) ---------------------------------------

/// Latency/seconds summary over one field of the records (R-7
/// percentiles).
struct QlogLatencySummary {
  double min = 0.0;
  double max = 0.0;
  double mean = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  double sum = 0.0;
};

/// Per-phase aggregate: total seconds across the workload and the share
/// of the summed phase time.
struct QlogPhaseAggregate {
  std::string name;
  double total_seconds = 0.0;
  double share = 0.0;     ///< of the summed phase totals
  double p50 = 0.0;       ///< per-query median
  double p99 = 0.0;
};

/// Label-reuse effectiveness within one ceil(r) equivalence class.
struct QlogCeilClassStats {
  int ceil_r = 0;
  std::uint64_t queries = 0;
  std::uint64_t hits = 0;      ///< hit_memory + hit_disk
  std::uint64_t recorded = 0;  ///< misses that recorded a fresh set
  std::uint64_t misses = 0;    ///< misses with nothing recorded
  double HitRate() const {
    return queries > 0 ? static_cast<double>(hits) /
                             static_cast<double>(queries)
                       : 0.0;
  }
};

/// One slowest-N entry with enough identity to find the query again.
struct QlogSlowQuery {
  std::uint64_t query_index = 0;
  double wall_seconds = 0.0;
  double r = 0.0;
  std::string status;
  std::string label_outcome;
};

struct QlogReport {
  std::size_t num_queries = 0;
  std::size_t incomplete = 0;
  std::size_t degraded = 0;
  /// Over the wall_seconds of every record except refused server
  /// requests, which never executed; the phase, label-class and slowest
  /// tables skip them too.
  QlogLatencySummary latency;
  std::vector<QlogPhaseAggregate> phases;
  std::vector<QlogCeilClassStats> ceil_classes;  ///< sorted by ceil_r
  std::vector<QlogSlowQuery> slowest;     ///< wall-descending, max N

  // Batched vs. sequential split (records with/without a "batch"
  // section). The per-population latency summaries are only meaningful
  // when the respective count is non-zero.
  std::size_t batched_queries = 0;
  QlogLatencySummary batched_latency;
  QlogLatencySummary sequential_latency;

  // Server split (records with a "server" section): how the requests
  // resolved and where their time went. queue-wait and execute
  // summaries cover only the actually-executed (solo/leader) requests;
  // the e2e summary covers every answered (not refused) request, so
  // coalesce and cache wins show up as the gap between execute and e2e
  // percentiles.
  std::size_t server_requests = 0;
  std::size_t server_executed = 0;   ///< role solo or leader
  std::size_t server_coalesced = 0;  ///< role follower
  std::size_t server_cached = 0;     ///< role cached
  std::size_t server_refused = 0;    ///< role refused
  QlogLatencySummary server_queue_wait;  ///< over executed requests
  QlogLatencySummary server_execute;     ///< wall_seconds over executed
  QlogLatencySummary server_e2e;         ///< over answered requests
};

/// Aggregates records (any order) into a report; `slowest_n` bounds the
/// slowest-queries table.
QlogReport BuildQlogReport(const std::vector<QlogRecord>& records,
                           std::size_t slowest_n = 5);

/// The machine-readable report ("mio-qlog-report-v1"). `trace_dir`
/// (optional) resolves slowest-N entries to existing trace files.
std::string QlogReportToJson(const QlogReport& report,
                             const std::string& trace_dir = "");

/// The human-readable report. Same trace_dir convention.
std::string FormatQlogReport(const QlogReport& report,
                             const std::string& trace_dir = "");

// --- SLOs (`mio qlog report --slo`) -----------------------------------------

/// One latency objective from the workload spec's `slo` directive:
/// at least `objective` of the in-scope queries must succeed within
/// `latency_ms` of wall time. `ceil_r == 0` scopes the objective to
/// every query; a positive value to that ⌈r⌉ class only.
struct SloObjective {
  int ceil_r = 0;
  double latency_ms = 0.0;
  double objective = 0.95;  ///< required fraction, in (0, 1)
};

/// Evaluation of one objective over a qlog. The error budget is the
/// number of violations the objective tolerates ((1-objective)*queries);
/// the burn rate is how fast the run consumed it — 1.0 means exactly
/// on budget, above 1.0 the objective is missed.
struct SloResult {
  SloObjective slo;
  std::uint64_t queries = 0;     ///< in-scope queries
  std::uint64_t violations = 0;  ///< status not OK, or wall > latency_ms
  double error_budget = 0.0;
  double burn_rate = 0.0;
  bool met = true;  ///< violations <= error_budget (vacuous when no queries)
};

std::vector<SloResult> EvaluateSlos(const std::vector<QlogRecord>& records,
                                    const std::vector<SloObjective>& slos);

/// Human-readable SLO table (one line per objective).
std::string FormatSloReport(const std::vector<SloResult>& results);

// --- Regression diff (`mio qlog diff`) --------------------------------------

struct QlogDiffOptions {
  /// Relative increase counted as a regression in the wall p50/p95/p99
  /// and in each shared configuration's median wall. A value whose
  /// baseline is under 1e-4 s is reported but not gated: a relative
  /// claim on a near-zero baseline is pure noise. The phase-share (0.10
  /// absolute), funnel (0.25 relative) and label hit-rate (0.10 absolute
  /// drop) gates are fixed.
  double latency_threshold = 0.10;
};

/// One compared metric. `delta` is relative ((cand-base)/base) when
/// `relative`, else absolute (cand-base); `regression` means the delta
/// crossed the metric's threshold in the bad direction.
struct QlogDiffEntry {
  std::string metric;
  double baseline = 0.0;
  double candidate = 0.0;
  double delta = 0.0;
  double threshold = 0.0;
  bool relative = true;
  bool regression = false;
};

struct QlogDiffResult {
  std::size_t baseline_queries = 0;
  std::size_t candidate_queries = 0;
  /// Configurations (workload, dataset, algo, r, k, threads, scale) of
  /// the non-refused records: in both runs, or in only one of them.
  std::size_t configs_compared = 0;
  std::size_t configs_only_baseline = 0;
  std::size_t configs_only_candidate = 0;
  std::vector<QlogDiffEntry> entries;
  std::size_t regressions = 0;
  bool HasRegression() const { return regressions > 0; }
};

/// Compares two qlogs metric by metric: wall latency p50/p95/p99,
/// per-phase shares, pruning-funnel shape, label hit rate (overall and
/// per ceil(r) class present in both runs), and the median wall of every
/// configuration present in both runs ("latency.median[KEY]").
QlogDiffResult DiffQlogs(const std::vector<QlogRecord>& baseline,
                         const std::vector<QlogRecord>& candidate,
                         const QlogDiffOptions& opts = QlogDiffOptions{});

/// Human-readable diff table; regressions are marked "REGRESSION".
std::string FormatQlogDiff(const QlogDiffResult& diff);

/// Machine-readable diff ("mio-qlog-diff-v1").
std::string QlogDiffToJson(const QlogDiffResult& diff);

}  // namespace obs
}  // namespace mio
