#include "obs/qlog.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>

#include "geo/kernels.hpp"
#include "obs/json.hpp"
#include "obs/perf_counters.hpp"
#include "obs/stats_sink.hpp"

namespace mio {
namespace obs {

namespace {

constexpr const char* kQlogSchema = "mio-qlog-v1";

/// Canonical server role names. Kept in sync with the kRole* constants
/// in server/request_context.hpp (the obs layer cannot include server
/// headers); a test asserts the two lists match.
constexpr const char* kServerRoles[] = {"solo", "leader", "follower",
                                        "cached", "refused"};

bool IsServerRole(const std::string& name) {
  for (const char* r : kServerRoles) {
    if (name == r) return true;
  }
  return false;
}

/// The five phase names, in pipeline order — shared by the writer, the
/// validator, and the report.
constexpr const char* kPhaseNames[] = {"label_input", "grid_mapping",
                                       "lower_bounding", "upper_bounding",
                                       "verification"};

double* PhaseField(QlogRecord* rec, std::size_t i) {
  double* fields[] = {&rec->phase_label_input, &rec->phase_grid_mapping,
                      &rec->phase_lower_bounding, &rec->phase_upper_bounding,
                      &rec->phase_verification};
  return fields[i];
}

const double* PhaseField(const QlogRecord* rec, std::size_t i) {
  return PhaseField(const_cast<QlogRecord*>(rec), i);
}

// --- Validation helpers ------------------------------------------------------

Status Missing(const char* section, const char* field) {
  return Status::InvalidArgument(std::string("qlog: missing or wrong-typed ") +
                                 section + "." + field);
}

/// A number the writer can emit back: JSON has no Inf, and "1e999"
/// parses to one.
bool IsFiniteNumber(const JsonValue* v) {
  return v != nullptr && v->IsNumber() && std::isfinite(v->AsDouble());
}

Status RequireNumber(const JsonValue& obj, const char* section,
                     const char* field) {
  if (!IsFiniteNumber(obj.Find(field))) return Missing(section, field);
  return Status::OK();
}

/// An int field, clamped to int's range so a parsed record always
/// serialises to the value it holds.
int ReadInt(const JsonValue& obj, const char* field, int fallback) {
  const double v = obj.GetDouble(field, fallback);
  return static_cast<int>(
      std::clamp(v, double{std::numeric_limits<int>::min()},
                 double{std::numeric_limits<int>::max()}));
}

Status RequireString(const JsonValue& obj, const char* section,
                     const char* field) {
  const JsonValue* v = obj.Find(field);
  if (v == nullptr || !v->IsString()) return Missing(section, field);
  return Status::OK();
}

Status RequireBool(const JsonValue& obj, const char* section,
                   const char* field) {
  const JsonValue* v = obj.Find(field);
  if (v == nullptr || !v->IsBool()) return Missing(section, field);
  return Status::OK();
}

/// An optional field: absent is fine, present must pass `is_type`.
Status OptionalTyped(const JsonValue& obj, const char* section,
                     const char* field, bool (JsonValue::*is_type)() const) {
  const JsonValue* v = obj.Find(field);
  if (v != nullptr && !(v->*is_type)()) return Missing(section, field);
  return Status::OK();
}

Result<const JsonValue*> RequireObject(const JsonValue& root,
                                       const char* field) {
  const JsonValue* v = root.Find(field);
  if (v == nullptr || !v->IsObject()) {
    return Status::InvalidArgument(
        std::string("qlog: missing or wrong-typed section ") + field);
  }
  return v;
}

/// Full structural check of a parsed qlog document. Shared by
/// ValidateQlogLine and ParseQlogRecord so a record can never parse
/// without also validating.
Status CheckQlogDocument(const JsonValue& doc) {
  if (!doc.IsObject()) {
    return Status::InvalidArgument("qlog: record is not a JSON object");
  }
  const JsonValue* schema = doc.Find("schema");
  if (schema == nullptr || !schema->IsString() ||
      schema->AsString() != kQlogSchema) {
    return Status::InvalidArgument(std::string("qlog: schema is not ") +
                                   kQlogSchema);
  }
  MIO_RETURN_NOT_OK(RequireNumber(doc, "", "query_index"));
  MIO_RETURN_NOT_OK(RequireString(doc, "", "workload"));
  MIO_RETURN_NOT_OK(RequireString(doc, "", "dataset"));
  MIO_RETURN_NOT_OK(RequireString(doc, "", "algo"));
  MIO_RETURN_NOT_OK(RequireNumber(doc, "", "wall_seconds"));
  MIO_RETURN_NOT_OK(RequireNumber(doc, "", "total_seconds"));

  Result<const JsonValue*> params = RequireObject(doc, "params");
  MIO_RETURN_NOT_OK(params.status());
  for (const char* f : {"r", "ceil_r", "k", "threads"}) {
    MIO_RETURN_NOT_OK(RequireNumber(*params.value(), "params", f));
  }

  Result<const JsonValue*> phases = RequireObject(doc, "phases");
  MIO_RETURN_NOT_OK(phases.status());
  for (const char* f : kPhaseNames) {
    MIO_RETURN_NOT_OK(RequireNumber(*phases.value(), "phases", f));
  }
  MIO_RETURN_NOT_OK(RequireNumber(*phases.value(), "phases", "total"));

  Result<const JsonValue*> funnel = RequireObject(doc, "funnel");
  MIO_RETURN_NOT_OK(funnel.status());
  for (const char* f :
       {"objects", "candidates", "verified", "distance_computations"}) {
    MIO_RETURN_NOT_OK(RequireNumber(*funnel.value(), "funnel", f));
  }

  Result<const JsonValue*> winner = RequireObject(doc, "winner");
  MIO_RETURN_NOT_OK(winner.status());
  MIO_RETURN_NOT_OK(RequireNumber(*winner.value(), "winner", "id"));
  MIO_RETURN_NOT_OK(RequireNumber(*winner.value(), "winner", "score"));

  Result<const JsonValue*> labels = RequireObject(doc, "labels");
  MIO_RETURN_NOT_OK(labels.status());
  MIO_RETURN_NOT_OK(RequireString(*labels.value(), "labels", "outcome"));
  MIO_RETURN_NOT_OK(RequireNumber(*labels.value(), "labels", "points_pruned"));
  LabelOutcome label_outcome = LabelOutcome::kOff;
  if (!ParseLabelOutcome(labels.value()->GetString("outcome"),
                         &label_outcome)) {
    return Status::InvalidArgument("qlog: unknown labels.outcome \"" +
                                   labels.value()->GetString("outcome") + "\"");
  }

  Result<const JsonValue*> outcome = RequireObject(doc, "outcome");
  MIO_RETURN_NOT_OK(outcome.status());
  MIO_RETURN_NOT_OK(RequireString(*outcome.value(), "outcome", "status"));
  MIO_RETURN_NOT_OK(RequireBool(*outcome.value(), "outcome", "complete"));
  MIO_RETURN_NOT_OK(
      RequireNumber(*outcome.value(), "outcome", "degradation_level"));
  if (outcome.value()->GetString("status").empty()) {
    return Status::InvalidArgument("qlog: empty outcome.status");
  }

  Result<const JsonValue*> env = RequireObject(doc, "env");
  MIO_RETURN_NOT_OK(env.status());
  MIO_RETURN_NOT_OK(RequireString(*env.value(), "env", "pmu_tier"));
  MIO_RETURN_NOT_OK(RequireString(*env.value(), "env", "kernel_tier"));

  Result<const JsonValue*> memory = RequireObject(doc, "memory");
  MIO_RETURN_NOT_OK(memory.status());
  MIO_RETURN_NOT_OK(RequireNumber(*memory.value(), "memory", "index_bytes"));
  MIO_RETURN_NOT_OK(RequireNumber(*memory.value(), "memory", "peak_bytes"));

  Result<const JsonValue*> trace = RequireObject(doc, "trace");
  MIO_RETURN_NOT_OK(trace.status());
  MIO_RETURN_NOT_OK(RequireNumber(*trace.value(), "trace", "dropped_spans"));

  // Fields and sections added after the first records were written are
  // optional, so older qlogs (e.g. the committed BENCH files) stay
  // readable, but each must have its type when present.
  MIO_RETURN_NOT_OK(OptionalTyped(*params.value(), "params", "scale",
                                  &JsonValue::IsString));
  MIO_RETURN_NOT_OK(OptionalTyped(*funnel.value(), "funnel", "tau_low_max",
                                  &JsonValue::IsNumber));
  MIO_RETURN_NOT_OK(
      OptionalTyped(*env.value(), "env", "git", &JsonValue::IsString));
  MIO_RETURN_NOT_OK(OptionalTyped(doc, "", "truncated", &JsonValue::IsBool));
  for (const char* f : {"parts", "tracker"}) {
    MIO_RETURN_NOT_OK(
        OptionalTyped(*memory.value(), "memory", f, &JsonValue::IsObject));
  }
  for (const char* f : {"grid", "hardware", "verify_load_balance",
                        "compression", "metrics"}) {
    MIO_RETURN_NOT_OK(OptionalTyped(doc, "", f, &JsonValue::IsObject));
  }
  if (const JsonValue* grid = doc.Find("grid")) {
    MIO_RETURN_NOT_OK(RequireBool(*grid, "grid", "reused"));
    MIO_RETURN_NOT_OK(RequireNumber(*grid, "grid", "cells_small"));
    MIO_RETURN_NOT_OK(RequireNumber(*grid, "grid", "cells_large"));
  }

  // The "batch" section is optional (absent on sequential queries) but
  // must be well-formed when present.
  const JsonValue* batch = doc.Find("batch");
  if (batch != nullptr) {
    if (!batch->IsObject()) {
      return Status::InvalidArgument("qlog: wrong-typed section batch");
    }
    MIO_RETURN_NOT_OK(RequireNumber(*batch, "batch", "id"));
    MIO_RETURN_NOT_OK(RequireNumber(*batch, "batch", "size"));
  }

  // Likewise the "server" section (absent outside `mio serve`). Note
  // that unknown top-level keys and sections are deliberately *ignored*
  // throughout this function — that forward-compat contract is how a
  // qlog written by a newer mio stays readable by an older reader, and
  // how "server" itself arrived without a schema bump.
  const JsonValue* server = doc.Find("server");
  if (server != nullptr) {
    if (!server->IsObject()) {
      return Status::InvalidArgument("qlog: wrong-typed section server");
    }
    MIO_RETURN_NOT_OK(RequireString(*server, "server", "request_id"));
    if (server->GetString("request_id").empty()) {
      return Status::InvalidArgument("qlog: empty server.request_id");
    }
    MIO_RETURN_NOT_OK(RequireString(*server, "server", "role"));
    if (!IsServerRole(server->GetString("role"))) {
      return Status::InvalidArgument("qlog: unknown server.role \"" +
                                     server->GetString("role") + "\"");
    }
    MIO_RETURN_NOT_OK(
        RequireNumber(*server, "server", "queue_wait_seconds"));
    MIO_RETURN_NOT_OK(RequireNumber(*server, "server", "e2e_seconds"));
    // The rest is optional but must have its type when present.
    for (const char* f : {"correlation_id", "client", "refusal"}) {
      MIO_RETURN_NOT_OK(
          OptionalTyped(*server, "server", f, &JsonValue::IsString));
    }
    if (server->Find("retry_after_ms") != nullptr) {
      MIO_RETURN_NOT_OK(RequireNumber(*server, "server", "retry_after_ms"));
    }
    if (const JsonValue* stages = server->Find("stages")) {
      if (!stages->IsObject()) return Missing("server", "stages");
      for (const char* f : kServerStageNames) {
        if (stages->Find(f) != nullptr) {
          MIO_RETURN_NOT_OK(RequireNumber(*stages, "server.stages", f));
        }
      }
    }
  }
  return Status::OK();
}

/// Sum of per-tag peaks from the process-wide tracker — an upper-bound
/// style footprint (tags peak at different times), stable across runs.
std::uint64_t TrackerPeakBytes() {
  std::uint64_t total = 0;
  for (const MemoryTracker::Entry& e : MemoryTracker::Instance().Snapshot()) {
    total += e.peak_bytes;
  }
  return total;
}

/// ceil(r) as the record's label class; 0 for a radius outside the
/// engine's domain (MioEngine::CheckRadius), so no cast is undefined.
int CeilClass(double r) {
  const double c = std::ceil(r);
  if (!(r > 0.0 && c <= std::numeric_limits<std::int32_t>::max())) return 0;
  return static_cast<int>(c);
}

// --- Detail sections (records that carry their QueryStats) ------------------

void WriteLoadBalance(JsonWriter& w, const QueryStats& s) {
  if (s.verify_thread_seconds.empty()) return;
  ThreadLoadReport report = ComputeThreadLoad(s.verify_thread_seconds);
  w.Key("verify_load_balance").BeginObject();
  w.Key("workers").UInt(s.verify_thread_seconds.size());
  w.Key("per_thread_seconds").BeginArray();
  for (double sec : s.verify_thread_seconds) w.Double(sec);
  w.EndArray();
  w.Key("min_seconds").Double(report.min_seconds);
  w.Key("max_seconds").Double(report.max_seconds);
  w.Key("mean_seconds").Double(report.mean_seconds);
  w.Key("imbalance").Double(report.imbalance);
  w.EndObject();
}

void WritePmuCounts(JsonWriter& w, const char* key, const PmuCounts& c) {
  if (c.Empty()) return;
  w.Key(key).BeginObject();
  for (int e = 0; e < kNumPmuEvents; ++e) {
    PmuEvent pe = static_cast<PmuEvent>(e);
    std::uint64_t v = c.Get(pe);
    if (v == 0 && !c.valid) continue;  // timing tier: task_clock_ns only
    w.Key(PmuEventName(pe)).UInt(v);
  }
  if (c.valid) {
    w.Key("ipc").Double(c.Ipc());
    w.Key("cache_miss_rate").Double(c.CacheMissRate());
    w.Key("branch_misses_per_ki").Double(c.BranchMissesPerKiloInstructions());
  }
  w.EndObject();
}

void WriteHardware(JsonWriter& w, const QueryStats& s) {
  PmuCounts total = s.hardware.Total();
  if (total.Empty()) return;  // never sampled (baselines, compiled out)
  w.Key("hardware").BeginObject();
  w.Key("phases").BeginObject();
  WritePmuCounts(w, "label_input", s.hardware.label_input);
  WritePmuCounts(w, "grid_mapping", s.hardware.grid_mapping);
  WritePmuCounts(w, "lower_bounding", s.hardware.lower_bounding);
  WritePmuCounts(w, "upper_bounding", s.hardware.upper_bounding);
  WritePmuCounts(w, "verification", s.hardware.verification);
  WritePmuCounts(w, "total", total);
  w.EndObject();
  if (total.valid) {
    w.Key("derived").BeginObject();
    if (s.total_points > 0) {
      w.Key("cycles_per_point")
          .Double(static_cast<double>(total.Get(PmuEvent::kCycles)) /
                  static_cast<double>(s.total_points));
    }
    if (s.num_verified > 0) {
      w.Key("cycles_per_candidate")
          .Double(static_cast<double>(
                      s.hardware.verification.Get(PmuEvent::kCycles)) /
                  static_cast<double>(s.num_verified));
    }
    w.EndObject();
  }
  w.EndObject();
}

void WriteCompression(JsonWriter& w, const QueryStats& s) {
  if (s.compression.num_bitsets == 0) return;
  w.Key("compression").BeginObject();
  w.Key("num_bitsets").UInt(s.compression.num_bitsets);
  w.Key("compressed_bytes").UInt(s.compression.compressed_bytes);
  w.Key("uncompressed_bytes").UInt(s.compression.uncompressed_bytes);
  w.Key("savings_ratio").Double(s.compression.SavingsRatio());
  w.EndObject();
}

void WriteMetrics(JsonWriter& w, const MetricsSnapshot& m) {
  w.Key("metrics").BeginObject();
  w.Key("counters").BeginObject();
  for (int c = 0; c < kNumCounters; ++c) {
    std::uint64_t v = m.counters[static_cast<std::size_t>(c)];
    if (v == 0) continue;
    w.Key(CounterName(static_cast<Counter>(c))).UInt(v);
  }
  w.EndObject();
  w.Key("histograms").BeginObject();
  for (int h = 0; h < kNumHistograms; ++h) {
    const HistogramSnapshot& hist = m.histograms[static_cast<std::size_t>(h)];
    if (hist.count == 0) continue;
    w.Key(HistogramName(static_cast<Histogram>(h))).BeginObject();
    w.Key("count").UInt(hist.count);
    w.Key("sum").UInt(hist.sum);
    w.Key("min").UInt(hist.min);
    w.Key("max").UInt(hist.max);
    w.Key("mean").Double(hist.Mean());
    w.Key("p50").Double(hist.Percentile(0.50));
    w.Key("p90").Double(hist.Percentile(0.90));
    w.Key("p99").Double(hist.Percentile(0.99));
    // Sparse bucket map: "log2_bucket" -> count, upper bound 2^b exclusive.
    w.Key("log2_buckets").BeginObject();
    for (int b = 0; b < HistogramSnapshot::kBuckets; ++b) {
      std::uint64_t n = hist.buckets[static_cast<std::size_t>(b)];
      if (n == 0) continue;
      w.Key(std::to_string(b)).UInt(n);
    }
    w.EndObject();
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
}

}  // namespace

QlogRecord BuildQlogRecord(QlogRecord rec, const QueryResult* result,
                           const MetricsSnapshot* metrics) {
  rec.ceil_r = CeilClass(rec.r);
  rec.git = GitDescribe();
  rec.pmu_tier = PmuTierName(ActivePmuTier());
  rec.kernel_tier = KernelTierName(ActiveKernelTier());
  if (metrics != nullptr) {
    rec.metrics = std::make_shared<const MetricsSnapshot>(*metrics);
    rec.tracker = MemoryTracker::Instance().Snapshot();
  }
  if (result == nullptr) return rec;

  const QueryStats& stats = result->stats;
  // A rejected request's radius never reached the engine's class cast.
  if (result->status.code() == StatusCode::kInvalidArgument) rec.ceil_r = 0;
  rec.threads = stats.threads;
  rec.total_seconds = stats.total_seconds;
  rec.phase_label_input = stats.phases.label_input;
  rec.phase_grid_mapping = stats.phases.grid_mapping;
  rec.phase_lower_bounding = stats.phases.lower_bounding;
  rec.phase_upper_bounding = stats.phases.upper_bounding;
  rec.phase_verification = stats.phases.verification;
  rec.candidates = stats.num_candidates;
  rec.verified = stats.num_verified;
  rec.distance_computations = stats.distance_computations;
  rec.tau_low_max = stats.tau_low_max;
  if (!result->topk.empty()) {
    rec.winner_id = result->best().id;
    rec.winner_score = result->best().score;
  }
  rec.grid_reused = stats.reused_grid;
  rec.cells_small = stats.cells_small;
  rec.cells_large = stats.cells_large;
  rec.label_outcome = LabelOutcomeName(stats.label_outcome);
  rec.points_pruned_by_labels = stats.points_pruned_by_labels;
  rec.status = StatusCodeName(result->status.code());
  rec.complete = result->complete;
  rec.degradation_level = stats.degradation_level;
  rec.index_memory_bytes = stats.index_memory_bytes;
  rec.peak_memory_bytes = TrackerPeakBytes();
  rec.detail = std::make_shared<const QueryStats>(stats);
  return rec;
}

std::string QlogRecordToJsonLine(const QlogRecord& rec) {
  JsonWriter w;
  w.BeginObject();
  w.Key("schema").String(kQlogSchema);
  if (rec.truncated) w.Key("truncated").Bool(true);
  w.Key("query_index").UInt(rec.query_index);
  w.Key("workload").String(rec.workload);
  w.Key("dataset").String(rec.dataset);
  w.Key("algo").String(rec.algo);
  w.Key("params").BeginObject();
  w.Key("r").Double(rec.r);
  w.Key("ceil_r").Int(rec.ceil_r);
  w.Key("k").UInt(rec.k);
  w.Key("threads").Int(rec.threads);
  if (!rec.scale.empty()) w.Key("scale").String(rec.scale);
  w.EndObject();
  w.Key("wall_seconds").Double(rec.wall_seconds);
  w.Key("total_seconds").Double(rec.total_seconds);
  w.Key("phases").BeginObject();
  double phase_total = 0.0;
  for (std::size_t i = 0; i < 5; ++i) {
    double v = *PhaseField(&rec, i);
    w.Key(kPhaseNames[i]).Double(v);
    phase_total += v;
  }
  w.Key("total").Double(phase_total);
  w.EndObject();
  w.Key("funnel").BeginObject();
  w.Key("objects").UInt(rec.objects);
  w.Key("candidates").UInt(rec.candidates);
  w.Key("verified").UInt(rec.verified);
  w.Key("distance_computations").UInt(rec.distance_computations);
  w.Key("tau_low_max").UInt(rec.tau_low_max);
  w.EndObject();
  w.Key("grid").BeginObject();
  w.Key("reused").Bool(rec.grid_reused);
  w.Key("cells_small").UInt(rec.cells_small);
  w.Key("cells_large").UInt(rec.cells_large);
  w.EndObject();
  w.Key("winner").BeginObject();
  w.Key("id").UInt(rec.winner_id);
  w.Key("score").UInt(rec.winner_score);
  w.EndObject();
  w.Key("labels").BeginObject();
  w.Key("outcome").String(rec.label_outcome);
  w.Key("points_pruned").UInt(rec.points_pruned_by_labels);
  w.EndObject();
  w.Key("outcome").BeginObject();
  w.Key("status").String(rec.status);
  w.Key("complete").Bool(rec.complete);
  w.Key("degradation_level").UInt(rec.degradation_level);
  w.EndObject();
  w.Key("env").BeginObject();
  w.Key("git").String(rec.git);
  w.Key("pmu_tier").String(rec.pmu_tier);
  w.Key("kernel_tier").String(rec.kernel_tier);
  w.EndObject();
  w.Key("memory").BeginObject();
  w.Key("index_bytes").UInt(rec.index_memory_bytes);
  w.Key("peak_bytes").UInt(rec.peak_memory_bytes);
  if (rec.detail && !rec.detail->memory.parts.empty()) {
    w.Key("parts").BeginObject();
    for (const auto& [name, bytes] : rec.detail->memory.parts) {
      w.Key(name).UInt(bytes);
    }
    w.EndObject();
  }
  if (rec.metrics) {
    // Process-wide current/peak per tag: outlives this query, so peaks
    // from earlier (larger) runs show in every later snapshot.
    w.Key("tracker").BeginObject();
    for (const MemoryTracker::Entry& e : rec.tracker) {
      w.Key(e.tag).BeginObject();
      w.Key("current_bytes").UInt(e.current_bytes);
      w.Key("peak_bytes").UInt(e.peak_bytes);
      w.EndObject();
    }
    w.EndObject();
  }
  w.EndObject();
  w.Key("trace").BeginObject();
  w.Key("dropped_spans").UInt(rec.trace_dropped_spans);
  w.EndObject();
  if (rec.batch_size > 0) {
    w.Key("batch").BeginObject();
    w.Key("id").UInt(rec.batch_id);
    w.Key("size").UInt(rec.batch_size);
    w.EndObject();
  }
  if (rec.HasServer()) {
    w.Key("server").BeginObject();
    w.Key("request_id").String(rec.server_request_id);
    if (!rec.server_correlation_id.empty()) {
      w.Key("correlation_id").String(rec.server_correlation_id);
    }
    if (!rec.server_client.empty()) {
      w.Key("client").String(rec.server_client);
    }
    w.Key("role").String(rec.server_role);
    w.Key("queue_wait_seconds").Double(rec.server_queue_wait_seconds);
    w.Key("e2e_seconds").Double(rec.server_e2e_seconds);
    if (!rec.server_refusal.empty()) {
      w.Key("refusal").String(rec.server_refusal);
    }
    if (rec.server_retry_after_ms > 0.0) {
      w.Key("retry_after_ms").Double(rec.server_retry_after_ms);
    }
    w.Key("stages").BeginObject();
    for (std::size_t i = 0; i < rec.server_stages.size(); ++i) {
      if (rec.server_stages[i] >= 0.0) {
        w.Key(kServerStageNames[i]).Double(rec.server_stages[i]);
      }
    }
    w.EndObject();
    w.EndObject();
  }
  if (rec.detail) {
    WriteHardware(w, *rec.detail);
    WriteLoadBalance(w, *rec.detail);
    WriteCompression(w, *rec.detail);
  }
  if (rec.metrics && !rec.metrics->Empty()) WriteMetrics(w, *rec.metrics);
  w.EndObject();
  return std::move(w).Take();
}

Status ValidateQlogLine(std::string_view line) {
  JsonValue doc;
  std::string error;
  if (!ParseJson(line, &doc, &error)) {
    return Status::InvalidArgument("qlog: bad JSON: " + error);
  }
  return CheckQlogDocument(doc);
}

Status ParseQlogRecord(std::string_view line, QlogRecord* out) {
  JsonValue doc;
  std::string error;
  if (!ParseJson(line, &doc, &error)) {
    return Status::InvalidArgument("qlog: bad JSON: " + error);
  }
  MIO_RETURN_NOT_OK(CheckQlogDocument(doc));
  QlogRecord rec;
  rec.query_index = doc.GetUInt("query_index");
  rec.workload = doc.GetString("workload");
  rec.dataset = doc.GetString("dataset");
  rec.algo = doc.GetString("algo");
  const JsonValue* params = doc.Find("params");
  rec.r = params->GetDouble("r");
  rec.ceil_r = ReadInt(*params, "ceil_r", 0);
  rec.k = params->GetUInt("k");
  rec.threads = ReadInt(*params, "threads", 1);
  rec.scale = params->GetString("scale");
  rec.wall_seconds = doc.GetDouble("wall_seconds");
  rec.total_seconds = doc.GetDouble("total_seconds");
  const JsonValue* phases = doc.Find("phases");
  for (std::size_t i = 0; i < 5; ++i) {
    *PhaseField(&rec, i) = phases->GetDouble(kPhaseNames[i]);
  }
  const JsonValue* funnel = doc.Find("funnel");
  rec.objects = funnel->GetUInt("objects");
  rec.candidates = funnel->GetUInt("candidates");
  rec.verified = funnel->GetUInt("verified");
  rec.distance_computations = funnel->GetUInt("distance_computations");
  rec.tau_low_max = funnel->GetUInt("tau_low_max");
  if (const JsonValue* grid = doc.Find("grid")) {
    rec.grid_reused = grid->GetBool("reused");
    rec.cells_small = grid->GetUInt("cells_small");
    rec.cells_large = grid->GetUInt("cells_large");
  }
  const JsonValue* winner = doc.Find("winner");
  rec.winner_id = winner->GetUInt("id");
  rec.winner_score = winner->GetUInt("score");
  const JsonValue* labels = doc.Find("labels");
  rec.label_outcome = labels->GetString("outcome");
  rec.points_pruned_by_labels = labels->GetUInt("points_pruned");
  const JsonValue* outcome = doc.Find("outcome");
  rec.status = outcome->GetString("status");
  rec.complete = outcome->GetBool("complete");
  rec.degradation_level =
      static_cast<std::uint32_t>(outcome->GetUInt("degradation_level"));
  const JsonValue* env = doc.Find("env");
  rec.git = env->GetString("git");
  rec.pmu_tier = env->GetString("pmu_tier");
  rec.kernel_tier = env->GetString("kernel_tier");
  const JsonValue* memory = doc.Find("memory");
  rec.index_memory_bytes = memory->GetUInt("index_bytes");
  rec.peak_memory_bytes = memory->GetUInt("peak_bytes");
  rec.trace_dropped_spans = doc.Find("trace")->GetUInt("dropped_spans");
  if (const JsonValue* batch = doc.Find("batch")) {
    rec.batch_id = batch->GetUInt("id");
    rec.batch_size = batch->GetUInt("size");
  }
  if (const JsonValue* server = doc.Find("server")) {
    rec.server_request_id = server->GetString("request_id");
    rec.server_correlation_id = server->GetString("correlation_id");
    rec.server_client = server->GetString("client");
    rec.server_role = server->GetString("role");
    rec.server_queue_wait_seconds = server->GetDouble("queue_wait_seconds");
    rec.server_e2e_seconds = server->GetDouble("e2e_seconds");
    rec.server_refusal = server->GetString("refusal");
    rec.server_retry_after_ms = server->GetDouble("retry_after_ms");
    if (const JsonValue* stages = server->Find("stages")) {
      for (std::size_t i = 0; i < rec.server_stages.size(); ++i) {
        rec.server_stages[i] =
            stages->GetDouble(kServerStageNames[i], rec.server_stages[i]);
      }
    }
  }
  *out = std::move(rec);
  return Status::OK();
}

Result<std::vector<QlogRecord>> LoadQlogFile(const std::string& path) {
  std::ifstream in(path);
  if (!in.is_open()) {
    return Status::IOError("qlog: cannot open: " + path);
  }
  std::vector<QlogRecord> records;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    if (lineno == 1) {
      JsonValue doc;
      if (ParseJson(line, &doc) &&
          doc.GetString("schema") == "mio-bench-header-v1") {
        continue;
      }
    }
    QlogRecord rec;
    Status st = ParseQlogRecord(line, &rec);
    if (!st.ok()) {
      return Status(st.code(), path + ":" + std::to_string(lineno) + ": " +
                                   st.message());
    }
    records.push_back(std::move(rec));
  }
  if (in.bad()) {
    return Status::IOError("qlog: read error: " + path);
  }
  return records;
}

// --- QlogWriter --------------------------------------------------------------

QlogWriter::~QlogWriter() { (void)Close(); }

Status QlogWriter::Open(const std::string& path, bool append) {
  MIO_RETURN_NOT_OK(Close());
  if (path == "-") {
    file_ = stdout;
    owns_file_ = false;
    return Status::OK();
  }
  file_ = std::fopen(path.c_str(), append ? "a" : "w");
  if (file_ == nullptr) {
    return Status::IOError("qlog: cannot open: " + path);
  }
  owns_file_ = true;
  return Status::OK();
}

Status QlogWriter::Append(const QlogRecord& rec) {
  if (file_ == nullptr) {
    return Status::InvalidArgument("qlog: writer is not open");
  }
  std::string line = QlogRecordToJsonLine(rec);
  // The serialiser is total over QlogRecord fields, so this only fires on
  // a programming error (e.g. an outcome string not from the enum) — but
  // an invalid line in a qlog poisons every downstream consumer, so check.
  MIO_RETURN_NOT_OK(ValidateQlogLine(line));
  line.push_back('\n');
  if (std::fwrite(line.data(), 1, line.size(), file_) != line.size()) {
    return Status::IOError("qlog: short write");
  }
  // Flush per record: a killed workload keeps every completed query.
  if (std::fflush(file_) != 0) {
    return Status::IOError("qlog: flush failed");
  }
  ++records_;
  return Status::OK();
}

Status QlogWriter::Close() {
  if (file_ == nullptr) return Status::OK();
  std::FILE* f = file_;
  bool owns = owns_file_;
  file_ = nullptr;
  owns_file_ = false;
  if (owns) {
    if (std::fclose(f) != 0) return Status::IOError("qlog: close failed");
  } else {
    if (std::fflush(f) != 0) return Status::IOError("qlog: flush failed");
  }
  return Status::OK();
}

// --- TailSampler -------------------------------------------------------------

TailSampler::Decision TailSampler::Offer(std::uint64_t index,
                                         double wall_seconds) {
  Decision d;
  if (!enabled()) return d;
  if (cfg_.threshold_seconds > 0.0 && wall_seconds >= cfg_.threshold_seconds) {
    permanent_.insert(index);
    d.export_trace = true;
  }
  if (cfg_.slowest_n > 0) {
    slowest_.emplace(wall_seconds, index);
    if (slowest_.size() > cfg_.slowest_n) {
      auto fastest = slowest_.begin();
      std::uint64_t evicted = fastest->second;
      slowest_.erase(fastest);
      if (evicted == index) {
        // The new query itself fell straight out of the slowest-N set;
        // only a threshold hit keeps its trace.
      } else {
        d.export_trace = true;  // the new query joined the slowest-N
        if (permanent_.count(evicted) == 0) d.evict.push_back(evicted);
      }
    } else {
      d.export_trace = true;
    }
  }
  return d;
}

std::vector<std::uint64_t> TailSampler::TailIndices() const {
  std::vector<std::uint64_t> out(permanent_.begin(), permanent_.end());
  for (const auto& [seconds, index] : slowest_) {
    (void)seconds;
    if (permanent_.count(index) == 0) out.push_back(index);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::string TailTraceFileName(std::uint64_t query_index) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "q%06llu.trace.json",
                static_cast<unsigned long long>(query_index));
  return buf;
}

// --- Report ------------------------------------------------------------------

namespace {

QlogLatencySummary SummarizeLatency(std::vector<double> values) {
  QlogLatencySummary s;
  if (values.empty()) return s;
  s.min = *std::min_element(values.begin(), values.end());
  s.max = *std::max_element(values.begin(), values.end());
  for (double v : values) s.sum += v;
  s.mean = s.sum / static_cast<double>(values.size());
  // Percentile sorts a copy per call; fine at report scale.
  s.p50 = Percentile(values, 0.50);
  s.p95 = Percentile(values, 0.95);
  s.p99 = Percentile(values, 0.99);
  return s;
}

bool FileExists(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  std::fclose(f);
  return true;
}

/// Path of a slow query's trace file if it exists under `trace_dir`
/// (tail sampling only keeps files for tail queries), else "". Workload
/// runs name traces "q%06llu"; `mio serve` names them "r%06llu" after
/// the server request id — try the workload name first, then the
/// server's.
std::string ResolveTraceFile(const std::string& trace_dir,
                             std::uint64_t query_index) {
  if (trace_dir.empty()) return "";
  std::string dir = trace_dir;
  if (dir.back() != '/') dir.push_back('/');
  std::string path = dir + TailTraceFileName(query_index);
  if (FileExists(path)) return path;
  char buf[48];
  std::snprintf(buf, sizeof(buf), "r%06llu.trace.json",
                static_cast<unsigned long long>(query_index));
  path = dir + buf;
  if (FileExists(path)) return path;
  return "";
}

}  // namespace

QlogReport BuildQlogReport(const std::vector<QlogRecord>& records,
                           std::size_t slowest_n) {
  QlogReport report;
  report.num_queries = records.size();

  std::vector<double> wall;
  wall.reserve(records.size());
  std::vector<double> batched_wall;
  std::vector<double> sequential_wall;
  std::vector<std::vector<double>> phase_values(5);
  std::map<int, QlogCeilClassStats> classes;
  for (const QlogRecord& rec : records) {
    // A refused request never executed: it has no latency, phases or
    // label outcome of its own (the server split counts it below).
    if (rec.ServerRefused()) continue;
    wall.push_back(rec.wall_seconds);
    if (rec.Batched()) {
      batched_wall.push_back(rec.wall_seconds);
    } else {
      sequential_wall.push_back(rec.wall_seconds);
    }
    if (!rec.complete) ++report.incomplete;
    if (rec.degradation_level > 0) ++report.degraded;
    for (std::size_t i = 0; i < 5; ++i) {
      phase_values[i].push_back(*PhaseField(&rec, i));
    }
    QlogCeilClassStats& cls = classes[rec.ceil_r];
    cls.ceil_r = rec.ceil_r;
    ++cls.queries;
    if (rec.LabelHit()) {
      ++cls.hits;
    } else if (rec.label_outcome == "recorded") {
      ++cls.recorded;
    } else if (rec.label_outcome == "miss") {
      ++cls.misses;
    }
  }
  report.latency = SummarizeLatency(wall);
  report.batched_queries = batched_wall.size();
  report.batched_latency = SummarizeLatency(std::move(batched_wall));
  report.sequential_latency = SummarizeLatency(std::move(sequential_wall));

  // Server split: queue-wait and execute over the actually-executed
  // requests only (follower/cached never queued an execution of their
  // own), e2e over every answered request.
  std::vector<double> server_queue_wait;
  std::vector<double> server_execute;
  std::vector<double> server_e2e;
  for (const QlogRecord& rec : records) {
    if (!rec.HasServer()) continue;
    ++report.server_requests;
    if (rec.ServerRefused()) {
      ++report.server_refused;
      continue;
    }
    server_e2e.push_back(rec.server_e2e_seconds);
    if (rec.ServerExecuted()) {
      ++report.server_executed;
      server_queue_wait.push_back(rec.server_queue_wait_seconds);
      server_execute.push_back(rec.wall_seconds);
    } else if (rec.server_role == "follower") {
      ++report.server_coalesced;
    } else if (rec.server_role == "cached") {
      ++report.server_cached;
    }
  }
  report.server_queue_wait = SummarizeLatency(std::move(server_queue_wait));
  report.server_execute = SummarizeLatency(std::move(server_execute));
  report.server_e2e = SummarizeLatency(std::move(server_e2e));

  double phase_sum = 0.0;
  for (std::size_t i = 0; i < 5; ++i) {
    QlogPhaseAggregate agg;
    agg.name = kPhaseNames[i];
    for (double v : phase_values[i]) agg.total_seconds += v;
    agg.p50 = Percentile(phase_values[i], 0.50);
    agg.p99 = Percentile(phase_values[i], 0.99);
    phase_sum += agg.total_seconds;
    report.phases.push_back(std::move(agg));
  }
  for (QlogPhaseAggregate& agg : report.phases) {
    agg.share = phase_sum > 0.0 ? agg.total_seconds / phase_sum : 0.0;
  }

  for (auto& [ceil_r, cls] : classes) {
    report.ceil_classes.push_back(cls);  // std::map: already ceil_r-sorted
  }

  // Slowest-N table: wall-descending, ties toward the later index — the
  // same order the TailSampler retains, so the table's head lines up with
  // the kept trace files.
  std::vector<const QlogRecord*> by_wall;
  by_wall.reserve(records.size());
  for (const QlogRecord& rec : records) {
    if (!rec.ServerRefused()) by_wall.push_back(&rec);
  }
  std::sort(by_wall.begin(), by_wall.end(),
            [](const QlogRecord* a, const QlogRecord* b) {
              if (a->wall_seconds != b->wall_seconds) {
                return a->wall_seconds > b->wall_seconds;
              }
              return a->query_index > b->query_index;
            });
  std::size_t n = std::min(slowest_n, by_wall.size());
  for (std::size_t i = 0; i < n; ++i) {
    const QlogRecord* rec = by_wall[i];
    QlogSlowQuery slow;
    slow.query_index = rec->query_index;
    slow.wall_seconds = rec->wall_seconds;
    slow.r = rec->r;
    slow.status = rec->status;
    slow.label_outcome = rec->label_outcome;
    report.slowest.push_back(std::move(slow));
  }
  return report;
}

std::string QlogReportToJson(const QlogReport& report,
                             const std::string& trace_dir) {
  JsonWriter w;
  w.BeginObject();
  w.Key("schema").String("mio-qlog-report-v1");
  w.Key("num_queries").UInt(report.num_queries);
  w.Key("incomplete").UInt(report.incomplete);
  w.Key("degraded").UInt(report.degraded);
  w.Key("latency").BeginObject();
  w.Key("min").Double(report.latency.min);
  w.Key("max").Double(report.latency.max);
  w.Key("mean").Double(report.latency.mean);
  w.Key("p50").Double(report.latency.p50);
  w.Key("p95").Double(report.latency.p95);
  w.Key("p99").Double(report.latency.p99);
  w.Key("sum").Double(report.latency.sum);
  w.EndObject();
  w.Key("batched_queries").UInt(report.batched_queries);
  if (report.batched_queries > 0) {
    auto emit_split = [&](const char* key, const QlogLatencySummary& s) {
      w.Key(key).BeginObject();
      w.Key("p50").Double(s.p50);
      w.Key("p95").Double(s.p95);
      w.Key("p99").Double(s.p99);
      w.Key("mean").Double(s.mean);
      w.Key("sum").Double(s.sum);
      w.EndObject();
    };
    emit_split("latency_batched", report.batched_latency);
    emit_split("latency_sequential", report.sequential_latency);
  }
  if (report.server_requests > 0) {
    auto emit_summary = [&](const char* key, const QlogLatencySummary& s) {
      w.Key(key).BeginObject();
      w.Key("p50").Double(s.p50);
      w.Key("p95").Double(s.p95);
      w.Key("p99").Double(s.p99);
      w.Key("mean").Double(s.mean);
      w.Key("max").Double(s.max);
      w.EndObject();
    };
    w.Key("server").BeginObject();
    w.Key("requests").UInt(report.server_requests);
    w.Key("executed").UInt(report.server_executed);
    w.Key("coalesced").UInt(report.server_coalesced);
    w.Key("cached").UInt(report.server_cached);
    w.Key("refused").UInt(report.server_refused);
    emit_summary("queue_wait", report.server_queue_wait);
    emit_summary("execute", report.server_execute);
    emit_summary("e2e", report.server_e2e);
    w.EndObject();
  }
  w.Key("phases").BeginObject();
  for (const QlogPhaseAggregate& agg : report.phases) {
    w.Key(agg.name).BeginObject();
    w.Key("total_seconds").Double(agg.total_seconds);
    w.Key("share").Double(agg.share);
    w.Key("p50").Double(agg.p50);
    w.Key("p99").Double(agg.p99);
    w.EndObject();
  }
  w.EndObject();
  w.Key("label_reuse").BeginArray();
  for (const QlogCeilClassStats& cls : report.ceil_classes) {
    w.BeginObject();
    w.Key("ceil_r").Int(cls.ceil_r);
    w.Key("queries").UInt(cls.queries);
    w.Key("hits").UInt(cls.hits);
    w.Key("recorded").UInt(cls.recorded);
    w.Key("misses").UInt(cls.misses);
    w.Key("hit_rate").Double(cls.HitRate());
    w.EndObject();
  }
  w.EndArray();
  w.Key("slowest").BeginArray();
  for (const QlogSlowQuery& slow : report.slowest) {
    w.BeginObject();
    w.Key("query_index").UInt(slow.query_index);
    w.Key("wall_seconds").Double(slow.wall_seconds);
    w.Key("r").Double(slow.r);
    w.Key("status").String(slow.status);
    w.Key("label_outcome").String(slow.label_outcome);
    std::string trace = ResolveTraceFile(trace_dir, slow.query_index);
    if (!trace.empty()) w.Key("trace_file").String(trace);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return std::move(w).Take();
}

std::string FormatQlogReport(const QlogReport& report,
                             const std::string& trace_dir) {
  char buf[256];
  std::string out;
  std::snprintf(buf, sizeof(buf),
                "qlog report: %zu queries (%zu incomplete, %zu degraded)\n",
                report.num_queries, report.incomplete, report.degraded);
  out += buf;
  const QlogLatencySummary& lat = report.latency;
  std::snprintf(buf, sizeof(buf),
                "  wall latency: p50 %.6fs  p95 %.6fs  p99 %.6fs  "
                "(min %.6f, mean %.6f, max %.6f, sum %.3f)\n",
                lat.p50, lat.p95, lat.p99, lat.min, lat.mean, lat.max,
                lat.sum);
  out += buf;
  if (report.batched_queries > 0) {
    std::snprintf(buf, sizeof(buf),
                  "  batched:      %zu queries  p50 %.6fs  p99 %.6fs  "
                  "(mean %.6f, sum %.3f)\n",
                  report.batched_queries, report.batched_latency.p50,
                  report.batched_latency.p99, report.batched_latency.mean,
                  report.batched_latency.sum);
    out += buf;
    std::snprintf(buf, sizeof(buf),
                  "  sequential:   %zu queries  p50 %.6fs  p99 %.6fs  "
                  "(mean %.6f, sum %.3f)\n",
                  report.num_queries - report.batched_queries,
                  report.sequential_latency.p50, report.sequential_latency.p99,
                  report.sequential_latency.mean,
                  report.sequential_latency.sum);
    out += buf;
  }
  if (report.server_requests > 0) {
    std::snprintf(buf, sizeof(buf),
                  "  server: %zu requests (%zu executed, %zu coalesced, "
                  "%zu cached, %zu refused)\n",
                  report.server_requests, report.server_executed,
                  report.server_coalesced, report.server_cached,
                  report.server_refused);
    out += buf;
    std::snprintf(buf, sizeof(buf),
                  "    queue wait:  p50 %.6fs  p95 %.6fs  p99 %.6fs  "
                  "(max %.6f)\n",
                  report.server_queue_wait.p50, report.server_queue_wait.p95,
                  report.server_queue_wait.p99, report.server_queue_wait.max);
    out += buf;
    std::snprintf(buf, sizeof(buf),
                  "    execute:     p50 %.6fs  p95 %.6fs  p99 %.6fs  "
                  "(max %.6f)\n",
                  report.server_execute.p50, report.server_execute.p95,
                  report.server_execute.p99, report.server_execute.max);
    out += buf;
    std::snprintf(buf, sizeof(buf),
                  "    end-to-end:  p50 %.6fs  p95 %.6fs  p99 %.6fs  "
                  "(max %.6f)\n",
                  report.server_e2e.p50, report.server_e2e.p95,
                  report.server_e2e.p99, report.server_e2e.max);
    out += buf;
  }
  out += "  phases (total seconds, share of phase time):\n";
  for (const QlogPhaseAggregate& agg : report.phases) {
    std::snprintf(buf, sizeof(buf),
                  "    %-15s %10.6fs  %5.1f%%  (p50 %.6f, p99 %.6f)\n",
                  agg.name.c_str(), agg.total_seconds, 100.0 * agg.share,
                  agg.p50, agg.p99);
    out += buf;
  }
  out += "  label reuse per ceil(r) class:\n";
  for (const QlogCeilClassStats& cls : report.ceil_classes) {
    std::snprintf(
        buf, sizeof(buf),
        "    ceil_r %-5d %6llu queries  hits %-6llu recorded %-6llu "
        "misses %-6llu hit rate %5.1f%%\n",
        cls.ceil_r, static_cast<unsigned long long>(cls.queries),
        static_cast<unsigned long long>(cls.hits),
        static_cast<unsigned long long>(cls.recorded),
        static_cast<unsigned long long>(cls.misses), 100.0 * cls.HitRate());
    out += buf;
  }
  out += "  slowest queries:\n";
  for (const QlogSlowQuery& slow : report.slowest) {
    std::snprintf(buf, sizeof(buf),
                  "    q%-6llu %.6fs  r=%-8g %-10s labels=%s",
                  static_cast<unsigned long long>(slow.query_index),
                  slow.wall_seconds, slow.r, slow.status.c_str(),
                  slow.label_outcome.c_str());
    out += buf;
    std::string trace = ResolveTraceFile(trace_dir, slow.query_index);
    if (!trace.empty()) {
      out += "  trace=";
      out += trace;
    }
    out += '\n';
  }
  return out;
}

// --- SLOs --------------------------------------------------------------------

std::vector<SloResult> EvaluateSlos(const std::vector<QlogRecord>& records,
                                    const std::vector<SloObjective>& slos) {
  std::vector<SloResult> out;
  out.reserve(slos.size());
  for (const SloObjective& slo : slos) {
    SloResult res;
    res.slo = slo;
    double limit_seconds = slo.latency_ms / 1000.0;
    for (const QlogRecord& rec : records) {
      if (slo.ceil_r != 0 && rec.ceil_r != slo.ceil_r) continue;
      ++res.queries;
      // A failed request misses its objective however fast it failed.
      if (rec.status != "OK" || rec.wall_seconds > limit_seconds) {
        ++res.violations;
      }
    }
    res.error_budget =
        (1.0 - slo.objective) * static_cast<double>(res.queries);
    if (res.queries > 0) {
      double violation_rate = static_cast<double>(res.violations) /
                              static_cast<double>(res.queries);
      res.burn_rate = violation_rate / (1.0 - slo.objective);
      res.met = static_cast<double>(res.violations) <= res.error_budget;
    }
    out.push_back(res);
  }
  return out;
}

std::string FormatSloReport(const std::vector<SloResult>& results) {
  std::string out = "  SLOs:\n";
  char buf[256];
  for (const SloResult& res : results) {
    char scope[32];
    if (res.slo.ceil_r == 0) {
      std::snprintf(scope, sizeof(scope), "all");
    } else {
      std::snprintf(scope, sizeof(scope), "ceil_r=%d", res.slo.ceil_r);
    }
    std::snprintf(
        buf, sizeof(buf),
        "    [%s] %-10s %.3fms @ %.2f%%: %llu/%llu over budget %.2f, "
        "burn rate %.2f\n",
        res.met ? "ok" : "MISSED", scope, res.slo.latency_ms,
        100.0 * res.slo.objective,
        static_cast<unsigned long long>(res.violations),
        static_cast<unsigned long long>(res.queries), res.error_budget,
        res.burn_rate);
    out += buf;
  }
  return out;
}

// --- Regression diff ---------------------------------------------------------

namespace {

// The fixed gates; only the latency threshold is a `mio qlog diff` flag.
constexpr double kShareThreshold = 0.10;    ///< absolute phase-share rise
constexpr double kFunnelThreshold = 0.25;   ///< relative funnel loosening
constexpr double kHitRateThreshold = 0.10;  ///< absolute hit-rate drop
constexpr double kMinGatedSeconds = 1e-4;   ///< smaller baselines: no gate

struct FunnelShape {
  double cand_per_object = 0.0;   ///< sum(candidates)/sum(objects)
  double verified_per_cand = 0.0; ///< sum(verified)/sum(candidates)
  double hit_rate = 0.0;          ///< label hits / labelled queries
  std::uint64_t labelled = 0;     ///< queries with labels on
  std::map<int, std::pair<std::uint64_t, std::uint64_t>>
      class_hits;  ///< ceil_r -> (hits, queries), labelled only
};

FunnelShape ShapeOf(const std::vector<QlogRecord>& records) {
  FunnelShape s;
  std::uint64_t objects = 0, candidates = 0, verified = 0, hits = 0;
  for (const QlogRecord& rec : records) {
    objects += rec.objects;
    candidates += rec.candidates;
    verified += rec.verified;
    if (rec.label_outcome != "off") {
      ++s.labelled;
      auto& cls = s.class_hits[rec.ceil_r];
      ++cls.second;
      if (rec.LabelHit()) {
        ++hits;
        ++cls.first;
      }
    }
  }
  if (objects > 0) {
    s.cand_per_object =
        static_cast<double>(candidates) / static_cast<double>(objects);
  }
  if (candidates > 0) {
    s.verified_per_cand =
        static_cast<double>(verified) / static_cast<double>(candidates);
  }
  if (s.labelled > 0) {
    s.hit_rate = static_cast<double>(hits) / static_cast<double>(s.labelled);
  }
  return s;
}

/// A run configuration: "workload/dataset/algo r=R k=K t=T [scale]". R
/// is the shortest text that reads back as the same double, so two
/// records share a key exactly when their identities are equal.
std::string ConfigKey(const QlogRecord& rec) {
  char r[32];
  *std::to_chars(r, r + sizeof(r) - 1, rec.r).ptr = '\0';
  std::string key = rec.workload + "/" + rec.dataset + "/" + rec.algo +
                    " r=" + r + " k=" + std::to_string(rec.k) +
                    " t=" + std::to_string(rec.threads);
  if (!rec.scale.empty()) key += " [" + rec.scale + "]";
  return key;
}

/// Wall seconds of the executed (non-refused) records, per configuration.
std::map<std::string, std::vector<double>> WallsByConfig(
    const std::vector<QlogRecord>& records) {
  std::map<std::string, std::vector<double>> walls;
  for (const QlogRecord& rec : records) {
    if (!rec.ServerRefused()) {
      walls[ConfigKey(rec)].push_back(rec.wall_seconds);
    }
  }
  return walls;
}

}  // namespace

QlogDiffResult DiffQlogs(const std::vector<QlogRecord>& baseline,
                         const std::vector<QlogRecord>& candidate,
                         const QlogDiffOptions& opts) {
  QlogDiffResult diff;
  diff.baseline_queries = baseline.size();
  diff.candidate_queries = candidate.size();

  auto push = [&](QlogDiffEntry e) {
    if (e.regression) ++diff.regressions;
    diff.entries.push_back(std::move(e));
  };

  // A metric that grew past its threshold regressed; shrinking is fine.
  auto relative_entry = [&](const std::string& metric, double base,
                            double cand, double threshold, bool gate) {
    QlogDiffEntry e;
    e.metric = metric;
    e.baseline = base;
    e.candidate = cand;
    e.threshold = threshold;
    e.relative = true;
    e.delta = base > 0.0 ? (cand - base) / base : 0.0;
    e.regression = gate && base > 0.0 && e.delta > threshold;
    return e;
  };
  // Gate a latency only when the baseline is big enough to carry a
  // relative claim; micro-second baselines whipsaw on scheduler noise.
  auto latency_entry = [&](const std::string& metric, double base,
                           double cand) {
    return relative_entry(metric, base, cand, opts.latency_threshold,
                          base >= kMinGatedSeconds);
  };

  QlogReport base_report = BuildQlogReport(baseline, 0);
  QlogReport cand_report = BuildQlogReport(candidate, 0);

  struct {
    const char* name;
    double QlogLatencySummary::*field;
  } percentiles[] = {{"latency.p50", &QlogLatencySummary::p50},
                     {"latency.p95", &QlogLatencySummary::p95},
                     {"latency.p99", &QlogLatencySummary::p99}};
  for (const auto& p : percentiles) {
    push(latency_entry(p.name, base_report.latency.*(p.field),
                       cand_report.latency.*(p.field)));
  }

  for (std::size_t i = 0; i < base_report.phases.size() &&
                          i < cand_report.phases.size();
       ++i) {
    QlogDiffEntry e;
    e.metric = "phase_share." + base_report.phases[i].name;
    e.baseline = base_report.phases[i].share;
    e.candidate = cand_report.phases[i].share;
    e.threshold = kShareThreshold;
    e.relative = false;
    e.delta = e.candidate - e.baseline;
    e.regression = e.delta > kShareThreshold;
    push(std::move(e));
  }

  FunnelShape base_shape = ShapeOf(baseline);
  FunnelShape cand_shape = ShapeOf(candidate);
  push(relative_entry("funnel.candidates_per_object",
                      base_shape.cand_per_object, cand_shape.cand_per_object,
                      kFunnelThreshold, true));
  push(relative_entry("funnel.verified_per_candidate",
                      base_shape.verified_per_cand,
                      cand_shape.verified_per_cand, kFunnelThreshold, true));

  // Label hit rate: a drop is the regression (inverted direction).
  auto hit_rate_entry = [&](const std::string& metric, double base,
                            double cand) {
    QlogDiffEntry e;
    e.metric = metric;
    e.baseline = base;
    e.candidate = cand;
    e.threshold = kHitRateThreshold;
    e.relative = false;
    e.delta = cand - base;
    e.regression = -e.delta > kHitRateThreshold;
    return e;
  };
  if (base_shape.labelled > 0 && cand_shape.labelled > 0) {
    push(hit_rate_entry("labels.hit_rate", base_shape.hit_rate,
                        cand_shape.hit_rate));
    for (const auto& [ceil_r, base_cls] : base_shape.class_hits) {
      auto it = cand_shape.class_hits.find(ceil_r);
      if (it == cand_shape.class_hits.end()) continue;
      double base_rate = base_cls.second > 0
                             ? static_cast<double>(base_cls.first) /
                                   static_cast<double>(base_cls.second)
                             : 0.0;
      double cand_rate = it->second.second > 0
                             ? static_cast<double>(it->second.first) /
                                   static_cast<double>(it->second.second)
                             : 0.0;
      push(hit_rate_entry("labels.hit_rate.ceil_r_" + std::to_string(ceil_r),
                          base_rate, cand_rate));
    }
  }

  // Per configuration: the median wall over its repeats, so a regression
  // confined to one radius or one harness is not averaged away.
  std::map<std::string, std::vector<double>> base_walls =
      WallsByConfig(baseline);
  std::map<std::string, std::vector<double>> cand_walls =
      WallsByConfig(candidate);
  for (const auto& [key, walls] : base_walls) {
    auto it = cand_walls.find(key);
    if (it == cand_walls.end()) {
      ++diff.configs_only_baseline;
      continue;
    }
    ++diff.configs_compared;
    push(latency_entry("latency.median[" + key + "]", Median(walls),
                       Median(it->second)));
  }
  diff.configs_only_candidate = cand_walls.size() - diff.configs_compared;
  return diff;
}

std::string FormatQlogDiff(const QlogDiffResult& diff) {
  char buf[256];
  std::string out;
  std::snprintf(buf, sizeof(buf),
                "qlog diff: %zu baseline vs %zu candidate queries; %zu "
                "configurations compared, %zu only in baseline, %zu only "
                "in candidate\n",
                diff.baseline_queries, diff.candidate_queries,
                diff.configs_compared, diff.configs_only_baseline,
                diff.configs_only_candidate);
  out += buf;
  for (const QlogDiffEntry& e : diff.entries) {
    // A configuration key carries a dataset path of any length.
    out += "  " + e.metric;
    if (e.metric.size() < 34) out.append(34 - e.metric.size(), ' ');
    std::snprintf(buf, sizeof(buf), " %12.6f -> %12.6f  %+7.2f%s%s\n",
                  e.baseline, e.candidate,
                  e.relative ? 100.0 * e.delta : e.delta,
                  e.relative ? "%" : "",
                  e.regression ? "  REGRESSION" : "");
    out += buf;
  }
  std::snprintf(buf, sizeof(buf), "qlog diff: %zu regression%s\n",
                diff.regressions, diff.regressions == 1 ? "" : "s");
  out += buf;
  return out;
}

std::string QlogDiffToJson(const QlogDiffResult& diff) {
  JsonWriter w;
  w.BeginObject();
  w.Key("schema").String("mio-qlog-diff-v1");
  w.Key("baseline_queries").UInt(diff.baseline_queries);
  w.Key("candidate_queries").UInt(diff.candidate_queries);
  w.Key("configs_compared").UInt(diff.configs_compared);
  w.Key("configs_only_baseline").UInt(diff.configs_only_baseline);
  w.Key("configs_only_candidate").UInt(diff.configs_only_candidate);
  w.Key("regressions").UInt(diff.regressions);
  w.Key("entries").BeginArray();
  for (const QlogDiffEntry& e : diff.entries) {
    w.BeginObject();
    w.Key("metric").String(e.metric);
    w.Key("baseline").Double(e.baseline);
    w.Key("candidate").Double(e.candidate);
    w.Key("delta").Double(e.delta);
    w.Key("threshold").Double(e.threshold);
    w.Key("relative").Bool(e.relative);
    w.Key("regression").Bool(e.regression);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return std::move(w).Take();
}

}  // namespace obs
}  // namespace mio
