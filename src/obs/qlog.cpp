#include "obs/qlog.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <type_traits>
#include <variant>

#include "geo/kernels.hpp"
#include "obs/json.hpp"
#include "obs/stats_sink.hpp"

namespace mio {
namespace obs {

namespace {

constexpr const char* kQlogSchema = "mio-qlog-v1";

bool IsServerRole(const std::string& name) {
  for (const char* r : kServerRoleNames) {
    if (name == r) return true;
  }
  return false;
}

/// The five phases in pipeline order: the record's "phases" rows and the
/// report's per-phase aggregates.
struct Phase {
  const char* name;
  double QlogRecord::*seconds;
};
constexpr Phase kPhases[] = {
    {"label_input", &QlogRecord::phase_label_input},
    {"grid_mapping", &QlogRecord::phase_grid_mapping},
    {"lower_bounding", &QlogRecord::phase_lower_bounding},
    {"upper_bounding", &QlogRecord::phase_upper_bounding},
    {"verification", &QlogRecord::phase_verification}};

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

// --- Fields written by hand -------------------------------------------------
// Each writes its value under `key`, or nothing when it has none.

void WritePhaseTotal(JsonWriter& w, const char* key, const QlogRecord& rec) {
  double total = 0.0;
  for (const Phase& p : kPhases) total += rec.*p.seconds;
  w.Key(key).Double(total);
}

void WriteMemoryParts(JsonWriter& w, const char* key, const QlogRecord& rec) {
  if (!rec.detail || rec.detail->memory.parts.empty()) return;
  w.Key(key).BeginObject();
  for (const auto& [name, bytes] : rec.detail->memory.parts) {
    w.Key(name).UInt(bytes);
  }
  w.EndObject();
}

/// Process-wide current/peak per tag: outlives this query, so peaks from
/// earlier (larger) runs show in every later snapshot.
void WriteTracker(JsonWriter& w, const char* key, const QlogRecord& rec) {
  if (!rec.metrics) return;
  w.Key(key).BeginObject();
  for (const MemoryTracker::Entry& e : rec.tracker) {
    w.Key(e.tag).BeginObject();
    w.Key("current_bytes").UInt(e.current_bytes);
    w.Key("peak_bytes").UInt(e.peak_bytes);
    w.EndObject();
  }
  w.EndObject();
}

void WriteStages(JsonWriter& w, const char* key, const QlogRecord& rec) {
  w.Key(key).BeginObject();
  for (std::size_t i = 0; i < rec.server_stages.size(); ++i) {
    if (rec.server_stages[i] >= 0.0) {
      w.Key(kServerStageNames[i]).Double(rec.server_stages[i]);
    }
  }
  w.EndObject();
}

void WriteLoadBalance(JsonWriter& w, const char* key, const QlogRecord& rec) {
  if (!rec.detail || rec.detail->verify_thread_seconds.empty()) return;
  const std::vector<double>& seconds = rec.detail->verify_thread_seconds;
  ThreadLoadReport report = ComputeThreadLoad(seconds);
  w.Key(key).BeginObject();
  w.Key("workers").UInt(seconds.size());
  w.Key("per_thread_seconds").BeginArray();
  for (double sec : seconds) w.Double(sec);
  w.EndArray();
  w.Key("min_seconds").Double(report.min_seconds);
  w.Key("max_seconds").Double(report.max_seconds);
  w.Key("mean_seconds").Double(report.mean_seconds);
  w.Key("imbalance").Double(report.imbalance);
  w.EndObject();
}

void WriteCompression(JsonWriter& w, const char* key, const QlogRecord& rec) {
  if (!rec.detail || rec.detail->compression.num_bitsets == 0) return;
  const BitsetCompressionStats& c = rec.detail->compression;
  w.Key(key).BeginObject();
  w.Key("num_bitsets").UInt(c.num_bitsets);
  w.Key("compressed_bytes").UInt(c.compressed_bytes);
  w.Key("uncompressed_bytes").UInt(c.uncompressed_bytes);
  w.Key("savings_ratio").Double(c.SavingsRatio());
  w.EndObject();
}

void WriteMetrics(JsonWriter& w, const char* key, const QlogRecord& rec) {
  if (!rec.metrics || rec.metrics->Empty()) return;
  const MetricsSnapshot& m = *rec.metrics;
  w.Key(key).BeginObject();
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

// --- The record's one spelling -----------------------------------------------

/// When a field is written, and whether a reader requires it. The fields
/// the schema began with are required; later ones are optional, so older
/// qlogs (the committed BENCH files) still load.
enum class Presence {
  kRequired,  ///< always written; required on read
  kOptional,  ///< always written; optional on read
  kIfSet,     ///< written only when set (true, non-empty, > 0); optional
};

/// A field no member holds as written: `write` writes it, by its own
/// omission rule, and a reader only checks the type of a present value.
struct ByHand {
  JsonValue::Type type;
  void (*write)(JsonWriter& w, const char* key, const QlogRecord& rec);
};

/// The member a row writes and reads back. Its type is the JSON type:
/// an arithmetic member is a number, which a reader requires finite.
using Member =
    std::variant<std::uint64_t QlogRecord::*, std::uint32_t QlogRecord::*,
                 int QlogRecord::*, double QlogRecord::*,
                 std::string QlogRecord::*, bool QlogRecord::*, ByHand>;

struct Field {
  const char* section;  ///< "" for the top level
  const char* key;
  Member member;
  Presence presence = Presence::kRequired;
};

constexpr JsonValue::Type kJsonNumber = JsonValue::Type::kNumber;
constexpr JsonValue::Type kJsonObject = JsonValue::Type::kObject;

/// Every field after "schema", in write order. A section's rows are
/// adjacent; the top level ("") resumes between sections and ends the
/// table. Unknown keys are ignored on read, which is how fields arrive
/// without a schema bump. tests/qlog_test.cpp and the qlog stage of
/// scripts/check.sh keep their own key lists on purpose: a wrong row
/// here still round-trips.
constexpr Field kFields[] = {
    {"", "truncated", &QlogRecord::truncated, Presence::kIfSet},
    {"", "query_index", &QlogRecord::query_index},
    {"", "workload", &QlogRecord::workload},
    {"", "dataset", &QlogRecord::dataset},
    {"", "algo", &QlogRecord::algo},
    {"params", "r", &QlogRecord::r},
    {"params", "ceil_r", &QlogRecord::ceil_r},
    {"params", "k", &QlogRecord::k},
    {"params", "threads", &QlogRecord::threads},
    {"params", "scale", &QlogRecord::scale, Presence::kIfSet},
    {"", "wall_seconds", &QlogRecord::wall_seconds},
    {"", "total_seconds", &QlogRecord::total_seconds},
    {"phases", kPhases[0].name, kPhases[0].seconds},
    {"phases", kPhases[1].name, kPhases[1].seconds},
    {"phases", kPhases[2].name, kPhases[2].seconds},
    {"phases", kPhases[3].name, kPhases[3].seconds},
    {"phases", kPhases[4].name, kPhases[4].seconds},
    {"phases", "total", ByHand{kJsonNumber, WritePhaseTotal}},
    {"funnel", "objects", &QlogRecord::objects},
    {"funnel", "candidates", &QlogRecord::candidates},
    {"funnel", "verified", &QlogRecord::verified},
    {"funnel", "stopped", &QlogRecord::stopped, Presence::kOptional},
    {"funnel", "distance_computations", &QlogRecord::distance_computations},
    {"funnel", "tau_low_max", &QlogRecord::tau_low_max, Presence::kOptional},
    {"grid", "reused", &QlogRecord::grid_reused},
    {"grid", "cells_small", &QlogRecord::cells_small},
    {"grid", "cells_large", &QlogRecord::cells_large},
    {"winner", "id", &QlogRecord::winner_id},
    {"winner", "score", &QlogRecord::winner_score},
    {"labels", "outcome", &QlogRecord::label_outcome},
    {"labels", "points_pruned", &QlogRecord::points_pruned_by_labels},
    {"outcome", "status", &QlogRecord::status},
    {"outcome", "complete", &QlogRecord::complete},
    {"outcome", "degradation_level", &QlogRecord::degradation_level},
    {"env", "git", &QlogRecord::git, Presence::kOptional},
    {"env", "kernel_tier", &QlogRecord::kernel_tier},
    {"memory", "index_bytes", &QlogRecord::index_memory_bytes},
    {"memory", "peak_bytes", &QlogRecord::peak_memory_bytes},
    {"memory", "parts", ByHand{kJsonObject, WriteMemoryParts},
     Presence::kIfSet},
    {"memory", "tracker", ByHand{kJsonObject, WriteTracker}, Presence::kIfSet},
    {"trace", "dropped_spans", &QlogRecord::trace_dropped_spans},
    {"batch", "id", &QlogRecord::batch_id},
    {"batch", "size", &QlogRecord::batch_size},
    {"server", "request_id", &QlogRecord::server_request_id},
    {"server", "correlation_id", &QlogRecord::server_correlation_id,
     Presence::kIfSet},
    {"server", "client", &QlogRecord::server_client, Presence::kIfSet},
    {"server", "role", &QlogRecord::server_role},
    {"server", "queue_wait_seconds", &QlogRecord::server_queue_wait_seconds},
    {"server", "e2e_seconds", &QlogRecord::server_e2e_seconds},
    {"server", "refusal", &QlogRecord::server_refusal, Presence::kIfSet},
    {"server", "retry_after_ms", &QlogRecord::server_retry_after_ms,
     Presence::kIfSet},
    {"server", "stages", ByHand{kJsonObject, WriteStages},
     Presence::kOptional},
    {"", "verify_load_balance", ByHand{kJsonObject, WriteLoadBalance},
     Presence::kIfSet},
    {"", "compression", ByHand{kJsonObject, WriteCompression},
     Presence::kIfSet},
    {"", "metrics", ByHand{kJsonObject, WriteMetrics}, Presence::kIfSet},
};

/// The sections added after the schema began: optional on read, and
/// written only when `written` holds (always when null). Every other
/// section is always written and required on read.
struct OptionalSection {
  const char* name;
  bool (QlogRecord::*written)() const;
};
constexpr OptionalSection kOptionalSections[] = {
    {"grid", nullptr},
    {"batch", &QlogRecord::Batched},
    {"server", &QlogRecord::HasServer}};

const OptionalSection* FindOptionalSection(std::string_view name) {
  for (const OptionalSection& s : kOptionalSections) {
    if (name == s.name) return &s;
  }
  return nullptr;
}

// The value of a kIfSet field counts as set when true, non-empty or > 0.
bool IsSet(const std::string& v) { return !v.empty(); }
template <typename T>
bool IsSet(T v) {
  return v > T{};
}

void Put(JsonWriter& w, std::uint64_t v) { w.UInt(v); }
void Put(JsonWriter& w, std::uint32_t v) { w.UInt(v); }
void Put(JsonWriter& w, int v) { w.Int(v); }
void Put(JsonWriter& w, double v) { w.Double(v); }
void Put(JsonWriter& w, const std::string& v) { w.String(v); }
void Put(JsonWriter& w, bool v) { w.Bool(v); }

void WriteField(JsonWriter& w, const Field& f, const QlogRecord& rec) {
  std::visit(
      [&](const auto& member) {
        if constexpr (std::is_same_v<std::decay_t<decltype(member)>, ByHand>) {
          member.write(w, f.key, rec);
        } else if (f.presence != Presence::kIfSet || IsSet(rec.*member)) {
          Put(w.Key(f.key), rec.*member);
        }
      },
      f.member);
}

/// A number the writer can emit back: JSON has no Inf, and "1e999"
/// parses to one.
bool IsFiniteNumber(const JsonValue& v) {
  return v.IsNumber() && std::isfinite(v.AsDouble());
}

// Each Get reads a present value into its member, or returns false when
// the value has the wrong type. An unsigned member also refuses a value
// it cannot hold: AsUInt would read a negative as 0 and saturate 2^64 or
// more, and a cast to uint32 would wrap.
bool Get(const JsonValue& v, std::uint64_t* out) {
  if (!IsFiniteNumber(v) || v.AsDouble() < 0.0 || v.AsDouble() >= 0x1p64) {
    return false;
  }
  *out = v.AsUInt();
  return true;
}
bool Get(const JsonValue& v, std::uint32_t* out) {
  std::uint64_t wide = 0;
  if (!Get(v, &wide) || wide > std::numeric_limits<std::uint32_t>::max()) {
    return false;
  }
  *out = static_cast<std::uint32_t>(wide);
  return true;
}
/// Clamped to int's range, so a parsed record serialises to the value it
/// holds.
bool Get(const JsonValue& v, int* out) {
  if (!IsFiniteNumber(v)) return false;
  *out = static_cast<int>(
      std::clamp(v.AsDouble(), double{std::numeric_limits<int>::min()},
                 double{std::numeric_limits<int>::max()}));
  return true;
}
bool Get(const JsonValue& v, double* out) {
  if (!IsFiniteNumber(v)) return false;
  *out = v.AsDouble();
  return true;
}
bool Get(const JsonValue& v, std::string* out) {
  if (!v.IsString()) return false;
  *out = v.AsString();
  return true;
}
bool Get(const JsonValue& v, bool* out) {
  if (!v.IsBool()) return false;
  *out = v.AsBool();
  return true;
}

bool ReadField(const Field& f, const JsonValue& v, QlogRecord* rec) {
  return std::visit(
      [&](const auto& member) {
        if constexpr (std::is_same_v<std::decay_t<decltype(member)>, ByHand>) {
          return v.type() == member.type &&
                 (!v.IsNumber() || IsFiniteNumber(v));
        } else {
          return Get(v, &(rec->*member));
        }
      },
      f.member);
}

Status Missing(std::string_view section, std::string_view key) {
  std::string name(section);
  if (!name.empty()) name += ".";
  name += key;
  return Status::InvalidArgument("qlog: missing or wrong-typed " + name);
}

}  // namespace

QlogRecord BuildQlogRecord(QlogRecord rec, const QueryResult* result,
                           const MetricsSnapshot* metrics) {
  rec.ceil_r = CeilClass(rec.r);
  rec.git = GitDescribe();
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
  rec.stopped = stats.num_stopped;
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
  std::string_view open;  // the section of the previous row
  bool written = true;    // whether `open` is written
  for (const Field& f : kFields) {
    if (f.section != open) {
      if (!open.empty() && written) w.EndObject();
      open = f.section;
      const OptionalSection* optional = FindOptionalSection(open);
      written = optional == nullptr || optional->written == nullptr ||
                (rec.*optional->written)();
      if (!open.empty() && written) w.Key(open).BeginObject();
    }
    if (written) WriteField(w, f, rec);
  }
  w.EndObject();
  return std::move(w).Take();
}

Status ValidateQlogLine(std::string_view line) {
  QlogRecord discarded;
  return ParseQlogRecord(line, &discarded);
}

Status ParseQlogRecord(std::string_view line, QlogRecord* out) {
  JsonValue doc;
  std::string error;
  if (!ParseJson(line, &doc, &error)) {
    return Status::InvalidArgument("qlog: bad JSON: " + error);
  }
  if (!doc.IsObject()) {
    return Status::InvalidArgument("qlog: record is not a JSON object");
  }
  const JsonValue* schema = doc.Find("schema");
  if (schema == nullptr || !schema->IsString() ||
      schema->AsString() != kQlogSchema) {
    return Status::InvalidArgument(std::string("qlog: schema is not ") +
                                   kQlogSchema);
  }
  QlogRecord rec;
  std::string_view open;            // the section of the previous row
  const JsonValue* section = &doc;  // its object; null when absent
  for (const Field& f : kFields) {
    if (f.section != open) {
      open = f.section;
      section = open.empty() ? &doc : doc.Find(open);
      if (section == nullptr ? FindOptionalSection(open) == nullptr
                             : !section->IsObject()) {
        return Status::InvalidArgument(
            "qlog: missing or wrong-typed section " + std::string(open));
      }
    }
    if (section == nullptr) continue;  // an absent optional section
    const JsonValue* v = section->Find(f.key);
    if (v == nullptr ? f.presence == Presence::kRequired
                     : !ReadField(f, *v, &rec)) {
      return Missing(f.section, f.key);
    }
  }

  // The rules no row expresses: the two enums, the two non-empty
  // strings, and the stage timestamps.
  LabelOutcome label_outcome = LabelOutcome::kOff;
  if (!ParseLabelOutcome(rec.label_outcome, &label_outcome)) {
    return Status::InvalidArgument("qlog: unknown labels.outcome \"" +
                                   rec.label_outcome + "\"");
  }
  if (rec.status.empty()) {
    return Status::InvalidArgument("qlog: empty outcome.status");
  }
  if (const JsonValue* server = doc.Find("server")) {
    if (rec.server_request_id.empty()) {
      return Status::InvalidArgument("qlog: empty server.request_id");
    }
    if (!IsServerRole(rec.server_role)) {
      return Status::InvalidArgument("qlog: unknown server.role \"" +
                                     rec.server_role + "\"");
    }
    if (const JsonValue* stages = server->Find("stages")) {
      for (std::size_t i = 0; i < rec.server_stages.size(); ++i) {
        const JsonValue* v = stages->Find(kServerStageNames[i]);
        if (v == nullptr) continue;
        if (!Get(*v, &rec.server_stages[i])) {
          return Missing("server.stages", kServerStageNames[i]);
        }
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

std::string ServerTraceFileName(std::uint64_t seq) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "r%06llu.trace.json",
                static_cast<unsigned long long>(seq));
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
  for (const std::string& name :
       {TailTraceFileName(query_index), ServerTraceFileName(query_index)}) {
    if (FileExists(dir + name)) return dir + name;
  }
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
  std::vector<std::vector<double>> phase_values(std::size(kPhases));
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
    for (std::size_t i = 0; i < std::size(kPhases); ++i) {
      phase_values[i].push_back(rec.*kPhases[i].seconds);
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
    } else if (rec.server_role == kRoleFollower) {
      ++report.server_coalesced;
    } else if (rec.server_role == kRoleCached) {
      ++report.server_cached;
    }
  }
  report.server_queue_wait = SummarizeLatency(std::move(server_queue_wait));
  report.server_execute = SummarizeLatency(std::move(server_execute));
  report.server_e2e = SummarizeLatency(std::move(server_e2e));

  double phase_sum = 0.0;
  for (std::size_t i = 0; i < std::size(kPhases); ++i) {
    QlogPhaseAggregate agg;
    agg.name = kPhases[i].name;
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
