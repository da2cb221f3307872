#include "server/protocol.hpp"

#include <cmath>
#include <limits>

#include "obs/json.hpp"

namespace mio {
namespace server {

namespace {

bool KnownOp(const std::string& op) {
  return op == "query" || op == "ping" || op == "health" ||
         op == "metrics" || op == "stats";
}

/// False when field `key` is a number that is non-finite or outside
/// [lo, hi). Absent and non-numeric fields pass: their getters fall back.
bool NumberInRange(const obs::JsonValue& doc, std::string_view key,
                   double lo, double hi) {
  const obs::JsonValue* v = doc.Find(key);
  if (v == nullptr || !v->IsNumber()) return true;
  const double x = v->AsDouble();
  return std::isfinite(x) && x >= lo && x < hi;
}

}  // namespace

std::string ServeRequestToJsonLine(const ServeRequest& req) {
  obs::JsonWriter w;
  w.BeginObject();
  w.Key("schema").String(kServeSchema);
  w.Key("id").String(req.id);
  w.Key("op").String(req.op);
  if (req.op == "query") {
    w.Key("r").Double(req.r);
    w.Key("k").UInt(req.k);
    w.Key("threads").Int(req.threads);
    w.Key("use_labels").Bool(req.use_labels);
    w.Key("deadline_ms").Double(req.deadline_ms);
    w.Key("no_coalesce").Bool(req.no_coalesce);
  }
  w.EndObject();
  return std::move(w).Take();
}

Status ParseServeRequest(std::string_view line, ServeRequest* out) {
  if (line.size() > kMaxLineBytes) {
    return Status::InvalidArgument("request line exceeds size cap");
  }
  obs::JsonValue doc;
  std::string err;
  if (!obs::ParseJson(line, &doc, &err)) {
    return Status::InvalidArgument("malformed request: " + err);
  }
  if (!doc.IsObject()) {
    return Status::InvalidArgument("request must be a JSON object");
  }
  const std::string schema = doc.GetString("schema");
  if (schema != kServeSchema) {
    return Status::InvalidArgument("unknown request schema '" + schema + "'");
  }
  ServeRequest req;
  req.id = doc.GetString("id");
  req.op = doc.GetString("op", "query");
  if (!KnownOp(req.op)) {
    return Status::InvalidArgument("unknown op '" + req.op + "'");
  }
  if (req.op == "query") {
    const obs::JsonValue* r = doc.Find("r");
    if (r == nullptr || !r->IsNumber()) {
      return Status::InvalidArgument("query op requires numeric 'r'");
    }
    req.r = r->AsDouble();
    if (!(req.r > 0.0 && std::isfinite(req.r))) {
      return Status::InvalidArgument("query radius must be finite and > 0");
    }
    // Checked before the casts below, which are undefined past their
    // target type's range ("1e999" parses to +inf).
    const double inf = std::numeric_limits<double>::infinity();
    if (!NumberInRange(doc, "k", 0.0, 0x1p64) ||
        !NumberInRange(doc, "threads", -0x1p31, 0x1p31) ||
        !NumberInRange(doc, "deadline_ms", -inf, inf)) {
      return Status::InvalidArgument(
          "query k, threads and deadline_ms must be finite and in range");
    }
    req.k = doc.GetUInt("k", 1);
    if (req.k == 0) req.k = 1;
    req.threads = static_cast<int>(doc.GetDouble("threads", 1.0));
    if (req.threads < 1) req.threads = 1;
    req.use_labels = doc.GetBool("use_labels", false);
    req.deadline_ms = doc.GetDouble("deadline_ms", 0.0);
    if (req.deadline_ms < 0.0) req.deadline_ms = 0.0;
    req.no_coalesce = doc.GetBool("no_coalesce", false);
  }
  *out = std::move(req);
  return Status::OK();
}

std::string ServeResponseToJsonLine(const ServeResponse& res) {
  obs::JsonWriter w;
  w.BeginObject();
  w.Key("schema").String(kServeSchema);
  w.Key("id").String(res.id);
  if (!res.request_id.empty()) w.Key("request_id").String(res.request_id);
  w.Key("status").String(StatusCodeName(res.status));
  w.Key("exit_code").Int(ExitCodeFor(res.status));
  if (!res.error.empty()) w.Key("error").String(res.error);
  w.Key("complete").Bool(res.complete);
  w.Key("coalesced").Bool(res.coalesced);
  w.Key("cached").Bool(res.cached);
  if (res.retry_after_ms > 0.0) {
    w.Key("retry_after_ms").Double(res.retry_after_ms);
  }
  w.Key("wall_seconds").Double(res.wall_seconds);
  w.Key("topk").BeginArray();
  for (const ScoredObject& s : res.topk) {
    w.BeginObject();
    w.Key("id").UInt(s.id);
    w.Key("tau").UInt(s.score);
    w.EndObject();
  }
  w.EndArray();
  if (!res.payload.empty()) w.Key("payload").String(res.payload);
  w.EndObject();
  return std::move(w).Take();
}

Status ParseServeResponse(std::string_view line, ServeResponse* out) {
  if (line.size() > kMaxLineBytes) {
    return Status::Corruption("response line exceeds size cap");
  }
  obs::JsonValue doc;
  std::string err;
  if (!obs::ParseJson(line, &doc, &err)) {
    return Status::Corruption("malformed response: " + err);
  }
  if (!doc.IsObject() || doc.GetString("schema") != kServeSchema) {
    return Status::Corruption("response is not mio-serve-v1");
  }
  ServeResponse res;
  res.id = doc.GetString("id");
  res.request_id = doc.GetString("request_id");
  const std::string status_name = doc.GetString("status", "Internal");
  if (!StatusCodeFromName(status_name, &res.status)) {
    return Status::Corruption("unknown status '" + status_name + "'");
  }
  res.error = doc.GetString("error");
  res.complete = doc.GetBool("complete", true);
  res.coalesced = doc.GetBool("coalesced", false);
  res.cached = doc.GetBool("cached", false);
  res.retry_after_ms = doc.GetDouble("retry_after_ms", 0.0);
  res.wall_seconds = doc.GetDouble("wall_seconds", 0.0);
  if (const obs::JsonValue* topk = doc.Find("topk"); topk != nullptr) {
    for (const obs::JsonValue& e : topk->elements()) {
      ScoredObject s;
      s.id = static_cast<ObjectId>(e.GetUInt("id"));
      s.score = static_cast<std::uint32_t>(e.GetUInt("tau"));
      res.topk.push_back(s);
    }
  }
  res.payload = doc.GetString("payload");
  *out = std::move(res);
  return Status::OK();
}

}  // namespace server
}  // namespace mio
