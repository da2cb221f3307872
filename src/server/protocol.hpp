// Wire protocol of `mio serve` ("mio-serve-v1"): newline-delimited JSON
// over a local stream socket. One request line in, one response line out,
// in order per connection; a connection may carry any number of
// request/response pairs. The protocol is deliberately line-oriented so
// the client, the check scripts, and ad-hoc debugging (socat) all speak
// it with nothing but a JSON parser.
//
// Request:
//   {"schema":"mio-serve-v1","id":"q1","op":"query","r":4.0,"k":1,
//    "threads":1,"use_labels":false,"deadline_ms":0,"no_coalesce":false}
// ops: "query" (the MIO query), "ping" (liveness), "health" (server
// state + queue depth), "metrics" (OpenMetrics text in `payload`),
// "stats" (live server snapshot JSON in `payload` — queue/ladder/
// inflight/per-client/cache state, rendered by `mio top`).
// `id` is an optional client-supplied correlation id; the server echoes
// it back and stamps it into its qlog/evlog records alongside the
// server-assigned request id.
//
// Response:
//   {"schema":"mio-serve-v1","id":"q1","request_id":"r000042",
//    "status":"OK","exit_code":0,"complete":true,"coalesced":false,
//    "cached":false,"retry_after_ms":0,"wall_seconds":0.01,
//    "topk":[{"id":7,"tau":42}]}
// `status` carries the canonical StatusCodeName; "Overloaded" responses
// set retry_after_ms as the server's backoff hint. `request_id` is the
// server-assigned id for this request — quote it when correlating a
// response with the server's qlog, evlog, and tail trace files.
// Readers of either direction MUST ignore unknown keys (that is how
// request_id arrived in v1 without a version bump).
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "common/status.hpp"
#include "core/query_result.hpp"

namespace mio {
namespace server {

inline constexpr const char* kServeSchema = "mio-serve-v1";

/// Hard cap on one request/response line. Requests are tiny; the cap
/// exists so a misbehaving client cannot grow the session buffer
/// unboundedly. Responses (top-k lists, metrics payloads) stay well
/// under it for any realistic k.
inline constexpr std::size_t kMaxLineBytes = 1 << 20;

/// One client request.
struct ServeRequest {
  std::string id;          ///< client correlation id, echoed back
  std::string op = "query";
  double r = 0.0;
  std::uint64_t k = 1;
  int threads = 1;
  bool use_labels = false;
  double deadline_ms = 0.0;
  /// Opt out of coalescing and the result cache for this request (the
  /// differential checks use it to force real executions).
  bool no_coalesce = false;
};

/// One server response.
struct ServeResponse {
  std::string id;
  std::string request_id;   ///< server-assigned id ("r000042")
  StatusCode status = StatusCode::kOk;
  std::string error;        ///< message for non-OK statuses
  bool complete = true;     ///< QueryResult::complete
  bool coalesced = false;   ///< folded into an identical in-flight query
  bool cached = false;      ///< served from the result cache
  double retry_after_ms = 0.0;  ///< backoff hint on Overloaded
  double wall_seconds = 0.0;
  std::vector<ScoredObject> topk;
  std::string payload;      ///< health/metrics op payload
};

/// Serialises a request as one JSON line (no trailing newline).
std::string ServeRequestToJsonLine(const ServeRequest& req);

/// Parses and validates one request line. Unknown ops, missing/invalid
/// radii on "query", a non-finite or out-of-range numeric k, threads or
/// deadline_ms, and non-object documents are kInvalidArgument.
Status ParseServeRequest(std::string_view line, ServeRequest* out);

/// Serialises a response as one JSON line (no trailing newline).
std::string ServeResponseToJsonLine(const ServeResponse& res);

/// Parses one response line (the client side). A response whose schema
/// or status name is unknown is kCorruption — the client must not
/// mistake it for a success.
Status ParseServeResponse(std::string_view line, ServeResponse* out);

}  // namespace server
}  // namespace mio
