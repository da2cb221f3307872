// Per-request lifecycle context for `mio serve`. Every request accepted
// off a session gets a server-assigned request id and a RequestContext
// that rides with it through session -> admission -> worker -> response,
// collecting monotonic stage timestamps and outcome tags. The context is
// the single source for the request's qlog record (its "server" section)
// and the server latency histograms: one struct, one record per request.
//
// Timestamps are steady-clock seconds relative to server start, so stages
// within one process compare directly. A stage the request never reached
// stays at the kUnstamped sentinel; stage order for the stages a request
// did reach is monotonically non-decreasing by construction (each stamp
// reads the clock later than the previous one), and the check scripts
// re-verify that invariant from the qlog.
//
// Ownership: the session thread creates the context; the worker that
// executes the query stamps `dequeued`/`executed` through a shared_ptr.
// The session only reads those fields after its Execution::Await has
// observed the execution resolved under the execution's mutex, which
// orders the worker's writes before the session's reads — no atomics
// needed on the doubles.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>

namespace mio {
namespace server {

/// Canonical server request-id string for sequence `seq`: "r000042".
/// Width matches obs::ServerTraceFileName's zero padding, so a request's
/// trace file ("r000042.trace.json") is named after its id.
inline std::string FormatRequestId(std::uint64_t seq) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "r%06llu",
                static_cast<unsigned long long>(seq));
  return buf;
}

struct RequestContext {
  /// Stage not reached (timestamps are relative seconds, always >= 0
  /// when stamped).
  static constexpr double kUnstamped = -1.0;

  // Identity.
  std::uint64_t seq = 0;        ///< server-wide request sequence number
  std::string request_id;       ///< FormatRequestId(seq)
  std::string correlation_id;   ///< client-supplied id ("" = none)
  std::string client;           ///< connection id ("c3")

  // Stage timestamps (seconds since server start).
  double accepted = kUnstamped;   ///< request parsed off the session
  double enqueued = kUnstamped;   ///< pushed into the admission queue
  double dequeued = kUnstamped;   ///< worker picked the job up
  double executed = kUnstamped;   ///< engine query returned
  double responded = kUnstamped;  ///< response line handed to the socket

  // Outcome tags.
  std::string role;               ///< obs::kRole* ("" until resolved)
  std::string refusal;            ///< "" = accepted; else refusal reason
  /// Admission ladder step the request ran at (DegradationStep value;
  /// 0 = nothing shed).
  std::uint32_t shed_step = 0;

  bool Refused() const { return !refusal.empty(); }

  /// Seconds the request sat in the admission queue (0 when it never
  /// queued — cached/follower/refused requests).
  double QueueWaitSeconds() const {
    if (enqueued < 0.0 || dequeued < 0.0) return 0.0;
    double d = dequeued - enqueued;
    return d > 0.0 ? d : 0.0;
  }

  /// Accept-to-respond latency (0 until responded).
  double E2eSeconds() const {
    if (accepted < 0.0 || responded < 0.0) return 0.0;
    double d = responded - accepted;
    return d > 0.0 ? d : 0.0;
  }

  /// True when every stamped stage is in lifecycle order (unstamped
  /// stages are skipped). The differential gate re-checks this from the
  /// qlog; this form backs the unit tests.
  bool StagesMonotonic() const {
    const double stages[] = {accepted, enqueued, dequeued, executed,
                             responded};
    double prev = 0.0;
    bool have_prev = false;
    for (double s : stages) {
      if (s < 0.0) continue;
      if (have_prev && s < prev) return false;
      prev = s;
      have_prev = true;
    }
    return true;
  }
};

}  // namespace server
}  // namespace mio
