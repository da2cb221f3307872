// Hierarchical span tracer for the query pipeline. Spans are recorded
// into fixed-capacity thread-local ring buffers (no locks, no
// allocation on the hot path) and exported as Chrome trace_event JSON
// that loads in chrome://tracing and Perfetto — one track per OpenMP
// worker, so per-thread load imbalance (paper Fig. 9) is directly
// visible.
//
// Cost model:
//  - compile-time off: configure with -DMIO_TRACING=OFF and every
//    MIO_TRACE_SPAN site vanishes from the binary;
//  - runtime off (the default): a span is one relaxed atomic load and a
//    predicted branch;
//  - runtime on: two steady_clock reads plus one ring-buffer store.
//
// Enable at runtime with Tracer::Instance().SetEnabled(true), the
// MIO_TRACE=1 environment variable, or `mio query --trace-out=FILE`.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.hpp"

namespace mio {
namespace obs {

/// One completed span. `name` and `cat` must be string literals (or
/// otherwise outlive the tracer): the ring buffer stores the pointers.
struct TraceEvent {
  const char* name = nullptr;
  const char* cat = nullptr;
  std::int64_t start_ns = 0;  ///< relative to the tracer epoch
  std::int64_t dur_ns = 0;
  int tid = 0;   ///< per-process thread track, in registration order
  int depth = 0;  ///< nesting level at the time the span opened (0 = root)
};

namespace detail {
extern std::atomic<bool> g_trace_enabled;
}  // namespace detail

/// True when spans are being recorded. Relaxed load: the flag is a
/// sampling switch, not a synchronisation point.
inline bool TracingEnabled() {
  return detail::g_trace_enabled.load(std::memory_order_relaxed);
}

/// Process-wide span sink. Threads register a ring buffer on their first
/// span; buffers outlive their threads so snapshots stay valid.
class Tracer {
 public:
  /// Events kept per thread; older spans are overwritten (and counted as
  /// dropped) once a thread records more than this.
  static constexpr std::size_t kRingCapacity = 1 << 16;

  static Tracer& Instance();

  void SetEnabled(bool on);
  bool enabled() const { return TracingEnabled(); }

  /// Discards every recorded event (thread buffers are kept registered).
  void Clear();

  /// All recorded events, sorted by start time. Call at a quiescent
  /// point — concurrent in-flight spans may be missed or torn.
  std::vector<TraceEvent> Snapshot() const;

  /// Spans overwritten because a thread's ring filled up.
  std::uint64_t DroppedEvents() const;

  /// Number of threads that have recorded at least one span.
  std::size_t NumThreads() const;

  /// The Chrome trace_event document ({"traceEvents":[...]}) for the
  /// current contents, with one named track per recorded thread.
  /// `truncated` adds a top-level `"truncated": true` marker (the
  /// exit-flush path uses it to mark a document written before the query
  /// finished); ring overflow adds the same marker plus a
  /// `"dropped_spans": N` count on its own.
  std::string ToChromeTraceJson(bool truncated = false) const;

  /// Writes ToChromeTraceJson(truncated) to `path`.
  Status WriteChromeTrace(const std::string& path,
                          bool truncated = false) const;

 private:
  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;
};

/// RAII span: opens on construction when tracing is enabled, records one
/// complete event on destruction. Use via the MIO_TRACE_SPAN macros.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name, const char* cat = "mio") {
    if (TracingEnabled()) Begin(name, cat);
  }
  ~TraceSpan() {
    if (name_ != nullptr) End();
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  void Begin(const char* name, const char* cat);
  void End();

  const char* name_ = nullptr;
  const char* cat_ = nullptr;
  std::int64_t start_ns_ = 0;
};

}  // namespace obs
}  // namespace mio

// MIO_TRACE_SPAN("name") / MIO_TRACE_SPAN_CAT("name", "category") open a
// span covering the rest of the enclosing scope.
#define MIO_OBS_CONCAT2(a, b) a##b
#define MIO_OBS_CONCAT(a, b) MIO_OBS_CONCAT2(a, b)

#ifndef MIO_TRACING_DISABLED
#define MIO_TRACE_SPAN(name) \
  ::mio::obs::TraceSpan MIO_OBS_CONCAT(mio_trace_span_, __LINE__)(name)
#define MIO_TRACE_SPAN_CAT(name, cat) \
  ::mio::obs::TraceSpan MIO_OBS_CONCAT(mio_trace_span_, __LINE__)(name, cat)
#else
#define MIO_TRACE_SPAN(name) \
  do {                       \
  } while (false)
#define MIO_TRACE_SPAN_CAT(name, cat) \
  do {                                \
  } while (false)
#endif
