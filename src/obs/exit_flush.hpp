// Exit-time observability flush: a backstop so `--trace-out` and
// `--stats-json` still produce valid, truncation-marked documents when
// the process leaves through an abnormal path (SIGINT/SIGTERM mid-query,
// a library std::exit, an unwound fatal error) instead of the normal
// emission at the end of the command.
//
// Protocol: the CLI arms the flusher with the output paths (and a
// pre-rendered stats record: a schema-valid mio-qlog-v1 line for the
// run with outcome Cancelled, complete false and a top-level
// `"truncated": true`, so an interrupted run's file still loads with
// `mio qlog report`) before running the query, and disarms it after the
// normal emission succeeds. If the process exits while armed:
//  - atexit: the trace ring is exported with a top-level
//    `"truncated": true` marker and the pre-rendered record is written —
//    atexit runs on a normal stack;
//  - SIGINT/SIGTERM: only the pre-rendered record is written
//    (open/write/close are async-signal-safe; JSON rendering is not),
//    then the signal is re-raised with default disposition so the exit
//    status stays honest.
#pragma once

#include <string>

#include "obs/qlog.hpp"

namespace mio {
namespace obs {

struct ExitFlushConfig {
  std::string trace_path;  ///< "" = no trace flush
  std::string stats_path;  ///< "" = no stats flush ("-" writes stderr-safe fd 1)
  /// One complete JSON line (no trailing newline) written verbatim as the
  /// stats fallback. Must already carry its truncation marker
  /// (`"truncated": true`).
  std::string stats_document;
  /// "" = no metrics flush. On the atexit path a fresh OpenMetrics
  /// exposition of the registry (+ process health) is rendered and
  /// written atomically here. The signal path deliberately skips it:
  /// rendering is not async-signal-safe, and a stale pre-staged
  /// exposition could overwrite a fresher periodic scrape — the
  /// telemetry sampler's per-interval atomic writes already guarantee a
  /// valid scrape file survives SIGTERM.
  std::string metrics_path;
};

/// The stats fallback for a run interrupted before its record: the
/// record of `identity` (see BuildQlogRecord) with outcome Cancelled,
/// complete false and `"truncated": true`, as one JSON line.
std::string InterruptedRecordLine(QlogRecord identity);

/// Arms (or re-arms) the flush; installs the atexit hook and the
/// SIGINT/SIGTERM handlers on first use.
void ArmExitFlush(ExitFlushConfig cfg);

/// Disarms after a successful normal emission; the exit hook becomes a
/// no-op. Signal handlers stay installed but do nothing while disarmed.
void DisarmExitFlush();

bool ExitFlushArmed();

/// Performs the armed flush immediately and disarms (idempotent). This is
/// the atexit path, exposed so tests can drive it without exiting.
void FlushObservabilityNow();

}  // namespace obs
}  // namespace mio
