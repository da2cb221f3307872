// Workload executor: runs a WorkloadSpec's query sequence through one
// MioEngine (so label and grid caches persist across queries, as in the
// paper's BIGrid-label experiments), appending one mio-qlog-v1 record per
// query and keeping Chrome traces only for tail queries (latency
// threshold and/or slowest-N — see obs/qlog.hpp).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "obs/qlog.hpp"
#include "object/object_set.hpp"
#include "workload/workload_spec.hpp"

namespace mio {

struct WorkloadRunOptions {
  /// Dataset display name stamped into qlog records ("" falls back to the
  /// spec's dataset path).
  std::string dataset_name;

  /// JSONL output path ("-" = stdout, "" = no qlog).
  std::string qlog_path;

  /// Directory for tail trace files (created if missing). "" disables
  /// trace export even when `tail` is configured.
  std::string trace_dir;

  /// Which queries keep a trace. Tracing is armed for *every* query (so
  /// any query can turn out to be tail), but only tail queries' traces
  /// reach disk, named q<index>.trace.json.
  obs::TailSamplerConfig tail;

  /// Label directory handed to the engine (external label residency);
  /// "" keeps labels in memory only.
  std::string label_dir;

  /// Fold the spec's query directives into one MioEngine::QueryBatch
  /// call instead of a sequential Query loop. Qlog records then carry a
  /// "batch" section (id + size) so `mio qlog report` can split batched
  /// vs. sequential latencies. Per-query trace export is disabled in
  /// batch mode (members run inside one engine call); the tail set is
  /// still computed from per-member engine timings.
  bool batch = false;

  /// OpenMetrics scrape file, written atomically by the background
  /// telemetry sampler after every interval (and once immediately on
  /// start, once on finish). "" disables the sampler entirely.
  std::string metrics_out;

  /// Sampler interval in milliseconds.
  int telemetry_interval_ms = 1000;

  /// Per-query progress lines on stderr.
  bool verbose = false;
};

struct WorkloadRunSummary {
  std::size_t queries = 0;
  std::size_t failed = 0;      ///< non-OK status (guardrail trips etc.)
  std::size_t incomplete = 0;  ///< complete == false
  double wall_seconds = 0.0;   ///< whole workload, including engine reuse
  std::size_t qlog_records = 0;
  std::vector<std::uint64_t> tail_indices;  ///< final tail set, sorted
  std::size_t traces_written = 0;           ///< files currently on disk
  std::size_t traces_evicted = 0;           ///< written then deleted
  std::uint64_t telemetry_samples = 0;      ///< sampler ticks (0 = off)
};

/// Runs the workload against `objects` (sampled per the spec first).
/// Queries run sequentially in spec order; an individual query's
/// guardrail trip is recorded in its qlog line, not fatal. Fails only on
/// setup/IO errors (spec-less datasets, unwritable qlog or trace dir).
Result<WorkloadRunSummary> RunWorkload(const ObjectSet& objects,
                                       const WorkloadSpec& spec,
                                       const WorkloadRunOptions& opts);

}  // namespace mio
