// OpenMetrics/Prometheus text exposition for the metrics registry.
//
// Renders a MetricsSnapshot (plus caller-supplied process gauges) in the
// Prometheus text format with an OpenMetrics `# EOF` terminator:
// counters as `mio_<name>_total`, histograms converted from the
// registry's log2 buckets to cumulative `le`-bucket form. Files are
// written atomically (tmp + rename) so a scraper — or a SIGTERM arriving
// mid-write — never observes a partial exposition.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace mio {
namespace obs {

/// One cumulative `le` bucket derived from a log2 histogram.
struct LeBucket {
  std::uint64_t le = 0;        ///< upper bound (ignored when infinite)
  bool infinite = false;       ///< the terminating +Inf bucket
  std::uint64_t cumulative = 0;  ///< observations <= le
};

/// Converts a log2 histogram to cumulative `le` buckets. Observations
/// are integers, so log2 bucket b (values in [2^(b-1), 2^b)) closes at
/// le = 2^b - 1; bucket 0 (exactly the value 0) closes at le = 0. The
/// top bucket is clamped (absorbs values >= 2^(kBuckets-1)) and folds
/// into +Inf only. Buckets above the highest populated one are trimmed;
/// the +Inf bucket always terminates the list, so an empty histogram
/// yields a single +Inf bucket with cumulative 0.
std::vector<LeBucket> CumulativeLeBuckets(const HistogramSnapshot& h);

/// A process-health sample rendered alongside the registry.
/// `name` must be OpenMetrics-legal and carries no "mio_" prefix;
/// counters get "_total" appended by the writer.
struct ExtraSample {
  std::string name;
  const char* type = "gauge";  ///< "gauge" or "counter"
  double value = 0.0;
};

/// Renders the full exposition: every registry counter, every extra
/// sample, then every histogram, terminated by `# EOF`.
std::string OpenMetricsText(const MetricsSnapshot& snap,
                            const std::vector<ExtraSample>& extras);

/// Writes `content` to `path` atomically: write `path.tmp`, fsync,
/// rename over `path`. Returns false (with `*error` set when non-null)
/// on any failure; `path` is left untouched in that case.
bool WriteFileAtomic(const std::string& path, const std::string& content,
                     std::string* error);

/// OpenMetricsText + WriteFileAtomic in one call.
bool WriteOpenMetricsFile(const std::string& path,
                          const MetricsSnapshot& snap,
                          const std::vector<ExtraSample>& extras,
                          std::string* error);

}  // namespace obs
}  // namespace mio
