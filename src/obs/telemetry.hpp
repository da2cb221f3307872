// Continuous telemetry: a background sampler thread that periodically
// snapshots the metrics registry plus process health (/proc/self) and
// writes an OpenMetrics scrape file atomically after every sample. It
// keeps no history: a scraper derives rates from the counters.
//
// The sampler takes one sample immediately on Start() and one final
// sample on Stop(), so even a run shorter than the interval — or one
// killed by SIGTERM between intervals — leaves a valid, recent scrape
// file behind (each write is tmp+rename, never partial).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/openmetrics.hpp"

namespace mio {
namespace obs {

/// Process health read from /proc/self and getrusage.
struct ProcessHealth {
  std::uint64_t rss_bytes = 0;       ///< VmRSS
  std::uint64_t peak_rss_bytes = 0;  ///< VmHWM (high-water RSS)
  double cpu_seconds = 0.0;          ///< user + system time
  int open_fds = -1;                 ///< /proc/self/fd entries; -1 unknown
  int threads = -1;                  ///< /proc/self/status Threads:
};

/// Reads current process health. Fields that cannot be read (no /proc,
/// permission) stay at their "unknown" defaults; never fails.
ProcessHealth ReadProcessHealth();

struct TelemetryConfig {
  int interval_ms = 1000;    ///< sampling period
  std::string metrics_path;  ///< scrape file; empty = count samples only
};

/// The process gauges to render alongside a metrics snapshot. Usable
/// without a sampler — the exit-flush path and the server's metrics op
/// call this for their one-shot expositions.
std::vector<ExtraSample> ProcessExtraSamples(const ProcessHealth& health);

/// Background sampler. Start()/Stop() are not thread-safe against each
/// other; everything else may be called from any thread.
class TelemetrySampler {
 public:
  explicit TelemetrySampler(TelemetryConfig config);
  ~TelemetrySampler();

  TelemetrySampler(const TelemetrySampler&) = delete;
  TelemetrySampler& operator=(const TelemetrySampler&) = delete;

  /// Takes an immediate sample (writing the scrape file if configured)
  /// and launches the background thread. No-op when already running.
  void Start();

  /// Takes a final sample, stops and joins the thread. No-op when not
  /// running. The scrape file remains readable afterwards.
  void Stop();

  bool Running() const;

  /// Total samples taken since construction.
  std::uint64_t SampleCount() const;

  const TelemetryConfig& Config() const { return config_; }

 private:
  void Loop();
  void SampleOnce();  ///< counts the sample, writes the scrape

  TelemetryConfig config_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::thread thread_;
  bool running_ = false;
  bool stop_requested_ = false;
  std::uint64_t sample_count_ = 0;
};

}  // namespace obs
}  // namespace mio
