#include "obs/exit_flush.hpp"

#include <atomic>
#include <csignal>
#include <cstdlib>
#include <mutex>

#include <fcntl.h>
#include <unistd.h>

#include "obs/stats_sink.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"

namespace mio {
namespace obs {

namespace {

// The armed configuration. The mutex serialises Arm/Disarm/Flush from
// normal code; the signal handler reads only the pre-staged raw buffers
// below and never takes the lock.
std::mutex g_mu;
ExitFlushConfig g_cfg;
std::atomic<bool> g_armed{false};
bool g_hooks_installed = false;

// Signal-handler view of the stats fallback: a stable byte buffer and
// path, published before g_armed flips true. Sized generously — the
// fallback record is under a kilobyte (no detail sections).
constexpr std::size_t kSigBufCap = 4096;
char g_sig_stats_path[kSigBufCap];
char g_sig_stats_doc[kSigBufCap];
std::size_t g_sig_stats_len = 0;

void WriteAllFd(int fd, const char* data, std::size_t len) {
  while (len > 0) {
    ssize_t n = write(fd, data, len);
    if (n <= 0) return;
    data += n;
    len -= static_cast<std::size_t>(n);
  }
}

// Async-signal-safe: open/write/close only, on pre-staged buffers.
void SignalHandler(int sig) {
  if (g_armed.load(std::memory_order_acquire) && g_sig_stats_len > 0) {
    int fd = g_sig_stats_path[0] == '-' && g_sig_stats_path[1] == '\0'
                 ? STDOUT_FILENO
                 : open(g_sig_stats_path, O_CREAT | O_WRONLY | O_TRUNC, 0644);
    if (fd >= 0) {
      WriteAllFd(fd, g_sig_stats_doc, g_sig_stats_len);
      WriteAllFd(fd, "\n", 1);
      if (fd != STDOUT_FILENO) close(fd);
    }
  }
  // Restore the default disposition and re-raise so the process reports
  // death-by-signal (scripts watching the exit status stay correct).
  std::signal(sig, SIG_DFL);
  std::raise(sig);
}

void AtExitHook() { FlushObservabilityNow(); }

}  // namespace

std::string InterruptedRecordLine(QlogRecord identity) {
  QlogRecord rec = BuildQlogRecord(std::move(identity), /*result=*/nullptr);
  rec.status = StatusCodeName(StatusCode::kCancelled);
  rec.complete = false;
  rec.truncated = true;
  return QlogRecordToJsonLine(rec);
}

void ArmExitFlush(ExitFlushConfig cfg) {
  std::lock_guard<std::mutex> lock(g_mu);
  if (!g_hooks_installed) {
    std::atexit(AtExitHook);
    std::signal(SIGINT, SignalHandler);
    std::signal(SIGTERM, SignalHandler);
    g_hooks_installed = true;
  }
  // Stage the signal-path buffers before publishing the armed flag.
  g_sig_stats_len = 0;
  if (!cfg.stats_path.empty() && cfg.stats_path.size() < kSigBufCap &&
      cfg.stats_document.size() + 1 < kSigBufCap) {
    cfg.stats_path.copy(g_sig_stats_path, cfg.stats_path.size());
    g_sig_stats_path[cfg.stats_path.size()] = '\0';
    cfg.stats_document.copy(g_sig_stats_doc, cfg.stats_document.size());
    g_sig_stats_len = cfg.stats_document.size();
  }
  g_cfg = std::move(cfg);
  g_armed.store(true, std::memory_order_release);
}

void DisarmExitFlush() {
  std::lock_guard<std::mutex> lock(g_mu);
  g_armed.store(false, std::memory_order_release);
  g_cfg = ExitFlushConfig{};
  g_sig_stats_len = 0;
}

bool ExitFlushArmed() { return g_armed.load(std::memory_order_acquire); }

void FlushObservabilityNow() {
  std::lock_guard<std::mutex> lock(g_mu);
  if (!g_armed.load(std::memory_order_acquire)) return;
  g_armed.store(false, std::memory_order_release);
  g_sig_stats_len = 0;
  if (!g_cfg.trace_path.empty()) {
    (void)Tracer::Instance().WriteChromeTrace(g_cfg.trace_path,
                                              /*truncated=*/true);
  }
  if (!g_cfg.stats_path.empty() && !g_cfg.stats_document.empty()) {
    (void)WriteTextFile(g_cfg.stats_path, g_cfg.stats_document + "\n");
  }
  if (!g_cfg.metrics_path.empty()) {
    // Full-fidelity final exposition: atexit runs on a normal stack, so
    // a fresh snapshot + health read is safe here (unlike the signal
    // handler, which leaves the sampler's last atomic write in place).
    (void)WriteOpenMetricsFile(
        g_cfg.metrics_path, SnapshotMetrics(),
        ProcessExtraSamples(ReadProcessHealth()), nullptr);
  }
  g_cfg = ExitFlushConfig{};
}

}  // namespace obs
}  // namespace mio
