#include "obs/telemetry.hpp"

#include <dirent.h>
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace mio {
namespace obs {

namespace {

/// Parses "<key>:   <number> ..." lines out of /proc/self/status.
/// Returns true and sets *value when the key is present.
bool StatusField(const char* key, std::uint64_t* value) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return false;
  char line[256];
  std::size_t key_len = std::strlen(key);
  bool found = false;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, key, key_len) != 0 || line[key_len] != ':') {
      continue;
    }
    char* p = line + key_len + 1;
    *value = std::strtoull(p, nullptr, 10);
    found = true;
    break;
  }
  std::fclose(f);
  return found;
}

int CountOpenFds() {
  DIR* d = opendir("/proc/self/fd");
  if (d == nullptr) return -1;
  int n = 0;
  while (struct dirent* e = readdir(d)) {
    if (e->d_name[0] != '.') ++n;
  }
  closedir(d);
  // The directory stream itself holds one fd while we count.
  return n > 0 ? n - 1 : n;
}

}  // namespace

ProcessHealth ReadProcessHealth() {
  ProcessHealth h;
  std::uint64_t kb = 0;
  if (StatusField("VmRSS", &kb)) h.rss_bytes = kb * 1024;
  if (StatusField("VmHWM", &kb)) h.peak_rss_bytes = kb * 1024;
  std::uint64_t threads = 0;
  if (StatusField("Threads", &threads)) {
    h.threads = static_cast<int>(threads);
  }
  h.open_fds = CountOpenFds();
  struct rusage ru;
  if (getrusage(RUSAGE_SELF, &ru) == 0) {
    h.cpu_seconds =
        static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
        static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
    if (h.peak_rss_bytes == 0 && ru.ru_maxrss > 0) {
      h.peak_rss_bytes = static_cast<std::uint64_t>(ru.ru_maxrss) * 1024;
    }
  }
  return h;
}

std::vector<ExtraSample> ProcessExtraSamples(const ProcessHealth& health) {
  std::vector<ExtraSample> out;
  out.push_back({"process_resident_memory_bytes", "gauge",
                 static_cast<double>(health.rss_bytes)});
  out.push_back({"process_peak_resident_memory_bytes", "gauge",
                 static_cast<double>(health.peak_rss_bytes)});
  out.push_back({"process_cpu_seconds", "counter", health.cpu_seconds});
  if (health.open_fds >= 0) {
    out.push_back({"process_open_fds", "gauge",
                   static_cast<double>(health.open_fds)});
  }
  if (health.threads >= 0) {
    out.push_back(
        {"process_threads", "gauge", static_cast<double>(health.threads)});
  }
  return out;
}

TelemetrySampler::TelemetrySampler(TelemetryConfig config)
    : config_(std::move(config)) {
  if (config_.interval_ms < 10) config_.interval_ms = 10;
}

TelemetrySampler::~TelemetrySampler() { Stop(); }

void TelemetrySampler::Start() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (running_) return;
    running_ = true;
    stop_requested_ = false;
  }
  // The immediate first sample guarantees a scrape file exists before
  // any query runs — a process killed inside its first interval still
  // leaves a valid exposition behind.
  SampleOnce();
  thread_ = std::thread(&TelemetrySampler::Loop, this);
}

void TelemetrySampler::Stop() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (!running_) return;
    stop_requested_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  SampleOnce();  // final sample: the scrape file reflects the full run
  std::unique_lock<std::mutex> lock(mu_);
  running_ = false;
}

bool TelemetrySampler::Running() const {
  std::unique_lock<std::mutex> lock(mu_);
  return running_;
}

std::uint64_t TelemetrySampler::SampleCount() const {
  std::unique_lock<std::mutex> lock(mu_);
  return sample_count_;
}

void TelemetrySampler::Loop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_requested_) {
    cv_.wait_for(lock, std::chrono::milliseconds(config_.interval_ms));
    if (stop_requested_) break;
    lock.unlock();
    SampleOnce();
    lock.lock();
  }
}

void TelemetrySampler::SampleOnce() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    ++sample_count_;
  }
  Add(Counter::kTelemetrySamples);
  if (config_.metrics_path.empty()) return;
  // Written outside the lock: a slow disk must not stall readers.
  WriteFileAtomic(config_.metrics_path,
                  OpenMetricsText(SnapshotMetrics(),
                                  ProcessExtraSamples(ReadProcessHealth())),
                  nullptr);
}

}  // namespace obs
}  // namespace mio
