#include "obs/openmetrics.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "common/fault_injection.hpp"

namespace mio {
namespace obs {

namespace {

void AppendDouble(std::string* out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  out->append(buf);
}

void AppendU64(std::string* out, std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%llu",
                static_cast<unsigned long long>(v));
  out->append(buf);
}

}  // namespace

std::vector<LeBucket> CumulativeLeBuckets(const HistogramSnapshot& h) {
  // Highest populated bucket below the clamped top one; the top bucket's
  // nominal range is open-ended, so its mass lives only in +Inf.
  int last = -1;
  for (int b = 0; b < HistogramSnapshot::kBuckets - 1; ++b) {
    if (h.buckets[static_cast<std::size_t>(b)] != 0) last = b;
  }
  std::vector<LeBucket> out;
  out.reserve(static_cast<std::size_t>(last) + 2);
  std::uint64_t cum = 0;
  for (int b = 0; b <= last; ++b) {
    cum += h.buckets[static_cast<std::size_t>(b)];
    LeBucket lb;
    lb.le = b == 0 ? 0 : (std::uint64_t{1} << b) - 1;
    lb.cumulative = cum;
    out.push_back(lb);
  }
  LeBucket inf;
  inf.infinite = true;
  inf.cumulative = h.count;
  out.push_back(inf);
  return out;
}

std::string OpenMetricsText(const MetricsSnapshot& snap,
                            const std::vector<ExtraSample>& extras) {
  std::string out;
  out.reserve(4096);
  for (int c = 0; c < kNumCounters; ++c) {
    const std::string name = CounterMetricName(static_cast<Counter>(c));
    out += "# TYPE mio_";
    out += name;
    out += " counter\nmio_";
    out += name;
    out += "_total ";
    AppendU64(&out, snap.counters[static_cast<std::size_t>(c)]);
    out += '\n';
  }
  for (const ExtraSample& e : extras) {
    out += "# TYPE mio_";
    out += e.name;
    out += ' ';
    out += e.type;
    out += "\nmio_";
    out += e.name;
    if (std::strcmp(e.type, "counter") == 0) out += "_total";
    out += ' ';
    AppendDouble(&out, e.value);
    out += '\n';
  }
  for (int h = 0; h < kNumHistograms; ++h) {
    const std::string name = HistogramMetricName(static_cast<Histogram>(h));
    const HistogramSnapshot& hs = snap.histograms[static_cast<std::size_t>(h)];
    out += "# TYPE mio_";
    out += name;
    out += " histogram\n";
    for (const LeBucket& lb : CumulativeLeBuckets(hs)) {
      out += "mio_";
      out += name;
      out += "_bucket{le=\"";
      if (lb.infinite) {
        out += "+Inf";
      } else {
        AppendU64(&out, lb.le);
      }
      out += "\"} ";
      AppendU64(&out, lb.cumulative);
      out += '\n';
    }
    out += "mio_";
    out += name;
    out += "_sum ";
    AppendU64(&out, hs.sum);
    out += "\nmio_";
    out += name;
    out += "_count ";
    AppendU64(&out, hs.count);
    out += '\n';
  }
  out += "# EOF\n";
  return out;
}

bool WriteFileAtomic(const std::string& path, const std::string& content,
                     std::string* error) {
  // Fault site for the exposition write path: the sampler and the
  // exit-flush backstop must survive persistent failures here without
  // tearing the last valid file (which this function never does — the
  // failure is injected before the temp file is even created).
  if (MIO_FAULT_HIT("io.metrics.write")) {
    if (error != nullptr) *error = "write " + path + ": injected fault";
    return false;
  }
  std::string tmp = path + ".tmp";
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    if (error != nullptr) {
      *error = "open " + tmp + ": " + std::strerror(errno);
    }
    return false;
  }
  const char* p = content.data();
  std::size_t left = content.size();
  while (left > 0) {
    ssize_t n = ::write(fd, p, left);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (error != nullptr) {
        *error = "write " + tmp + ": " + std::strerror(errno);
      }
      ::close(fd);
      ::unlink(tmp.c_str());
      return false;
    }
    p += n;
    left -= static_cast<std::size_t>(n);
  }
  // fsync before rename: the rename must never land a file whose data
  // is still in flight, or a crash could leave a valid name over empty
  // content.
  if (::fsync(fd) != 0 || ::close(fd) != 0) {
    if (error != nullptr) {
      *error = "fsync " + tmp + ": " + std::strerror(errno);
    }
    ::unlink(tmp.c_str());
    return false;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    if (error != nullptr) {
      *error = "rename " + tmp + " -> " + path + ": " + std::strerror(errno);
    }
    ::unlink(tmp.c_str());
    return false;
  }
  // fsync the parent directory: rename is only durable once the directory
  // entry itself reaches disk — without this, a crash after the rename
  // could lose the file entirely (the data was synced, the name was not).
  std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? std::string(".")
                          : slash == 0                ? std::string("/")
                                                      : path.substr(0, slash);
  int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd >= 0) {
    // Best-effort: some filesystems reject directory fsync; the rename
    // itself already succeeded, so a failure here only weakens crash
    // durability, it cannot tear the file.
    (void)::fsync(dfd);
    ::close(dfd);
  }
  return true;
}

bool WriteOpenMetricsFile(const std::string& path,
                          const MetricsSnapshot& snap,
                          const std::vector<ExtraSample>& extras,
                          std::string* error) {
  return WriteFileAtomic(path, OpenMetricsText(snap, extras), error);
}

}  // namespace obs
}  // namespace mio
