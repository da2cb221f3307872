#include "obs/trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>

#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace mio {
namespace obs {

namespace detail {
std::atomic<bool> g_trace_enabled{false};
}  // namespace detail

namespace {

using Clock = std::chrono::steady_clock;

/// Per-thread span sink. Owned by the registry (not the thread), so a
/// snapshot taken after a thread exits still sees its spans.
struct ThreadBuffer {
  std::vector<TraceEvent> ring;
  std::size_t next = 0;          ///< ring write position
  std::uint64_t recorded = 0;    ///< lifetime pushes (>= ring occupancy)
  int tid = 0;
  int depth = 0;  ///< current span nesting on this thread
};

struct Registry {
  std::mutex mu;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers;
  Clock::time_point epoch = Clock::now();
};

Registry& GetRegistry() {
  static Registry* r = new Registry();  // leaked: usable during shutdown
  return *r;
}

thread_local ThreadBuffer* tl_buffer = nullptr;

ThreadBuffer* RegisterThisThread() {
  Registry& reg = GetRegistry();
  std::lock_guard<std::mutex> lock(reg.mu);
  auto buf = std::make_unique<ThreadBuffer>();
  buf->tid = static_cast<int>(reg.buffers.size());
  buf->ring.resize(Tracer::kRingCapacity);
  tl_buffer = buf.get();
  reg.buffers.push_back(std::move(buf));
  return tl_buffer;
}

inline ThreadBuffer& Buffer() {
  ThreadBuffer* b = tl_buffer;
  return b != nullptr ? *b : *RegisterThisThread();
}

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now() - GetRegistry().epoch)
      .count();
}

}  // namespace

void TraceSpan::Begin(const char* name, const char* cat) {
  name_ = name;
  cat_ = cat;
  ThreadBuffer& buf = Buffer();
  ++buf.depth;
  start_ns_ = NowNs();
}

void TraceSpan::End() {
  std::int64_t end_ns = NowNs();
  ThreadBuffer& buf = Buffer();
  int depth = --buf.depth;
  // A full ring means this store overwrites the oldest span. The drop is
  // visible both via Tracer::DroppedEvents (lifetime) and as the
  // trace.dropped_spans metrics counter (per-run, reset with the rest).
  if (buf.recorded >= Tracer::kRingCapacity) {
    Add(Counter::kTraceDroppedSpans);
  }
  TraceEvent& ev = buf.ring[buf.next];
  ev.name = name_;
  ev.cat = cat_;
  ev.start_ns = start_ns_;
  ev.dur_ns = end_ns - start_ns_;
  ev.tid = buf.tid;
  ev.depth = depth;
  buf.next = (buf.next + 1) % Tracer::kRingCapacity;
  ++buf.recorded;
}

Tracer::Tracer() {
  const char* env = std::getenv("MIO_TRACE");
  if (env != nullptr && env[0] != '\0' && env[0] != '0') {
    detail::g_trace_enabled.store(true, std::memory_order_relaxed);
  }
  GetRegistry();  // pin the epoch before the first span
}

Tracer& Tracer::Instance() {
  static Tracer* t = new Tracer();
  return *t;
}

void Tracer::SetEnabled(bool on) {
  detail::g_trace_enabled.store(on, std::memory_order_relaxed);
}

void Tracer::Clear() {
  Registry& reg = GetRegistry();
  std::lock_guard<std::mutex> lock(reg.mu);
  for (auto& buf : reg.buffers) {
    buf->next = 0;
    buf->recorded = 0;
  }
}

std::vector<TraceEvent> Tracer::Snapshot() const {
  Registry& reg = GetRegistry();
  std::vector<TraceEvent> out;
  {
    std::lock_guard<std::mutex> lock(reg.mu);
    for (const auto& buf : reg.buffers) {
      std::size_t count = static_cast<std::size_t>(
          std::min<std::uint64_t>(buf->recorded, kRingCapacity));
      // Oldest-first: a full ring starts at the write position.
      std::size_t start = buf->recorded > kRingCapacity ? buf->next : 0;
      for (std::size_t i = 0; i < count; ++i) {
        out.push_back(buf->ring[(start + i) % kRingCapacity]);
      }
    }
  }
  std::sort(out.begin(), out.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
              return a.dur_ns > b.dur_ns;  // parents open before children
            });
  return out;
}

std::uint64_t Tracer::DroppedEvents() const {
  Registry& reg = GetRegistry();
  std::lock_guard<std::mutex> lock(reg.mu);
  std::uint64_t dropped = 0;
  for (const auto& buf : reg.buffers) {
    if (buf->recorded > kRingCapacity) dropped += buf->recorded - kRingCapacity;
  }
  return dropped;
}

std::size_t Tracer::NumThreads() const {
  Registry& reg = GetRegistry();
  std::lock_guard<std::mutex> lock(reg.mu);
  std::size_t n = 0;
  for (const auto& buf : reg.buffers) {
    if (buf->recorded > 0) ++n;
  }
  return n;
}

std::string Tracer::ToChromeTraceJson(bool truncated) const {
  std::vector<TraceEvent> events = Snapshot();
  JsonWriter w;
  w.BeginObject();
  w.Key("traceEvents").BeginArray();
  // Named thread tracks so Perfetto shows "worker N" instead of bare ids.
  std::vector<int> tids;
  for (const TraceEvent& ev : events) tids.push_back(ev.tid);
  std::sort(tids.begin(), tids.end());
  tids.erase(std::unique(tids.begin(), tids.end()), tids.end());
  for (int tid : tids) {
    w.BeginObject();
    w.Key("ph").String("M");
    w.Key("pid").Int(0);
    w.Key("tid").Int(tid);
    w.Key("name").String("thread_name");
    w.Key("args").BeginObject();
    w.Key("name").String("worker " + std::to_string(tid));
    w.EndObject();
    w.EndObject();
  }
  for (const TraceEvent& ev : events) {
    w.BeginObject();
    w.Key("ph").String("X");
    w.Key("pid").Int(0);
    w.Key("tid").Int(ev.tid);
    w.Key("name").String(ev.name);
    w.Key("cat").String(ev.cat);
    // Chrome's ts/dur are microseconds; fractional values keep ns detail.
    w.Key("ts").Double(static_cast<double>(ev.start_ns) / 1e3);
    w.Key("dur").Double(static_cast<double>(ev.dur_ns) / 1e3);
    w.EndObject();
  }
  w.EndArray();
  w.Key("displayTimeUnit").String("ms");
  // Ring overflow means the timeline is missing its oldest spans — mark
  // the export truncated just like an exit-flush partial write would be.
  std::uint64_t dropped = DroppedEvents();
  if (dropped > 0) w.Key("dropped_spans").UInt(dropped);
  if (truncated || dropped > 0) w.Key("truncated").Bool(true);
  w.EndObject();
  return std::move(w).Take();
}

Status Tracer::WriteChromeTrace(const std::string& path,
                                bool truncated) const {
  std::string json = ToChromeTraceJson(truncated);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::IOError("cannot open trace file: " + path);
  }
  std::size_t written = std::fwrite(json.data(), 1, json.size(), f);
  int close_err = std::fclose(f);
  if (written != json.size() || close_err != 0) {
    return Status::IOError("short write to trace file: " + path);
  }
  return Status::OK();
}

}  // namespace obs
}  // namespace mio
