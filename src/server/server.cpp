#include "server/server.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>

#include <algorithm>

#include "common/fault_injection.hpp"
#include "common/omp_utils.hpp"
#include "common/timer.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/openmetrics.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "server/protocol.hpp"

namespace mio {
namespace server {

namespace {

/// Wake-pipe write end for the signal handlers. A single int store/load
/// plus write() — everything in the handler is async-signal-safe.
std::atomic<int> g_signal_wake_fd{-1};

extern "C" void ServeSignalHandler(int /*signum*/) {
  int fd = g_signal_wake_fd.load(std::memory_order_relaxed);
  if (fd >= 0) {
    char byte = 's';
    // EAGAIN on a full pipe is fine: a pending byte already guarantees
    // the accept loop wakes and counts the shutdown request.
    (void)!::write(fd, &byte, 1);
  }
}

}  // namespace

MioServer::MioServer(const ObjectSet& objects, ServerConfig config)
    : objects_(objects),
      config_(std::move(config)),
      admission_(config_.admission),
      results_(config_.cache_capacity) {
  engine_ = std::make_unique<MioEngine>(objects_, config_.label_dir);
  if (config_.workers < 1) config_.workers = 1;
  start_time_ = std::chrono::steady_clock::now();
}

double MioServer::NowSeconds() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start_time_)
      .count();
}

MioServer::~MioServer() {
  if (listen_fd_ >= 0) ::close(listen_fd_);
  for (int fd : wake_pipe_) {
    if (fd >= 0) ::close(fd);
  }
}

Status MioServer::Start() {
  if (config_.socket_path.empty()) {
    return Status::InvalidArgument("serve: socket path required");
  }
  sockaddr_un addr{};
  if (config_.socket_path.size() >= sizeof(addr.sun_path)) {
    return Status::InvalidArgument("serve: socket path too long: " +
                                   config_.socket_path);
  }
  if (::pipe(wake_pipe_) != 0) {
    return Status::IOError(std::string("serve: pipe: ") +
                           std::strerror(errno));
  }
  for (int fd : wake_pipe_) {
    ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  }
  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::IOError(std::string("serve: socket: ") +
                           std::strerror(errno));
  }
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, config_.socket_path.c_str(),
               sizeof(addr.sun_path) - 1);
  ::unlink(config_.socket_path.c_str());  // stale socket from a past run
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    return Status::IOError("serve: bind " + config_.socket_path + ": " +
                           std::strerror(errno));
  }
  if (::listen(listen_fd_, 64) != 0) {
    return Status::IOError(std::string("serve: listen: ") +
                           std::strerror(errno));
  }
  if (!config_.qlog_path.empty()) {
    MIO_RETURN_NOT_OK(qlog_.Open(config_.qlog_path));
  }
  if (config_.tail.enabled()) {
    tail_ = std::make_unique<obs::TailSampler>(config_.tail);
    if (!config_.trace_dir.empty()) {
      // Server traces come from the process-wide tracer rings: enabling
      // here (and never per-request) means an exported trace shows all
      // concurrent server activity around the sampled request.
      obs::Tracer::Instance().SetEnabled(true);
    }
  }
  return Status::OK();
}

void MioServer::RequestShutdown() {
  char byte = 's';
  (void)!::write(wake_pipe_[1], &byte, 1);
}

void MioServer::InstallSignalHandlers() {
  g_signal_wake_fd.store(wake_pipe_[1], std::memory_order_relaxed);
  struct sigaction sa{};
  sa.sa_handler = ServeSignalHandler;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = SA_RESTART;
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);
}

std::size_t MioServer::active_sessions() const {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  std::size_t n = 0;
  for (const auto& s : sessions_) {
    if (s->fd >= 0) ++n;
  }
  return n;
}

Status MioServer::Serve() {
  if (listen_fd_ < 0) {
    return Status::Internal("serve: Serve() before Start()");
  }
  for (int w = 0; w < config_.workers; ++w) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }

  // Drains the wake pipe, counting shutdown requests. Both the accept
  // loop and the drain wait call this, so a second SIGTERM escalates
  // even after accepting has stopped.
  auto drain_wake_pipe = [this] {
    char buf[16];
    ssize_t n;
    while ((n = ::read(wake_pipe_[0], buf, sizeof(buf))) > 0) {
      shutdown_requests_.fetch_add(static_cast<int>(n),
                                   std::memory_order_relaxed);
    }
  };

  // --- Accept loop -------------------------------------------------------
  while (shutdown_requests_.load(std::memory_order_relaxed) == 0) {
    pollfd fds[2] = {{listen_fd_, POLLIN, 0}, {wake_pipe_[0], POLLIN, 0}};
    int rc = ::poll(fds, 2, -1);
    if (rc < 0) {
      if (errno == EINTR) {
        drain_wake_pipe();
        continue;
      }
      break;
    }
    if (fds[1].revents != 0) drain_wake_pipe();
    if (shutdown_requests_.load(std::memory_order_relaxed) > 0) break;
    if ((fds[0].revents & POLLIN) == 0) continue;
    int conn = ::accept(listen_fd_, nullptr, nullptr);
    if (conn < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      obs::Add(obs::Counter::kServerIoErrors);
      continue;
    }
    if (MIO_FAULT_HIT("server.accept")) {
      obs::Add(obs::Counter::kServerIoErrors);
      ::close(conn);
      continue;
    }
    obs::Add(obs::Counter::kServerConnections);
    const std::uint64_t conn_id =
        conn_seq_.fetch_add(1, std::memory_order_relaxed) + 1;
    // A session whose fd is closed has left its last locked region, so its
    // thread is ending and joins promptly. Reaping those here keeps one
    // Session and one thread stack per open connection, not one per
    // connection ever accepted.
    std::vector<std::thread> ended;
    {
      std::lock_guard<std::mutex> lock(sessions_mu_);
      std::erase_if(sessions_, [&ended](const std::unique_ptr<Session>& s) {
        if (s->fd >= 0) return false;
        if (s->thread.joinable()) ended.push_back(std::move(s->thread));
        return true;
      });
      auto session = std::make_unique<Session>();
      Session* raw = session.get();
      raw->fd = conn;
      sessions_.push_back(std::move(session));
      raw->thread =
          std::thread([this, conn, conn_id] { SessionLoop(conn, conn_id); });
    }
    for (std::thread& t : ended) t.join();
  }

  // --- Graceful drain ----------------------------------------------------
  draining_.store(true, std::memory_order_release);
  std::fprintf(stderr, "serve: drain begin: queue_depth=%zu inflight=%llu\n",
               admission_.depth(),
               static_cast<unsigned long long>(
                   inflight_.load(std::memory_order_acquire)));
  ::close(listen_fd_);  // stop accepting; connect() now fails fast
  listen_fd_ = -1;
  admission_.Close();

  // Wait for queued + running work under the drain deadline; the
  // deadline (or a second shutdown request) trips the shared cancel
  // token, after which every remaining query returns kCancelled within
  // one guard-poll stride.
  bool forced = false;
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double, std::milli>(config_.drain_deadline_ms));
  {
    std::unique_lock<std::mutex> lock(inflight_mu_);
    while (inflight_.load(std::memory_order_acquire) > 0 ||
           admission_.depth() > 0) {
      drain_wake_pipe();
      if (!forced &&
          (std::chrono::steady_clock::now() >= deadline ||
           shutdown_requests_.load(std::memory_order_relaxed) >= 2)) {
        forced = true;
        drain_cancel_.Cancel();
      }
      inflight_cv_.wait_for(lock, std::chrono::milliseconds(50));
    }
  }
  for (std::thread& w : workers_) w.join();

  // Sessions still blocked in read() see EOF via SHUT_RD and exit; any
  // response writes already in progress complete first (SHUT_RD leaves
  // the write side open).
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    for (const auto& s : sessions_) {
      if (s->fd >= 0) ::shutdown(s->fd, SHUT_RD);
    }
  }
  // Join OUTSIDE sessions_mu_: an exiting session thread takes that
  // mutex for its own cleanup (close + fd=-1), so joining while holding
  // it deadlocks against any session that is just now winding down.
  std::vector<std::thread> to_join;
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    for (const auto& s : sessions_) {
      if (s->thread.joinable()) to_join.push_back(std::move(s->thread));
    }
  }
  for (std::thread& t : to_join) t.join();
  ::unlink(config_.socket_path.c_str());
  // Every session and worker has joined, so the qlog is complete.
  if (qlog_.is_open()) (void)qlog_.Close();
  std::fprintf(stderr, "serve: drained %s\n",
               forced ? "(forced by deadline)" : "cleanly");
  if (forced) {
    return Status::DeadlineExceeded(
        "serve: drain deadline exceeded; in-flight queries cancelled");
  }
  return Status::OK();
}

void MioServer::WorkerLoop() {
  std::function<void()> job;
  while (admission_.Pop(&job)) {
    job();
    job = nullptr;
  }
}

void MioServer::SessionLoop(int fd, std::uint64_t conn_id) {
  const std::string client = std::string("c").append(std::to_string(conn_id));
  std::string buffer;
  char chunk[4096];
  bool alive = true;
  while (alive) {
    if (MIO_FAULT_HIT("server.read")) {
      obs::Add(obs::Counter::kServerIoErrors);
      break;
    }
    ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n == 0) break;  // client closed (or drain SHUT_RD)
    if (n < 0) {
      if (errno == EINTR) continue;
      obs::Add(obs::Counter::kServerIoErrors);
      break;
    }
    buffer.append(chunk, static_cast<std::size_t>(n));
    std::size_t start = 0;
    for (std::size_t nl = buffer.find('\n', start);
         nl != std::string::npos && alive;
         nl = buffer.find('\n', start)) {
      std::string line = buffer.substr(start, nl - start);
      start = nl + 1;
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (!line.empty()) alive = HandleRequest(fd, client, line);
    }
    buffer.erase(0, start);
    if (buffer.size() > kMaxLineBytes) {
      // A line this long can never parse; cut the connection rather
      // than buffer unboundedly.
      obs::Add(obs::Counter::kServerIoErrors);
      break;
    }
  }
  std::lock_guard<std::mutex> lock(sessions_mu_);
  for (const auto& s : sessions_) {
    if (s->fd == fd) {
      ::close(fd);
      s->fd = -1;
      break;
    }
  }
}

bool MioServer::WriteResponse(int fd, const ServeResponse& res) {
  if (MIO_FAULT_HIT("server.write")) {
    // Injected write failure: close without responding. The client sees
    // EOF mid-request and retries on a fresh connection.
    obs::Add(obs::Counter::kServerIoErrors);
    return false;
  }
  std::string line = ServeResponseToJsonLine(res);
  line.push_back('\n');
  const char* p = line.data();
  std::size_t left = line.size();
  while (left > 0) {
    // MSG_NOSIGNAL: a client that died mid-response must surface as
    // EPIPE on this session, not SIGPIPE killing the whole server.
    ssize_t n = ::send(fd, p, left, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      obs::Add(obs::Counter::kServerIoErrors);
      return false;
    }
    p += n;
    left -= static_cast<std::size_t>(n);
  }
  return true;
}

namespace {

void FillFromResult(const QueryResult& qres, double wall,
                    ServeResponse* res) {
  res->status = qres.status.code();
  if (!qres.status.ok()) res->error = qres.status.message();
  res->complete = qres.complete;
  res->wall_seconds = wall;
  res->topk = qres.topk;
}

}  // namespace

void MioServer::AppendQlog(const ServeRequest& req, const RequestContext& ctx,
                           const QueryResult* qres, const ServeResponse& res) {
  if (!qlog_.is_open()) return;
  obs::QlogRecord id;
  id.query_index = ctx.seq;  // qlog id == request id == trace-file stem
  id.workload = "serve";
  id.dataset = config_.dataset_name;
  id.algo = req.use_labels ? "bigrid-label" : "bigrid";
  id.r = req.r;
  id.k = req.k;
  id.threads = req.threads;
  id.server_request_id = ctx.request_id;
  id.server_correlation_id = ctx.correlation_id;
  id.server_client = ctx.client;
  id.server_role = ctx.role;
  id.server_queue_wait_seconds = ctx.QueueWaitSeconds();
  id.server_e2e_seconds = ctx.E2eSeconds();
  id.server_refusal = ctx.refusal;
  id.server_retry_after_ms = res.retry_after_ms;
  id.server_stages = {ctx.accepted, ctx.enqueued, ctx.dequeued, ctx.executed,
                      ctx.responded};
  // Solo/leader: the engine stats are this request's own execution.
  // Follower/cached/refused (qres null): engine stats stay zeroed —
  // counting the leader's work twice would corrupt funnel and phase
  // aggregates — the outcome is the response's, and wall is the
  // client-visible end-to-end time.
  if (qres != nullptr) {
    id.objects = objects_.size();
    id.wall_seconds = res.wall_seconds;
  } else {
    id.wall_seconds = ctx.E2eSeconds();
  }
  obs::QlogRecord rec = obs::BuildQlogRecord(std::move(id), qres);
  if (qres == nullptr) {
    rec.status = StatusCodeName(res.status);
    rec.complete = res.complete;
  }
  rec.degradation_level = std::max(rec.degradation_level, ctx.shed_step);
  std::lock_guard<std::mutex> lock(qlog_mu_);
  (void)qlog_.Append(rec);
}

void MioServer::RecordClient(const std::string& client,
                             const RequestContext& ctx) {
  std::lock_guard<std::mutex> lock(clients_mu_);
  auto it = clients_.find(client);
  if (it == clients_.end()) {
    if (clients_.size() >= kMaxClients) {
      it = clients_.emplace("~other", ClientStats{}).first;
    } else {
      it = clients_.emplace(client, ClientStats{}).first;
    }
  }
  ClientStats& cs = it->second;
  ++cs.requests;
  if (ctx.Refused()) ++cs.refused;
  if (ctx.role == obs::kRoleFollower) ++cs.coalesced;
  if (ctx.role == obs::kRoleCached) ++cs.cached;
}

void MioServer::OfferTail(std::uint64_t seq, double wall_seconds) {
  if (tail_ == nullptr) return;
  std::lock_guard<std::mutex> lock(tail_mu_);
  obs::TailSampler::Decision d = tail_->Offer(seq, wall_seconds);
  if (config_.trace_dir.empty()) return;
  std::string dir = config_.trace_dir;
  if (dir.back() != '/') dir.push_back('/');
  if (d.export_trace) {
    (void)obs::Tracer::Instance().WriteChromeTrace(
        dir + obs::ServerTraceFileName(seq));
  }
  for (std::uint64_t evicted : d.evict) {
    ::unlink((dir + obs::ServerTraceFileName(evicted)).c_str());
  }
}

std::string MioServer::StatsJson() const {
  const std::size_t depth = admission_.depth();
  const obs::MetricsSnapshot snap = obs::SnapshotMetrics();
  auto counter = [&snap](obs::Counter c) {
    return snap.counters[static_cast<std::size_t>(c)];
  };
  const obs::HistogramSnapshot& queue_wait =
      snap.histograms[static_cast<std::size_t>(
          obs::Histogram::kServerQueueWaitUs)];
  const obs::HistogramSnapshot& e2e =
      snap.histograms[static_cast<std::size_t>(obs::Histogram::kServerE2eUs)];
  const std::uint64_t cache_hits = counter(obs::Counter::kServerCacheHits);
  const std::uint64_t cache_misses = counter(obs::Counter::kServerCacheMisses);

  obs::JsonWriter w;
  w.BeginObject();
  w.Key("schema").String("mio-server-stats-v1");
  w.Key("uptime_seconds").Double(NowSeconds());
  w.Key("draining").Bool(draining_.load(std::memory_order_acquire));
  w.Key("queue_depth").UInt(depth);
  w.Key("queue_capacity").UInt(config_.admission.max_queue);
  w.Key("queued_cost").UInt(admission_.queued_cost());
  w.Key("ladder_stage").Int(
      static_cast<int>(LadderStage(depth, config_.admission)));
  w.Key("inflight").UInt(inflight_.load(std::memory_order_acquire));
  w.Key("sessions").UInt(active_sessions());
  w.Key("workers").Int(config_.workers);
  w.Key("objects").UInt(objects_.size());
  w.Key("cache_entries").UInt(results_.cached());
  w.Key("counters").BeginObject();
  w.Key("connections").UInt(counter(obs::Counter::kServerConnections));
  w.Key("requests").UInt(counter(obs::Counter::kServerRequests));
  w.Key("refused").UInt(counter(obs::Counter::kServerOverloadRejected));
  w.Key("coalesced").UInt(counter(obs::Counter::kServerCoalesced));
  w.Key("cache_hits").UInt(cache_hits);
  w.Key("cache_misses").UInt(cache_misses);
  w.Key("shed_labels").UInt(counter(obs::Counter::kServerShedLabels));
  w.Key("shed_grid_cache").UInt(counter(obs::Counter::kServerShedGridCache));
  w.Key("drain_completed").UInt(counter(obs::Counter::kServerDrainCompleted));
  w.Key("io_errors").UInt(counter(obs::Counter::kServerIoErrors));
  w.EndObject();
  w.Key("cache_hit_rate")
      .Double(cache_hits + cache_misses > 0
                  ? static_cast<double>(cache_hits) /
                        static_cast<double>(cache_hits + cache_misses)
                  : 0.0);
  auto emit_latency = [&w](const char* key,
                           const obs::HistogramSnapshot& h) {
    w.Key(key).BeginObject();
    w.Key("count").UInt(h.count);
    w.Key("p50_ms").Double(h.Percentile(0.50) / 1000.0);
    w.Key("p95_ms").Double(h.Percentile(0.95) / 1000.0);
    w.Key("p99_ms").Double(h.Percentile(0.99) / 1000.0);
    w.Key("max_ms").Double(static_cast<double>(h.max) / 1000.0);
    w.EndObject();
  };
  emit_latency("queue_wait", queue_wait);
  emit_latency("e2e", e2e);
  w.Key("clients").BeginArray();
  {
    std::lock_guard<std::mutex> lock(clients_mu_);
    std::vector<std::pair<std::string, ClientStats>> top(clients_.begin(),
                                                         clients_.end());
    std::sort(top.begin(), top.end(), [](const auto& a, const auto& b) {
      if (a.second.requests != b.second.requests) {
        return a.second.requests > b.second.requests;
      }
      return a.first < b.first;
    });
    if (top.size() > 16) top.resize(16);
    for (const auto& [name, cs] : top) {
      w.BeginObject();
      w.Key("client").String(name);
      w.Key("requests").UInt(cs.requests);
      w.Key("refused").UInt(cs.refused);
      w.Key("coalesced").UInt(cs.coalesced);
      w.Key("cached").UInt(cs.cached);
      w.EndObject();
    }
  }
  w.EndArray();
  w.EndObject();
  return std::move(w).Take();
}

bool MioServer::FinishQuery(int fd, const ServeRequest& req,
                            const std::shared_ptr<RequestContext>& ctx,
                            const QueryResult* qres, ServeResponse* res) {
  ctx->responded = NowSeconds();
  // Counted before the write: a client that asks for `stats` as soon as
  // it has this response must already see the request in them.
  auto micros = [](double seconds) {
    return static_cast<std::uint64_t>(seconds * 1e6 + 0.5);
  };
  obs::Observe(obs::Histogram::kServerE2eUs, micros(ctx->E2eSeconds()));
  if (qres != nullptr) {
    obs::Observe(obs::Histogram::kServerQueueWaitUs,
                 micros(ctx->QueueWaitSeconds()));
  }
  RecordClient(ctx->client, *ctx);
  const bool wrote = WriteResponse(fd, *res);
  // Exactly one record per query request, whatever happened — a failed
  // response write included.
  AppendQlog(req, *ctx, qres, *res);
  return wrote;
}

bool MioServer::HandleRequest(int fd, const std::string& client,
                              const std::string& line) {
  obs::Add(obs::Counter::kServerRequests);
  ServeRequest req;
  ServeResponse res;
  Status st = ParseServeRequest(line, &req);
  res.id = req.id;
  if (!st.ok()) {
    res.status = st.code();
    res.error = st.message();
    return WriteResponse(fd, res);
  }

  // Every parsed request gets a server id; only query requests get qlog
  // records — ping/metrics/stats are probes, not workload.
  auto ctx = std::make_shared<RequestContext>();
  ctx->seq = request_seq_.fetch_add(1, std::memory_order_relaxed);
  ctx->request_id = FormatRequestId(ctx->seq);
  ctx->correlation_id = req.id;
  ctx->client = client;
  ctx->accepted = NowSeconds();
  res.request_id = ctx->request_id;

  if (req.op == "ping") {
    res.payload = "pong";
    return WriteResponse(fd, res);
  }
  if (req.op == "metrics") {
    res.payload = obs::OpenMetricsText(
        obs::SnapshotMetrics(),
        obs::ProcessExtraSamples(obs::ReadProcessHealth()));
    return WriteResponse(fd, res);
  }
  if (req.op == "stats") {
    res.payload = StatsJson();
    return WriteResponse(fd, res);
  }

  // --- op == "query" -----------------------------------------------------
  // A team larger than the host's cores only oversubscribes them, and the
  // grid build sizes per-thread shards by it: cap before the request is
  // keyed, cached or executed.
  req.threads = std::min(req.threads, MaxThreads());
  const CoalesceKey key{req.r, req.k, req.threads, req.use_labels};

  // 1. One lookup in the result table (skipped by no_coalesce): a
  // finished entry replays as a cache hit, an in-flight one makes this
  // request its follower, a missing one makes it the leader. A follower
  // of a degraded or refused execution runs solo instead.
  std::shared_ptr<Execution> exec;
  bool leader = false;
  if (!req.no_coalesce) {
    ResultTable::Ticket ticket = results_.Join(key);
    leader = ticket.role == ResultTable::Role::kLeader;
    QueryResult shared;
    double shared_wall = 0.0;
    if (leader) {
      exec = std::move(ticket.exec);
    } else if (ticket.exec->Await(&shared, &shared_wall)) {
      const bool cached = ticket.role == ResultTable::Role::kCached;
      ctx->role = cached ? obs::kRoleCached : obs::kRoleFollower;
      // The request skipped the queue and the engine: collapse the
      // middle stages onto this instant so the stage order stays
      // monotonic and queue wait reads zero.
      ctx->enqueued = ctx->dequeued = ctx->executed = NowSeconds();
      FillFromResult(shared, shared_wall, &res);
      res.cached = cached;
      res.coalesced = !cached;
      return FinishQuery(fd, req, ctx, nullptr, &res);
    }
  }
  if (exec == nullptr) exec = std::make_shared<Execution>();
  // Every execution ends here: a no_coalesce one resolves alone, any
  // other is published to the table (a solo run offers its result).
  auto publish = [this, key, exec, no_coalesce = req.no_coalesce](
                     QueryResult result, double wall) {
    if (no_coalesce) {
      exec->Resolve(std::move(result), wall);
    } else {
      results_.Publish(key, exec, std::move(result), wall);
    }
  };

  // 2. Admission. The decision lives in a shared_ptr filled by Push
  // under the queue lock before the job is enqueued, so the worker's
  // read of the shed flags is ordered after the write (Push's unlock
  // happens-before Pop's lock). A leader refused admission still
  // publishes the failure so followers unblock (and then run solo,
  // usually meeting the same refusal — backpressure propagates, nobody
  // hangs). The worker stamps ctx->dequeued/executed; the session only
  // reads them after its Await observes the execution resolved under the
  // execution's mutex, so those cross-thread writes are ordered.
  auto decision = std::make_shared<AdmissionDecision>();
  const std::uint64_t cost = EstimateQueryCost(req.r, req.k);
  AdmissionQueue::PushResult pushed = AdmissionQueue::PushResult::kOverloaded;
  const bool enqueue_fault = MIO_FAULT_HIT("server.enqueue");
  if (!enqueue_fault) {
    inflight_.fetch_add(1, std::memory_order_acq_rel);
    ctx->enqueued = NowSeconds();
    auto job = [this, req, publish, decision, ctx]() {
      ctx->dequeued = NowSeconds();
      const bool shed_labels = decision->step >= DegradationStep::kShedLabels;
      const bool shed_grid_cache =
          decision->step >= DegradationStep::kDropGridCache;
      if (shed_labels) obs::Add(obs::Counter::kServerShedLabels);
      if (shed_grid_cache) {
        obs::Add(obs::Counter::kServerShedGridCache);
        engine_->ClearGridCache();
      }
      Timer timer;
      QueryOptions opt;
      opt.threads = req.threads;
      opt.k = req.k;
      opt.use_labels = req.use_labels;
      opt.record_labels = req.use_labels && !shed_labels;
      opt.reuse_grid = !shed_grid_cache;
      opt.deadline_ms = req.deadline_ms;
      opt.cancel = &drain_cancel_;
      QueryResult qres = engine_->Query(req.r, opt);
      const double wall = timer.ElapsedSeconds();
      ctx->executed = NowSeconds();
      OfferTail(ctx->seq, wall);
      if (draining_.load(std::memory_order_acquire)) {
        obs::Add(obs::Counter::kServerDrainCompleted);
      }
      publish(std::move(qres), wall);
      if (inflight_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        std::lock_guard<std::mutex> lock(inflight_mu_);
        inflight_cv_.notify_all();
      }
    };
    pushed = admission_.Push(std::move(job), cost, decision.get());
    if (pushed != AdmissionQueue::PushResult::kAdmitted) {
      inflight_.fetch_sub(1, std::memory_order_acq_rel);
    }
  }

  if (pushed != AdmissionQueue::PushResult::kAdmitted) {
    obs::Add(obs::Counter::kServerOverloadRejected);
    res.status = StatusCode::kOverloaded;
    res.error = pushed == AdmissionQueue::PushResult::kClosed
                    ? "server draining"
                    : "admission queue full";
    if (enqueue_fault) res.error = "injected enqueue fault";
    res.retry_after_ms = decision->retry_after_ms > 0.0
                             ? decision->retry_after_ms
                             : config_.admission.retry_after_base_ms;
    res.complete = false;
    // The request never actually entered the queue: un-stamp enqueued so
    // the record's stages tell the truth.
    ctx->enqueued = RequestContext::kUnstamped;
    ctx->role = obs::kRoleRefused;
    ctx->refusal = res.error;
    QueryResult refused;
    refused.status = Status::Overloaded(res.error);
    refused.complete = false;
    publish(std::move(refused), 0.0);
    return FinishQuery(fd, req, ctx, nullptr, &res);
  }

  ctx->role = leader ? obs::kRoleLeader : obs::kRoleSolo;
  ctx->shed_step = static_cast<std::uint32_t>(decision->step);

  // 3. Block this session on its own execution; workers do the rest.
  QueryResult qres;
  double wall = 0.0;
  (void)exec->Await(&qres, &wall);
  FillFromResult(qres, wall, &res);
  return FinishQuery(fd, req, ctx, &qres, &res);
}

}  // namespace server
}  // namespace mio
