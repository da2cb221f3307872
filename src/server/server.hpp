// `mio serve`: a long-lived concurrent query server over a Unix-domain
// stream socket. The dataset is loaded once; clients connect and speak
// the line-oriented mio-serve-v1 protocol (server/protocol.hpp).
//
// Overload-hardening (docs/ROBUSTNESS.md):
//  - a bounded admission queue with cost-aware shedding refuses work the
//    server cannot take on (distinct Overloaded status + retry-after
//    hint) and sheds optional work (label recording, grid cache) before
//    refusing anything (server/admission.hpp);
//  - one result table coalesces identical in-flight queries into one
//    execution and keeps recent complete results for LRU replay, both
//    bit-identical to uncoalesced execution (server/result_table.hpp);
//  - SIGTERM/SIGINT starts a graceful drain: the listener closes, queued
//    and running requests finish under a drain deadline, then a shared
//    cancel token force-cancels stragglers; every accepted request
//    either completes or receives a non-OK response before its
//    connection closes. Serve() returns OK after a clean drain and
//    kDeadlineExceeded after a forced one, so the process exit code
//    stays honest (0 vs 9).
//
// Threading model: one accept loop (the Serve() caller), one session
// thread per connection doing all socket I/O (the accept loop joins and
// frees the sessions whose connection has closed), and a fixed worker pool
// executing admitted queries. Session threads never run queries: every
// execution, including a follower's re-execution after a non-shareable
// result, goes through admission to a worker, and workers never touch
// sockets. Engine state is safely shared — see MioEngine's
// thread-safety contract.
//
// Request-lifecycle observability (docs/OBSERVABILITY.md): every parsed
// request gets a server request id and a RequestContext that collects
// monotonic stage timestamps (accepted/enqueued/dequeued/executed/
// responded) and outcome tags as it moves through the pipeline. The
// context feeds the request's one qlog record (every query request,
// refusals included: its "server" section carries the role, the stages,
// the refusal reason and retry hint, and a shed raises the record's
// degradation_level to its ladder step), the server latency histograms
// (server_queue_wait_us / server_e2e_us), and the live "stats" op that
// `mio top` renders. Tail-sampled requests additionally keep a Chrome
// trace ("r%06llu.trace.json") — note the tracer rings are process-wide,
// so a server trace shows all concurrent activity, not one request.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/guardrails.hpp"
#include "common/status.hpp"
#include "core/mio_engine.hpp"
#include "obs/qlog.hpp"
#include "server/admission.hpp"
#include "server/request_context.hpp"
#include "server/result_table.hpp"

namespace mio {
namespace server {

struct ServeRequest;   // server/protocol.hpp
struct ServeResponse;  // server/protocol.hpp

struct ServerConfig {
  /// Unix-domain socket path; bound fresh (an existing file is removed).
  std::string socket_path;
  /// Query worker threads.
  int workers = 2;
  AdmissionConfig admission;
  /// Finished entries the result table keeps (0 disables caching;
  /// in-flight queries still coalesce).
  std::size_t cache_capacity = 32;
  /// Grace period for in-flight work after a shutdown request; once it
  /// expires the drain cancel token trips every remaining query.
  double drain_deadline_ms = 5000.0;
  /// Per-request qlog ("" = off); one record per query request.
  /// Coalesced followers, cache hits and refusals log too (role
  /// "follower" / "cached" / "refused", zeroed engine stats) so the qlog
  /// accounts for every query request exactly once.
  std::string qlog_path;
  /// Directory for tail-sampled request traces ("" = off; requires
  /// `tail` to be enabled too).
  std::string trace_dir;
  /// Which executed requests keep their trace (threshold / slowest-N
  /// over engine wall seconds, same policy as `mio run-workload`).
  obs::TailSamplerConfig tail;
  /// Label directory handed to the engine ("" = in-memory labels only).
  std::string label_dir;
  /// Dataset display name stamped into qlog records.
  std::string dataset_name;
};

class MioServer {
 public:
  /// `objects` must outlive the server.
  MioServer(const ObjectSet& objects, ServerConfig config);
  ~MioServer();

  MioServer(const MioServer&) = delete;
  MioServer& operator=(const MioServer&) = delete;

  /// Binds and listens. Separate from Serve() so callers (tests, the
  /// CLI) know the socket is accepting before clients connect.
  Status Start();

  /// Runs the accept loop until a shutdown request, then drains.
  /// Returns OK after a clean drain, kDeadlineExceeded when the drain
  /// deadline forced cancellation, or the setup/accept error.
  Status Serve();

  /// Requests shutdown (async-signal-safe via the wake pipe; also
  /// callable from any thread). A second request escalates: the drain
  /// cancel token trips immediately instead of waiting the deadline.
  void RequestShutdown();

  /// Installs SIGTERM/SIGINT handlers that RequestShutdown() this
  /// server. Call AFTER ArmExitFlush so these handlers win — the exit
  /// flusher's handlers re-raise and kill the process, which would skip
  /// the drain. Only one server per process may install handlers.
  void InstallSignalHandlers();

  const ServerConfig& config() const { return config_; }
  bool draining() const { return draining_.load(std::memory_order_acquire); }
  std::size_t active_sessions() const;

 private:
  struct Session {
    int fd = -1;
    std::thread thread;
  };

  /// Per-client request accounting for the "stats" op. Query ops only —
  /// ping/metrics/stats probes are not client workload. Bounded:
  /// once kMaxClients distinct connection ids exist, further clients
  /// aggregate under the "~other" key.
  struct ClientStats {
    std::uint64_t requests = 0;
    std::uint64_t refused = 0;
    std::uint64_t coalesced = 0;
    std::uint64_t cached = 0;
  };
  static constexpr std::size_t kMaxClients = 256;

  void SessionLoop(int fd, std::uint64_t conn_id);
  void WorkerLoop();
  /// Handles one parsed request line, writing the response to `fd`.
  /// Returns false when the connection must close (write error).
  bool HandleRequest(int fd, const std::string& client,
                     const std::string& line);
  bool WriteResponse(int fd, const ServeResponse& res);
  /// Terminal step for a query request: stamps `responded`, records
  /// the latency histograms and the per-client table, writes the
  /// response, then appends the request's (exactly-one) qlog record.
  /// `qres` is null for follower/cached/refused roles (no engine stats
  /// of their own).
  bool FinishQuery(int fd, const ServeRequest& req,
                   const std::shared_ptr<RequestContext>& ctx,
                   const QueryResult* qres, ServeResponse* res);
  std::string StatsJson() const;
  /// Solo/leader records take their engine stats from `qres` and their
  /// wall from the response (the engine wall clock); follower, cached
  /// and refused records (`qres` null) take the response's outcome and
  /// the end-to-end time as wall.
  void AppendQlog(const ServeRequest& req, const RequestContext& ctx,
                  const QueryResult* qres, const ServeResponse& res);
  /// Tail-samples one executed request; exports/evicts trace files under
  /// `tail_mu_` when a trace directory is configured.
  void OfferTail(std::uint64_t seq, double wall_seconds);
  void RecordClient(const std::string& client, const RequestContext& ctx);
  /// Seconds since server construction — the clock of the stage
  /// timestamps.
  double NowSeconds() const;

  const ObjectSet& objects_;
  ServerConfig config_;
  std::unique_ptr<MioEngine> engine_;
  AdmissionQueue admission_;
  ResultTable results_;
  CancelToken drain_cancel_;

  int listen_fd_ = -1;
  int wake_pipe_[2] = {-1, -1};
  std::atomic<bool> draining_{false};
  std::atomic<int> shutdown_requests_{0};
  std::atomic<std::uint64_t> inflight_{0};
  std::atomic<std::uint64_t> request_seq_{0};
  std::atomic<std::uint64_t> conn_seq_{0};
  std::mutex inflight_mu_;
  std::condition_variable inflight_cv_;

  std::vector<std::thread> workers_;
  mutable std::mutex sessions_mu_;
  std::vector<std::unique_ptr<Session>> sessions_;

  std::mutex qlog_mu_;
  obs::QlogWriter qlog_;

  std::mutex tail_mu_;
  std::unique_ptr<obs::TailSampler> tail_;

  mutable std::mutex clients_mu_;
  std::map<std::string, ClientStats> clients_;

  std::chrono::steady_clock::time_point start_time_;
};

}  // namespace server
}  // namespace mio
