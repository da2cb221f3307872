// Tests for the `mio serve` subsystem: the mio-serve-v1 wire protocol,
// the admission policy/queue, the coalescer and result cache, the
// engine's thread-safety contract, and end-to-end socket tests against a
// live server (concurrent clients, coalescing/caching differentials,
// overload refusal, graceful drain). The end-to-end tests drive queries
// with threads=1 so a TSan build exercises the server's own concurrency
// without tripping over libgomp's uninstrumented internals.
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/fault_injection.hpp"
#include "core/mio_engine.hpp"
#include "gtest/gtest.h"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/qlog.hpp"
#include "server/evlog.hpp"
#include "server/admission.hpp"
#include "server/client.hpp"
#include "server/coalescer.hpp"
#include "server/protocol.hpp"
#include "server/server.hpp"
#include "test_utils.hpp"

namespace mio {
namespace server {
namespace {

// --- Protocol ---------------------------------------------------------------

TEST(ServeProtocol, RequestRoundTrip) {
  ServeRequest req;
  req.id = "q42";
  req.op = "query";
  req.r = 4.25;
  req.k = 7;
  req.threads = 3;
  req.use_labels = true;
  req.deadline_ms = 1500.0;
  req.no_coalesce = true;

  ServeRequest back;
  ASSERT_TRUE(ParseServeRequest(ServeRequestToJsonLine(req), &back).ok());
  EXPECT_EQ(back.id, "q42");
  EXPECT_EQ(back.op, "query");
  EXPECT_DOUBLE_EQ(back.r, 4.25);
  EXPECT_EQ(back.k, 7u);
  EXPECT_EQ(back.threads, 3);
  EXPECT_TRUE(back.use_labels);
  EXPECT_DOUBLE_EQ(back.deadline_ms, 1500.0);
  EXPECT_TRUE(back.no_coalesce);
}

TEST(ServeProtocol, RequestValidation) {
  ServeRequest out;
  // Not JSON at all.
  EXPECT_EQ(ParseServeRequest("not json", &out).code(),
            StatusCode::kInvalidArgument);
  // Wrong schema.
  EXPECT_EQ(ParseServeRequest(R"({"schema":"v999","op":"ping"})", &out).code(),
            StatusCode::kInvalidArgument);
  // Unknown op.
  EXPECT_EQ(ParseServeRequest(
                R"({"schema":"mio-serve-v1","op":"explode"})", &out)
                .code(),
            StatusCode::kInvalidArgument);
  // Query without a radius.
  EXPECT_EQ(
      ParseServeRequest(R"({"schema":"mio-serve-v1","op":"query"})", &out)
          .code(),
      StatusCode::kInvalidArgument);
  // Non-positive radius.
  EXPECT_EQ(ParseServeRequest(
                R"({"schema":"mio-serve-v1","op":"query","r":0})", &out)
                .code(),
            StatusCode::kInvalidArgument);
  // Overflowing radius (parses to +Inf).
  EXPECT_EQ(ParseServeRequest(
                R"({"schema":"mio-serve-v1","op":"query","r":1e999})", &out)
                .code(),
            StatusCode::kInvalidArgument);
  // Non-finite or out-of-range k, threads and deadline_ms are rejected
  // before they are cast.
  for (const char* field :
       {R"("k":1e999)", R"("k":-1)", R"("k":1e20)", R"("threads":1e999)",
        R"("threads":-1e999)", R"("threads":3e9)", R"("deadline_ms":1e999)",
        R"("deadline_ms":-1e999)"}) {
    EXPECT_EQ(ParseServeRequest(std::string(R"({"schema":"mio-serve-v1",)") +
                                    R"("op":"query","r":2,)" + field + "}",
                                &out)
                  .code(),
              StatusCode::kInvalidArgument)
        << field;
  }
  // Ping needs no radius; k/threads clamp to sane minimums.
  ASSERT_TRUE(ParseServeRequest(
                  R"({"schema":"mio-serve-v1","op":"ping","id":"p"})", &out)
                  .ok());
  EXPECT_EQ(out.id, "p");
  ASSERT_TRUE(
      ParseServeRequest(
          R"({"schema":"mio-serve-v1","op":"query","r":2,"k":0,"threads":-4})",
          &out)
          .ok());
  EXPECT_EQ(out.k, 1u);
  EXPECT_EQ(out.threads, 1);
}

TEST(ServeProtocol, ResponseRoundTrip) {
  ServeResponse res;
  res.id = "q1";
  res.status = StatusCode::kOverloaded;
  res.error = "queue full";
  res.complete = false;
  res.coalesced = true;
  res.cached = false;
  res.retry_after_ms = 75.0;
  res.wall_seconds = 0.125;
  res.topk = {{7, 42}, {3, 41}};

  ServeResponse back;
  ASSERT_TRUE(ParseServeResponse(ServeResponseToJsonLine(res), &back).ok());
  EXPECT_EQ(back.id, "q1");
  EXPECT_EQ(back.status, StatusCode::kOverloaded);
  EXPECT_EQ(back.error, "queue full");
  EXPECT_FALSE(back.complete);
  EXPECT_TRUE(back.coalesced);
  EXPECT_DOUBLE_EQ(back.retry_after_ms, 75.0);
  ASSERT_EQ(back.topk.size(), 2u);
  EXPECT_EQ(back.topk[0].id, 7u);
  EXPECT_EQ(back.topk[0].score, 42u);
  EXPECT_EQ(back.topk[1].id, 3u);
  EXPECT_EQ(back.topk[1].score, 41u);
}

TEST(ServeProtocol, CorruptResponsesAreNeverMistakenForSuccess) {
  ServeResponse out;
  EXPECT_EQ(ParseServeResponse("garbage", &out).code(),
            StatusCode::kCorruption);
  EXPECT_EQ(ParseServeResponse(R"({"schema":"other","status":"OK"})", &out)
                .code(),
            StatusCode::kCorruption);
  EXPECT_EQ(
      ParseServeResponse(
          R"({"schema":"mio-serve-v1","status":"TotallyFine"})", &out)
          .code(),
      StatusCode::kCorruption);
}

// --- Admission policy -------------------------------------------------------

TEST(Admission, CostGrowsWithRadiusCube) {
  EXPECT_EQ(EstimateQueryCost(0.0, 1), 1u);
  EXPECT_LT(EstimateQueryCost(2.0, 1), EstimateQueryCost(4.0, 1));
  EXPECT_LT(EstimateQueryCost(4.0, 1), EstimateQueryCost(8.0, 1));
  // k contributes, second-order.
  EXPECT_LT(EstimateQueryCost(4.0, 1), EstimateQueryCost(4.0, 1000));
}

TEST(Admission, LadderShedsBeforeRefusing) {
  AdmissionConfig cfg;
  cfg.max_queue = 16;

  AdmissionDecision empty = PlanAdmission(0, 0, 10, cfg);
  EXPECT_TRUE(empty.admit);
  EXPECT_EQ(empty.step, DegradationStep::kNone);

  AdmissionDecision half = PlanAdmission(8, 0, 10, cfg);
  EXPECT_TRUE(half.admit);
  EXPECT_EQ(half.step, DegradationStep::kShedLabels);
  EXPECT_EQ(LadderStage(8, cfg), half.step);

  AdmissionDecision deep = PlanAdmission(12, 0, 10, cfg);
  EXPECT_TRUE(deep.admit);
  EXPECT_EQ(deep.step, DegradationStep::kDropGridCache);
  EXPECT_EQ(LadderStage(12, cfg), deep.step);

  AdmissionDecision full = PlanAdmission(16, 0, 10, cfg);
  EXPECT_FALSE(full.admit);
  EXPECT_GT(full.retry_after_ms, 0.0);
}

TEST(Admission, LadderStepClimbsMonotonicallyAndStopsAtGridCache) {
  // Admission enters the engine's ladder but never past kDropGridCache:
  // streaming verification is the memory planner's step alone. Every
  // admitted request runs at exactly the stage health/stats report.
  for (std::size_t cap : {1u, 2u, 3u, 4u, 7u, 16u, 100u}) {
    AdmissionConfig cfg;
    cfg.max_queue = cap;
    DegradationStep prev = DegradationStep::kNone;
    for (std::size_t depth = 0; depth < cap; ++depth) {
      AdmissionDecision d = PlanAdmission(depth, 0, 1, cfg);
      ASSERT_TRUE(d.admit) << "cap " << cap << " depth " << depth;
      EXPECT_EQ(d.step, LadderStage(depth, cfg))
          << "cap " << cap << " depth " << depth;
      EXPECT_GE(d.step, prev) << "cap " << cap << " depth " << depth;
      EXPECT_LE(d.step, DegradationStep::kDropGridCache)
          << "cap " << cap << " depth " << depth;
      prev = d.step;
    }
    // A refusal runs nothing, so it carries no ladder step.
    AdmissionDecision refused = PlanAdmission(cap, 0, 1, cfg);
    EXPECT_FALSE(refused.admit) << "cap " << cap;
    EXPECT_EQ(refused.step, DegradationStep::kNone) << "cap " << cap;
  }
}

TEST(Admission, RetryAfterScalesWithDepth) {
  AdmissionConfig cfg;
  cfg.max_queue = 4;
  double shallow = PlanAdmission(4, 0, 1, cfg).retry_after_ms;
  cfg.max_queue = 4;
  double deep = PlanAdmission(40, 0, 1, cfg).retry_after_ms;
  EXPECT_GT(deep, shallow);
}

TEST(Admission, CostBudgetRefusesButNeverStarves) {
  AdmissionConfig cfg;
  cfg.max_queue = 16;
  cfg.max_queued_cost = 100;
  // Over budget with work already queued: refused.
  EXPECT_FALSE(PlanAdmission(3, 90, 50, cfg).admit);
  // The same expensive request against an empty queue must be admitted —
  // otherwise it could never run at all.
  EXPECT_TRUE(PlanAdmission(0, 0, 1000, cfg).admit);
}

TEST(AdmissionQueue, PushPopAndOverflow) {
  AdmissionConfig cfg;
  cfg.max_queue = 2;
  AdmissionQueue q(cfg);
  std::atomic<int> ran{0};
  auto job = [&] { ran.fetch_add(1); };

  AdmissionDecision d;
  EXPECT_EQ(q.Push(job, 1, &d), AdmissionQueue::PushResult::kAdmitted);
  EXPECT_EQ(q.Push(job, 1, &d), AdmissionQueue::PushResult::kAdmitted);
  EXPECT_EQ(q.Push(job, 1, &d), AdmissionQueue::PushResult::kOverloaded);
  EXPECT_GT(d.retry_after_ms, 0.0);
  EXPECT_EQ(q.depth(), 2u);

  std::function<void()> popped;
  ASSERT_TRUE(q.Pop(&popped));
  popped();
  ASSERT_TRUE(q.Pop(&popped));
  popped();
  EXPECT_EQ(ran.load(), 2);
  EXPECT_EQ(q.depth(), 0u);
}

TEST(AdmissionQueue, CloseDrainsThenReturnsFalse) {
  AdmissionQueue q(AdmissionConfig{});
  std::atomic<int> ran{0};
  ASSERT_EQ(q.Push([&] { ran.fetch_add(1); }, 1, nullptr),
            AdmissionQueue::PushResult::kAdmitted);
  q.Close();
  EXPECT_EQ(q.Push([&] {}, 1, nullptr), AdmissionQueue::PushResult::kClosed);
  std::function<void()> job;
  ASSERT_TRUE(q.Pop(&job));  // queued work still drains
  job();
  EXPECT_EQ(ran.load(), 1);
  EXPECT_FALSE(q.Pop(&job));  // closed and empty
}

// --- Coalescer and result cache ---------------------------------------------

QueryResult MakeResult(std::uint32_t score, bool complete = true,
                       Status status = Status::OK()) {
  QueryResult res;
  res.topk = {{1, score}};
  res.status = std::move(status);
  res.complete = complete;
  return res;
}

TEST(Coalescer, FollowersShareTheLeadersCompleteResult) {
  Coalescer c;
  CoalesceKey key{4.0, 1, 1, false};
  Coalescer::Ticket leader = c.Join(key);
  ASSERT_TRUE(leader.leader);
  Coalescer::Ticket follower = c.Join(key);
  ASSERT_FALSE(follower.leader);
  EXPECT_EQ(leader.exec.get(), follower.exec.get());
  EXPECT_EQ(c.InFlight(), 1u);

  c.Publish(key, MakeResult(42), 0.5);
  EXPECT_EQ(c.InFlight(), 0u);

  QueryResult shared;
  double wall = 0.0;
  ASSERT_TRUE(Coalescer::Await(*follower.exec, &shared, &wall));
  ASSERT_EQ(shared.topk.size(), 1u);
  EXPECT_EQ(shared.topk[0].score, 42u);
  EXPECT_DOUBLE_EQ(wall, 0.5);

  // After Publish the key is free again: the next Join leads.
  EXPECT_TRUE(c.Join(key).leader);
}

TEST(Coalescer, DegradedResultsAreNotShared) {
  Coalescer c;
  CoalesceKey key{4.0, 1, 1, false};
  Coalescer::Ticket leader = c.Join(key);
  Coalescer::Ticket follower = c.Join(key);
  c.Publish(key, MakeResult(10, /*complete=*/false,
                            Status::DeadlineExceeded("slow")),
            0.1);
  QueryResult shared;
  double wall = 0.0;
  // Await resolves but reports non-shareable: the follower must run the
  // query itself.
  EXPECT_FALSE(Coalescer::Await(*follower.exec, &shared, &wall));
  (void)leader;
}

TEST(ResultCache, LruEvictionAndTouch) {
  ResultCache cache(2);
  CoalesceKey a{1.0, 1, 1, false}, b{2.0, 1, 1, false}, c{3.0, 1, 1, false};
  cache.Insert(a, MakeResult(1), 0.0);
  cache.Insert(b, MakeResult(2), 0.0);
  QueryResult out;
  double wall = 0.0;
  ASSERT_TRUE(cache.Lookup(a, &out, &wall));  // touch a: b is now LRU
  cache.Insert(c, MakeResult(3), 0.0);        // evicts b
  EXPECT_TRUE(cache.Lookup(a, &out, &wall));
  EXPECT_FALSE(cache.Lookup(b, &out, &wall));
  EXPECT_TRUE(cache.Lookup(c, &out, &wall));
  EXPECT_EQ(cache.size(), 2u);
}

TEST(ResultCache, RefusesDegradedResultsAndHonorsZeroCapacity) {
  ResultCache cache(4);
  CoalesceKey key{1.0, 1, 1, false};
  cache.Insert(key, MakeResult(1, /*complete=*/false), 0.0);
  cache.Insert(key, MakeResult(1, true, Status::Cancelled("drain")), 0.0);
  QueryResult out;
  double wall = 0.0;
  EXPECT_FALSE(cache.Lookup(key, &out, &wall));
  EXPECT_EQ(cache.size(), 0u);

  ResultCache off(0);
  off.Insert(key, MakeResult(1), 0.0);
  EXPECT_FALSE(off.Lookup(key, &out, &wall));
}

// --- Engine thread-safety (the TSan target) ---------------------------------

TEST(EngineConcurrency, ParallelQueriesMatchSequential) {
  ObjectSet objects = mio::testing::MakeRandomObjects(50, 6, 10, 40.0, 99);
  const std::vector<double> radii = {3.0, 4.0, 5.0};

  // Sequential reference, fresh engine.
  std::vector<QueryResult> expected;
  {
    MioEngine ref(objects);
    QueryOptions opt;
    opt.k = 3;
    for (double r : radii) expected.push_back(ref.Query(r, opt));
  }

  // 8 threads hammering one shared engine with label reuse and the grid
  // cache on — the shared mutable state the server relies on.
  MioEngine engine(objects);
  constexpr int kThreads = 8;
  constexpr int kRounds = 3;
  std::vector<std::vector<QueryResult>> got(kThreads);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      QueryOptions opt;
      opt.k = 3;
      opt.use_labels = opt.record_labels = true;
      opt.reuse_grid = true;
      for (int round = 0; round < kRounds; ++round) {
        for (double r : radii) got[t].push_back(engine.Query(r, opt));
      }
    });
  }
  for (std::thread& w : workers) w.join();

  for (int t = 0; t < kThreads; ++t) {
    ASSERT_EQ(got[t].size(), radii.size() * kRounds);
    for (std::size_t i = 0; i < got[t].size(); ++i) {
      const QueryResult& res = got[t][i];
      const QueryResult& want = expected[i % radii.size()];
      ASSERT_TRUE(res.status.ok());
      ASSERT_TRUE(res.complete);
      ASSERT_EQ(res.topk.size(), want.topk.size());
      for (std::size_t j = 0; j < want.topk.size(); ++j) {
        EXPECT_EQ(res.topk[j].id, want.topk[j].id);
        EXPECT_EQ(res.topk[j].score, want.topk[j].score);
      }
    }
  }
}

// --- End-to-end over the socket ---------------------------------------------

class ServeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fault::Reset();
    obs::ResetMetrics();
    dir_ = std::filesystem::temp_directory_path() /
           ("mio_serve_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
    objects_ = mio::testing::MakeRandomObjects(50, 6, 10, 40.0, 99);
  }

  void TearDown() override {
    if (server_ != nullptr) StopServer();
    fault::Reset();
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  std::string SocketPath() const { return (dir_ / "mio.sock").string(); }

  void StartServer(ServerConfig cfg = {}) {
    cfg.socket_path = SocketPath();
    if (cfg.dataset_name.empty()) cfg.dataset_name = "test";
    server_ = std::make_unique<MioServer>(objects_, cfg);
    ASSERT_TRUE(server_->Start().ok());
    serve_thread_ = std::thread([this] { serve_status_ = server_->Serve(); });
  }

  void StopServer() {
    server_->RequestShutdown();
    if (serve_thread_.joinable()) serve_thread_.join();
    server_.reset();
  }

  ClientConfig Client(int attempts = 5) const {
    ClientConfig cfg;
    cfg.socket_path = SocketPath();
    cfg.attempts = attempts;
    cfg.backoff_base_ms = 1.0;
    return cfg;
  }

  static ServeRequest Query(double r, std::uint64_t k = 3,
                            bool no_coalesce = false) {
    ServeRequest req;
    req.op = "query";
    req.r = r;
    req.k = k;
    req.threads = 1;  // keep TSan runs clear of libgomp
    req.no_coalesce = no_coalesce;
    return req;
  }

  std::filesystem::path dir_;
  ObjectSet objects_;
  std::unique_ptr<MioServer> server_;
  std::thread serve_thread_;
  Status serve_status_;
};

TEST_F(ServeTest, PingHealthAndMetricsOps) {
  StartServer();
  ServeResponse res;

  ServeRequest ping;
  ping.op = "ping";
  ASSERT_TRUE(Call(Client(), ping, &res).ok());
  EXPECT_EQ(res.status, StatusCode::kOk);
  EXPECT_EQ(res.payload, "pong");

  ServeRequest health;
  health.op = "health";
  ASSERT_TRUE(Call(Client(), health, &res).ok());
  EXPECT_NE(res.payload.find("queue_depth"), std::string::npos);
  EXPECT_NE(res.payload.find("\"draining\":false"), std::string::npos);

  ServeRequest metrics;
  metrics.op = "metrics";
  ASSERT_TRUE(Call(Client(), metrics, &res).ok());
  EXPECT_NE(res.payload.find("# EOF"), std::string::npos);
  EXPECT_NE(res.payload.find("mio_server_requests_total"),
            std::string::npos);

  StopServer();
  EXPECT_TRUE(serve_status_.ok()) << serve_status_.ToString();
  // A clean drain removes the socket file.
  EXPECT_FALSE(std::filesystem::exists(SocketPath()));
}

int RawConnect(const std::string& path) {
  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

std::string ReadLineFrom(int fd) {
  std::string buf;
  char c = 0;
  while (::read(fd, &c, 1) == 1) {
    if (c == '\n') break;
    buf.push_back(c);
  }
  return buf;
}

TEST_F(ServeTest, MalformedLinesGetDistinctErrorsNotDisconnects) {
  StartServer();
  int fd = RawConnect(SocketPath());
  ASSERT_GE(fd, 0);
  const std::string garbage = "this is not json\n";
  ASSERT_EQ(::write(fd, garbage.data(), garbage.size()),
            static_cast<ssize_t>(garbage.size()));
  ServeResponse res;
  ASSERT_TRUE(ParseServeResponse(ReadLineFrom(fd), &res).ok());
  EXPECT_EQ(res.status, StatusCode::kInvalidArgument);
  EXPECT_FALSE(res.error.empty());
  // The connection survives a bad line: a valid request on the same fd
  // still gets served.
  const std::string ping =
      std::string(R"({"schema":"mio-serve-v1","op":"ping","id":"after"})") +
      "\n";
  ASSERT_EQ(::write(fd, ping.data(), ping.size()),
            static_cast<ssize_t>(ping.size()));
  ASSERT_TRUE(ParseServeResponse(ReadLineFrom(fd), &res).ok());
  EXPECT_EQ(res.status, StatusCode::kOk);
  EXPECT_EQ(res.id, "after");
  ::close(fd);
  StopServer();
  EXPECT_TRUE(serve_status_.ok());
}

TEST_F(ServeTest, ConcurrentClientsBitIdenticalToSequential) {
  const std::vector<double> radii = {3.0, 4.0, 5.0};
  std::vector<QueryResult> expected;
  {
    MioEngine ref(objects_);
    QueryOptions opt;
    opt.k = 3;
    for (double r : radii) expected.push_back(ref.Query(r, opt));
  }

  StartServer();
  constexpr int kClients = 8;
  std::vector<std::vector<ServeResponse>> got(kClients);
  std::vector<int> transport_failures(kClients, 0);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int round = 0; round < 2; ++round) {
        for (double r : radii) {
          ServeResponse res;
          // Mix coalescable and forced-execution requests.
          Status st =
              server::Call(Client(), Query(r, 3, /*no_coalesce=*/c % 2 == 0),
                           &res);
          if (!st.ok()) {
            ++transport_failures[c];
            continue;
          }
          got[c].push_back(res);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  StopServer();
  EXPECT_TRUE(serve_status_.ok()) << serve_status_.ToString();

  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(transport_failures[c], 0);
    ASSERT_EQ(got[c].size(), radii.size() * 2);
    for (std::size_t i = 0; i < got[c].size(); ++i) {
      const ServeResponse& res = got[c][i];
      const QueryResult& want = expected[i % radii.size()];
      ASSERT_EQ(res.status, StatusCode::kOk) << res.error;
      ASSERT_TRUE(res.complete);
      ASSERT_EQ(res.topk.size(), want.topk.size());
      for (std::size_t j = 0; j < want.topk.size(); ++j) {
        EXPECT_EQ(res.topk[j].id, want.topk[j].id);
        EXPECT_EQ(res.topk[j].score, want.topk[j].score);
      }
    }
  }
}

TEST_F(ServeTest, CachedReplayIsBitIdenticalAndMarked) {
  StartServer();
  ServeResponse first, second, forced;
  ASSERT_TRUE(Call(Client(), Query(4.0), &first).ok());
  ASSERT_EQ(first.status, StatusCode::kOk);
  ASSERT_TRUE(Call(Client(), Query(4.0), &second).ok());
  EXPECT_TRUE(second.cached);
  // A no_coalesce request bypasses the cache — a genuinely fresh
  // execution to differentiate against.
  ASSERT_TRUE(Call(Client(), Query(4.0, 3, /*no_coalesce=*/true), &forced)
                  .ok());
  EXPECT_FALSE(forced.cached);

  ASSERT_EQ(second.topk.size(), first.topk.size());
  ASSERT_EQ(forced.topk.size(), first.topk.size());
  for (std::size_t i = 0; i < first.topk.size(); ++i) {
    EXPECT_EQ(second.topk[i].id, first.topk[i].id);
    EXPECT_EQ(second.topk[i].score, first.topk[i].score);
    EXPECT_EQ(forced.topk[i].id, first.topk[i].id);
    EXPECT_EQ(forced.topk[i].score, first.topk[i].score);
  }
  StopServer();
}

TEST_F(ServeTest, EnqueueFaultRefusesWithOverloadedAndRetryHint) {
  if (!fault::kCompiledIn) {
    GTEST_SKIP() << "fault injection compiled out";
  }
  StartServer();
  ASSERT_TRUE(fault::Arm("server.enqueue", "always").ok());
  ServeResponse res;
  Status st = Call(Client(/*attempts=*/2), Query(4.0), &res);
  // Retries exhausted on Overloaded: the call reports Overloaded and the
  // last refusal (with its retry hint) is in `res`.
  EXPECT_EQ(st.code(), StatusCode::kOverloaded);
  EXPECT_EQ(res.status, StatusCode::kOverloaded);
  EXPECT_GT(res.retry_after_ms, 0.0);
  EXPECT_FALSE(res.complete);
  fault::Reset();
  // The server recovers once the fault clears.
  ASSERT_TRUE(Call(Client(), Query(4.0), &res).ok());
  EXPECT_EQ(res.status, StatusCode::kOk);
  StopServer();
  EXPECT_TRUE(serve_status_.ok());
}

TEST_F(ServeTest, DrainAnswersEveryAcceptedRequest) {
  StartServer();
  constexpr int kClients = 6;
  std::atomic<int> answered{0}, transport{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      ServeResponse res;
      Status st = server::Call(Client(/*attempts=*/1),
                               Query(3.0 + 0.5 * (c % 3)), &res);
      if (st.ok() || st.code() == StatusCode::kOverloaded) {
        answered.fetch_add(1);
      } else {
        transport.fetch_add(1);  // raced the listener close: acceptable
      }
    });
  }
  // Shut down while the burst is in flight.
  server_->RequestShutdown();
  for (std::thread& t : clients) t.join();
  if (serve_thread_.joinable()) serve_thread_.join();
  // Honest exit either way; with fast test queries the drain is clean.
  EXPECT_TRUE(serve_status_.ok() ||
              serve_status_.code() == StatusCode::kDeadlineExceeded)
      << serve_status_.ToString();
  EXPECT_EQ(answered.load() + transport.load(), kClients);
  server_.reset();
  EXPECT_FALSE(std::filesystem::exists(SocketPath()));
}

TEST_F(ServeTest, QlogRecordsOnePerAcceptedRequest) {
  ServerConfig cfg;
  cfg.qlog_path = (dir_ / "serve.jsonl").string();
  StartServer(cfg);
  ServeResponse res;
  ASSERT_TRUE(Call(Client(), Query(3.0), &res).ok());
  ASSERT_TRUE(Call(Client(), Query(4.0), &res).ok());
  ASSERT_TRUE(Call(Client(), Query(4.0), &res).ok());  // cache hit logs too
  EXPECT_TRUE(res.cached);
  StopServer();

  Result<std::vector<obs::QlogRecord>> records =
      obs::LoadQlogFile((dir_ / "serve.jsonl").string());
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  // One record per accepted request — the cache hit included, tagged
  // with its role and zeroed engine stats.
  ASSERT_EQ(records.value().size(), 3u);
  std::size_t executed = 0, cached = 0;
  for (const obs::QlogRecord& rec : records.value()) {
    EXPECT_EQ(rec.workload, "serve");
    EXPECT_EQ(rec.status, "OK");
    EXPECT_TRUE(rec.complete);
    ASSERT_TRUE(rec.HasServer());
    EXPECT_GT(rec.server_e2e_seconds, 0.0);
    if (rec.ServerExecuted()) {
      ++executed;
      EXPECT_GT(rec.objects, 0u);
    } else {
      EXPECT_EQ(rec.server_role, "cached");
      ++cached;
      // A replayed result must not double-count the leader's work.
      EXPECT_EQ(rec.objects, 0u);
      EXPECT_EQ(rec.distance_computations, 0u);
      EXPECT_DOUBLE_EQ(rec.server_queue_wait_seconds, 0.0);
    }
  }
  EXPECT_EQ(executed, 2u);
  EXPECT_EQ(cached, 1u);
}

TEST_F(ServeTest, ResponsesCarryUniqueRequestIdsMatchingTheQlog) {
  ServerConfig cfg;
  cfg.qlog_path = (dir_ / "serve.jsonl").string();
  StartServer(cfg);
  std::vector<std::string> ids;
  for (double r : {3.0, 3.5, 4.0}) {
    ServeRequest req = Query(r, 3, /*no_coalesce=*/true);
    req.id = "corr-" + std::to_string(ids.size());
    ServeResponse res;
    ASSERT_TRUE(Call(Client(), req, &res).ok());
    ASSERT_EQ(res.status, StatusCode::kOk);
    ASSERT_FALSE(res.request_id.empty());
    EXPECT_EQ(res.request_id[0], 'r');
    EXPECT_EQ(res.id, req.id);  // correlation id echoed
    ids.push_back(res.request_id);
  }
  // Probe ops get ids from the same sequence (every parsed request does).
  ServeRequest ping;
  ping.op = "ping";
  ServeResponse res;
  ASSERT_TRUE(Call(Client(), ping, &res).ok());
  EXPECT_FALSE(res.request_id.empty());
  StopServer();

  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::unique(ids.begin(), ids.end()), ids.end());

  // The qlog's id namespace is the response's: every record's server
  // section names one of the ids the client saw.
  Result<std::vector<obs::QlogRecord>> records =
      obs::LoadQlogFile((dir_ / "serve.jsonl").string());
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records.value().size(), ids.size());
  for (const obs::QlogRecord& rec : records.value()) {
    EXPECT_TRUE(std::binary_search(ids.begin(), ids.end(),
                                   rec.server_request_id))
        << rec.server_request_id;
    EXPECT_EQ(rec.server_correlation_id.rfind("corr-", 0), 0u);
  }
}

TEST_F(ServeTest, HealthReportsUptimeLadderAndHitCounters) {
  StartServer();
  ServeResponse res;
  ASSERT_TRUE(Call(Client(), Query(4.0), &res).ok());
  ASSERT_TRUE(Call(Client(), Query(4.0), &res).ok());  // cache hit

  ServeRequest health;
  health.op = "health";
  ASSERT_TRUE(Call(Client(), health, &res).ok());
  obs::JsonValue doc;
  ASSERT_TRUE(obs::ParseJson(res.payload, &doc)) << res.payload;
  EXPECT_GT(doc.GetDouble("uptime_seconds", -1.0), 0.0);
  EXPECT_FALSE(doc.GetBool("draining", true));
  EXPECT_EQ(doc.GetUInt("ladder_stage", 99), 0u);  // idle server
  ASSERT_NE(doc.Find("cache_hits"), nullptr);
  EXPECT_GE(doc.GetUInt("cache_hits"), 1u);
  ASSERT_NE(doc.Find("coalesced"), nullptr);
  StopServer();
}

TEST_F(ServeTest, StatsOpSnapshotsTheLivePipeline) {
  StartServer();
  ServeResponse res;
  ASSERT_TRUE(Call(Client(), Query(4.0), &res).ok());
  ASSERT_TRUE(Call(Client(), Query(4.0), &res).ok());  // cache hit

  ServeRequest stats;
  stats.op = "stats";
  ASSERT_TRUE(Call(Client(), stats, &res).ok());
  ASSERT_EQ(res.status, StatusCode::kOk);
  obs::JsonValue doc;
  ASSERT_TRUE(obs::ParseJson(res.payload, &doc)) << res.payload;
  EXPECT_EQ(doc.GetString("schema"), "mio-server-stats-v1");
  EXPECT_GT(doc.GetDouble("uptime_seconds", -1.0), 0.0);
  EXPECT_EQ(doc.GetUInt("workers", 0), 2u);
  EXPECT_GT(doc.GetUInt("objects"), 0u);
  const obs::JsonValue* counters = doc.Find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_GE(counters->GetUInt("requests"), 2u);
  EXPECT_GE(counters->GetUInt("cache_hits"), 1u);
  // The e2e histogram saw both query requests; queue-wait only the
  // executed one (the cache hit never queued).
  const obs::JsonValue* e2e = doc.Find("e2e");
  ASSERT_NE(e2e, nullptr);
  EXPECT_GE(e2e->GetUInt("count"), 2u);
  EXPECT_GE(e2e->GetDouble("p50_ms", -1.0), 0.0);
  const obs::JsonValue* clients = doc.Find("clients");
  ASSERT_NE(clients, nullptr);
  ASSERT_FALSE(clients->elements().empty());
  std::uint64_t total_requests = 0, total_cached = 0;
  for (const obs::JsonValue& row : clients->elements()) {
    total_requests += row.GetUInt("requests");
    total_cached += row.GetUInt("cached");
  }
  EXPECT_EQ(total_requests, 2u);  // stats/ping probes are not workload
  EXPECT_EQ(total_cached, 1u);
  StopServer();
}

std::vector<obs::JsonValue> LoadEvlog(const std::string& path) {
  std::vector<obs::JsonValue> events;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    EXPECT_TRUE(ValidateEvlogLine(line).ok()) << line;
    obs::JsonValue doc;
    EXPECT_TRUE(obs::ParseJson(line, &doc));
    events.push_back(std::move(doc));
  }
  return events;
}

TEST_F(ServeTest, EvlogHasExactlyOneTerminalEventPerQueryRequest) {
  ServerConfig cfg;
  cfg.evlog_path = (dir_ / "events.jsonl").string();
  StartServer(cfg);
  ServeResponse res;
  ASSERT_TRUE(Call(Client(), Query(3.0), &res).ok());
  const std::string first_id = res.request_id;
  ASSERT_TRUE(Call(Client(), Query(3.0), &res).ok());  // cache hit
  server_->RequestShutdown();
  if (serve_thread_.joinable()) serve_thread_.join();
  EXPECT_GE(server_->evlog_written(), 2u);
  EXPECT_EQ(server_->evlog_dropped(), 0u);
  server_.reset();

  std::vector<obs::JsonValue> events = LoadEvlog(cfg.evlog_path);
  std::map<std::string, int> terminal_per_request;
  bool saw_drain_begin = false, saw_drain_end = false;
  for (const obs::JsonValue& ev : events) {
    const std::string name = ev.GetString("event");
    if (name == "respond" || name == "refuse") {
      ++terminal_per_request[ev.GetString("request_id")];
      // Terminal events carry monotonic stages.
      const obs::JsonValue* stages = ev.Find("stages");
      ASSERT_NE(stages, nullptr);
      double prev = -1.0;
      for (const char* s :
           {"accepted", "enqueued", "dequeued", "executed", "responded"}) {
        const obs::JsonValue* v = stages->Find(s);
        if (v == nullptr) continue;
        EXPECT_GE(v->AsDouble(), prev) << s;
        prev = v->AsDouble();
      }
    } else if (name == "drain") {
      if (ev.GetString("detail").rfind("begin", 0) == 0) {
        saw_drain_begin = true;
      } else {
        saw_drain_end = true;
      }
    }
  }
  ASSERT_EQ(terminal_per_request.size(), 2u);
  for (const auto& [id, count] : terminal_per_request) {
    EXPECT_EQ(count, 1) << id;
  }
  EXPECT_EQ(terminal_per_request.count(first_id), 1u);
  EXPECT_TRUE(saw_drain_begin);
  EXPECT_TRUE(saw_drain_end);
}

TEST_F(ServeTest, RefusalsGetExactlyOneTerminalEventDuringDrainBurst) {
  if (!fault::kCompiledIn) {
    GTEST_SKIP() << "fault injection compiled out";
  }
  ServerConfig cfg;
  cfg.evlog_path = (dir_ / "events.jsonl").string();
  StartServer(cfg);
  // Force every admission to refuse, then fire a burst and shut down in
  // the middle of it — the drain accounting must still be exact.
  ASSERT_TRUE(fault::Arm("server.enqueue", "always").ok());
  constexpr int kClients = 6;
  std::atomic<int> refused{0}, transport{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      ServeResponse r;
      Status st = server::Call(Client(/*attempts=*/1), Query(3.0 + c), &r);
      if (st.code() == StatusCode::kOverloaded) {
        refused.fetch_add(1);
      } else if (!st.ok()) {
        transport.fetch_add(1);  // raced the listener close: acceptable
      }
    });
  }
  server_->RequestShutdown();
  for (std::thread& t : clients) t.join();
  if (serve_thread_.joinable()) serve_thread_.join();
  server_.reset();
  fault::Reset();

  std::vector<obs::JsonValue> events = LoadEvlog(cfg.evlog_path);
  std::map<std::string, int> refuse_per_request;
  int responds = 0;
  for (const obs::JsonValue& ev : events) {
    const std::string name = ev.GetString("event");
    if (name == "refuse") {
      ++refuse_per_request[ev.GetString("request_id")];
      EXPECT_EQ(ev.GetString("status"), "Overloaded");
      EXPECT_GT(ev.GetDouble("retry_after_ms"), 0.0);
      // A refusal never entered the queue: no enqueued stage.
      const obs::JsonValue* stages = ev.Find("stages");
      ASSERT_NE(stages, nullptr);
      EXPECT_EQ(stages->Find("enqueued"), nullptr);
    } else if (name == "respond") {
      ++responds;
    }
  }
  // Every client that saw an Overloaded response has exactly one refuse
  // event; nothing was double-logged as both refuse and respond.
  EXPECT_EQ(refuse_per_request.size(),
            static_cast<std::size_t>(refused.load()));
  for (const auto& [id, count] : refuse_per_request) {
    EXPECT_EQ(count, 1) << id;
  }
  EXPECT_EQ(responds, 0);
}

TEST_F(ServeTest, CoalescedRolesLandInQlogAndFollowersSkipQueueWait) {
  ServerConfig cfg;
  cfg.qlog_path = (dir_ / "serve.jsonl").string();
  cfg.workers = 1;  // serialise executions so identical queries pile up
  StartServer(cfg);
  constexpr int kClients = 4;
  std::vector<std::thread> clients;
  std::atomic<int> ok{0};
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      ServeResponse r;
      if (server::Call(Client(), Query(5.0), &r).ok() &&
          r.status == StatusCode::kOk) {
        ok.fetch_add(1);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  StopServer();
  ASSERT_EQ(ok.load(), kClients);

  Result<std::vector<obs::QlogRecord>> records =
      obs::LoadQlogFile((dir_ / "serve.jsonl").string());
  ASSERT_TRUE(records.ok());
  // Every accepted request logged exactly once, whatever its role.
  ASSERT_EQ(records.value().size(), static_cast<std::size_t>(kClients));
  std::size_t executed = 0;
  for (const obs::QlogRecord& rec : records.value()) {
    ASSERT_TRUE(rec.HasServer());
    if (rec.ServerExecuted()) {
      ++executed;
    } else {
      // follower/cached: no engine stats, no queue wait of their own.
      EXPECT_EQ(rec.distance_computations, 0u);
      EXPECT_DOUBLE_EQ(rec.server_queue_wait_seconds, 0.0);
    }
  }
  EXPECT_GE(executed, 1u);
}

}  // namespace
}  // namespace server
}  // namespace mio
