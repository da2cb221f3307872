// Tests for the `mio serve` subsystem: the mio-serve-v1 wire protocol
// (with a mutation fuzz loop), the admission policy/queue, the result
// table that coalesces and caches, the engine's thread-safety contract,
// and end-to-end socket tests against a live server (concurrent clients,
// coalescing/caching differentials, overload refusal, graceful drain and
// its stderr markers, and exactly one qlog record per query request). The
// end-to-end tests drive queries with threads=1 so a TSan build exercises
// the server's own concurrency without tripping over libgomp's
// uninstrumented internals.
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/fault_injection.hpp"
#include "core/mio_engine.hpp"
#include "gtest/gtest.h"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/qlog.hpp"
#include "server/admission.hpp"
#include "server/client.hpp"
#include "server/protocol.hpp"
#include "server/result_table.hpp"
#include "server/server.hpp"
#include "test_utils.hpp"

namespace mio {
namespace server {
namespace {

using obs::kRoleCached;
using obs::kRoleRefused;

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
  // Unknown op, and the deleted "health" op (stats carries its fields).
  for (const char* op : {"explode", "health"}) {
    EXPECT_EQ(ParseServeRequest(std::string(R"({"schema":"mio-serve-v1",)") +
                                    R"("op":")" + op + R"("})",
                                &out)
                  .code(),
              StatusCode::kInvalidArgument)
        << op;
  }
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
  // A number the writer could not emit back ("1e999" parses to Inf).
  EXPECT_EQ(ParseServeResponse(
                R"({"schema":"mio-serve-v1","status":"OK","wall_seconds":1e999})",
                &out)
                .code(),
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

// Deterministic mutation fuzzing of both directions of mio-serve-v1: no
// input may crash a parser, and every accepted line must reach a fixed
// point after one parse -> serialise pass.
TEST(ServeProtocol, FuzzedLinesNeverCrashAndRoundTrip) {
  ServeRequest query;
  query.id = "q7";
  query.r = 4.25;
  query.k = 3;
  query.threads = 2;
  query.use_labels = true;
  query.deadline_ms = 250.0;
  query.no_coalesce = true;
  ServeRequest stats;
  stats.id = "top";
  stats.op = "stats";
  const std::vector<std::string> requests = {ServeRequestToJsonLine(query),
                                             ServeRequestToJsonLine(stats)};
  ServeResponse ok;
  ok.id = "q7";
  ok.request_id = "r000042";
  ok.wall_seconds = 0.0125;
  ok.coalesced = true;
  ok.topk = {{7, 42}, {3, 41}};
  ServeResponse refused;
  refused.request_id = "r000043";
  refused.status = StatusCode::kOverloaded;
  refused.error = "admission queue full";
  refused.complete = false;
  refused.retry_after_ms = 75.0;
  ServeResponse metrics;
  metrics.payload = "# TYPE mio_x counter\nmio_x_total 1\n# EOF\n";
  const std::vector<std::string> responses = {
      ServeResponseToJsonLine(ok), ServeResponseToJsonLine(refused),
      ServeResponseToJsonLine(metrics)};

  Pcg32 rng(0x73657276 /* "serv" */, 1);
  std::size_t accepted_requests = 0, accepted_responses = 0;
  for (int i = 0; i < 3000; ++i) {
    const std::string line = mio::testing::MutateLine(requests, rng);
    ServeRequest req;
    if (!ParseServeRequest(line, &req).ok()) continue;
    ++accepted_requests;
    const std::string once = ServeRequestToJsonLine(req);
    ServeRequest back;
    ASSERT_TRUE(ParseServeRequest(once, &back).ok()) << line << "\n" << once;
    ASSERT_EQ(ServeRequestToJsonLine(back), once) << line;
  }
  for (int i = 0; i < 3000; ++i) {
    const std::string line = mio::testing::MutateLine(responses, rng);
    ServeResponse res;
    if (!ParseServeResponse(line, &res).ok()) continue;
    ++accepted_responses;
    const std::string once = ServeResponseToJsonLine(res);
    ServeResponse back;
    ASSERT_TRUE(ParseServeResponse(once, &back).ok()) << line << "\n" << once;
    ASSERT_EQ(ServeResponseToJsonLine(back), once) << line;
  }
  // The mutations must reach the accepting paths, not only the errors.
  EXPECT_GT(accepted_requests, 100u);
  EXPECT_GT(accepted_responses, 100u);
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

// --- Result table -----------------------------------------------------------

QueryResult MakeResult(std::uint32_t score, bool complete = true,
                       Status status = Status::OK()) {
  QueryResult res;
  res.topk = {{1, score}};
  res.status = std::move(status);
  res.complete = complete;
  return res;
}

/// The score `exec` resolved with, or -1 when it is not shareable.
std::int64_t SharedScore(Execution& exec) {
  QueryResult out;
  double wall = 0.0;
  if (!exec.Await(&out, &wall)) return -1;
  return out.topk.empty() ? 0 : out.topk[0].score;
}

TEST(ResultTable, FollowersShareTheLeadersCompleteResult) {
  ResultTable table(4);
  const CoalesceKey key{4.0, 1, 1, false};
  ResultTable::Ticket leader = table.Join(key);
  ASSERT_EQ(leader.role, ResultTable::Role::kLeader);
  ResultTable::Ticket follower = table.Join(key);
  ASSERT_EQ(follower.role, ResultTable::Role::kFollower);
  EXPECT_EQ(leader.exec.get(), follower.exec.get());
  EXPECT_EQ(table.cached(), 0u);  // in flight, not yet a cache entry

  table.Publish(key, leader.exec, MakeResult(42), 0.5);

  QueryResult shared;
  double wall = 0.0;
  ASSERT_TRUE(follower.exec->Await(&shared, &wall));
  ASSERT_EQ(shared.topk.size(), 1u);
  EXPECT_EQ(shared.topk[0].score, 42u);
  EXPECT_DOUBLE_EQ(wall, 0.5);
}

// A Join after a shareable Publish is a cache hit. The window this
// closes: with a separate cache and in-flight map, a request could miss
// the cache, then the leader cached and published (leaving the in-flight
// map), and the request's Join found nothing in flight and led a second
// execution. With one table the lookup and the join are one step.
TEST(ResultTable, JoinAfterTheLeadersPublishIsACacheHitNotASecondLeader) {
  ResultTable table(4);
  const CoalesceKey key{4.0, 1, 1, false};
  ResultTable::Ticket leader = table.Join(key);
  table.Publish(key, leader.exec, MakeResult(7), 0.25);
  ResultTable::Ticket late = table.Join(key);
  ASSERT_EQ(late.role, ResultTable::Role::kCached);
  EXPECT_EQ(late.exec.get(), leader.exec.get());
  EXPECT_EQ(SharedScore(*late.exec), 7);
  EXPECT_EQ(table.cached(), 1u);
}

TEST(ResultTable, DegradedAndRefusedResultsAreNeitherSharedNorCached) {
  ResultTable table(4);
  const CoalesceKey key{4.0, 1, 1, false};
  for (QueryResult bad :
       {MakeResult(10, /*complete=*/false, Status::DeadlineExceeded("slow")),
        MakeResult(10, /*complete=*/false, Status::Overloaded("queue full")),
        MakeResult(10, /*complete=*/true, Status::Cancelled("drain"))}) {
    ResultTable::Ticket leader = table.Join(key);
    ASSERT_EQ(leader.role, ResultTable::Role::kLeader);
    ResultTable::Ticket follower = table.Join(key);
    ASSERT_EQ(follower.role, ResultTable::Role::kFollower);
    table.Publish(key, leader.exec, std::move(bad), 0.1);
    // Await resolves but reports non-shareable: the follower must run
    // the query itself.
    EXPECT_EQ(SharedScore(*follower.exec), -1);
    EXPECT_EQ(table.cached(), 0u);
    // The entry left the table: the next request leads a fresh run.
    ResultTable::Ticket next = table.Join(key);
    EXPECT_EQ(next.role, ResultTable::Role::kLeader);
    EXPECT_NE(next.exec.get(), leader.exec.get());
    table.Publish(key, next.exec, MakeResult(0, false), 0.0);
  }
  // A solo run's degraded result is not offered either.
  table.Publish(key, std::make_shared<Execution>(), MakeResult(3, false), 0.0);
  EXPECT_EQ(table.cached(), 0u);
}

TEST(ResultTable, LruEvictionAndTouch) {
  ResultTable table(2);
  const CoalesceKey a{1.0, 1, 1, false}, b{2.0, 1, 1, false},
      c{3.0, 1, 1, false};
  for (const CoalesceKey& key : {a, b}) {
    table.Publish(key, table.Join(key).exec, MakeResult(1), 0.0);
  }
  ASSERT_EQ(table.Join(a).role, ResultTable::Role::kCached);  // b is LRU
  table.Publish(c, table.Join(c).exec, MakeResult(3), 0.0);   // evicts b
  EXPECT_EQ(table.cached(), 2u);
  EXPECT_EQ(table.Join(a).role, ResultTable::Role::kCached);
  EXPECT_EQ(table.Join(c).role, ResultTable::Role::kCached);
  ResultTable::Ticket again = table.Join(b);
  EXPECT_EQ(again.role, ResultTable::Role::kLeader);
  table.Publish(b, again.exec, MakeResult(2), 0.0);
}

TEST(ResultTable, EvictionNeverDropsAnInFlightEntry) {
  ResultTable table(1);
  const CoalesceKey slow{1.0, 1, 1, false};
  ResultTable::Ticket leader = table.Join(slow);
  // Finished entries for other keys churn through the single slot while
  // `slow` stays in flight.
  for (double r : {2.0, 3.0, 4.0}) {
    const CoalesceKey key{r, 1, 1, false};
    table.Publish(key, table.Join(key).exec, MakeResult(1), 0.0);
    EXPECT_EQ(table.cached(), 1u);
  }
  ResultTable::Ticket follower = table.Join(slow);
  ASSERT_EQ(follower.role, ResultTable::Role::kFollower);
  EXPECT_EQ(follower.exec.get(), leader.exec.get());
  table.Publish(slow, leader.exec, MakeResult(9), 0.0);
  EXPECT_EQ(SharedScore(*follower.exec), 9);
  EXPECT_EQ(table.Join(slow).role, ResultTable::Role::kCached);
}

TEST(ResultTable, SoloRunOffersItsCompleteResult) {
  ResultTable table(4);
  const CoalesceKey key{5.0, 2, 1, true};
  auto solo = std::make_shared<Execution>();
  table.Publish(key, solo, MakeResult(11), 0.0);
  EXPECT_EQ(SharedScore(*solo), 11);  // the solo's own answer
  ResultTable::Ticket hit = table.Join(key);
  ASSERT_EQ(hit.role, ResultTable::Role::kCached);
  EXPECT_EQ(SharedScore(*hit.exec), 11);
}

TEST(ResultTable, ZeroCapacityCoalescesButCachesNothing) {
  ResultTable table(0);
  const CoalesceKey key{1.0, 1, 1, false};
  ResultTable::Ticket leader = table.Join(key);
  ResultTable::Ticket follower = table.Join(key);
  ASSERT_EQ(leader.role, ResultTable::Role::kLeader);
  ASSERT_EQ(follower.role, ResultTable::Role::kFollower);
  table.Publish(key, leader.exec, MakeResult(5), 0.0);
  EXPECT_EQ(SharedScore(*follower.exec), 5);
  EXPECT_EQ(table.cached(), 0u);
  ResultTable::Ticket next = table.Join(key);
  EXPECT_EQ(next.role, ResultTable::Role::kLeader);
  table.Publish(key, next.exec, MakeResult(5), 0.0);
  table.Publish(key, std::make_shared<Execution>(), MakeResult(5), 0.0);
  EXPECT_EQ(table.cached(), 0u);
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

  // "health" is gone ("stats" is the one introspection op): the server
  // answers it as an unknown op and keeps the connection usable.
  ServeRequest health;
  health.op = "health";
  ASSERT_TRUE(Call(Client(), health, &res).ok());
  EXPECT_EQ(res.status, StatusCode::kInvalidArgument);

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

// A request for 2^31 - 1 threads once sized the grid build's per-thread
// shards by it and aborted the server with bad_alloc. The server caps
// the team at MaxThreads(): the query is answered exactly and the next
// request on the connection is still served.
TEST_F(ServeTest, HugeThreadCountIsCappedNotFatal) {
  QueryResult expected = MioEngine(objects_).Query(4.0);
  StartServer();
  int fd = RawConnect(SocketPath());
  ASSERT_GE(fd, 0);
  ServeResponse res;
  for (const char* line :
       {R"({"schema":"mio-serve-v1","op":"query","id":"big","r":4,)"
        R"("threads":2147483647})",
        R"({"schema":"mio-serve-v1","op":"ping","id":"after"})"}) {
    const std::string request = std::string(line) + "\n";
    ASSERT_EQ(::write(fd, request.data(), request.size()),
              static_cast<ssize_t>(request.size()));
    ASSERT_TRUE(ParseServeResponse(ReadLineFrom(fd), &res).ok()) << line;
    EXPECT_EQ(res.status, StatusCode::kOk) << line;
    if (res.id == "big") {
      EXPECT_TRUE(res.complete);
      ASSERT_EQ(res.topk.size(), 1u);
      EXPECT_EQ(res.topk[0].id, expected.best().id);
      EXPECT_EQ(res.topk[0].score, expected.best().score);
    }
  }
  EXPECT_EQ(res.payload, "pong");
  ::close(fd);
  StopServer();
  EXPECT_TRUE(serve_status_.ok()) << serve_status_.ToString();
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

// The server log marks the drain twice, once as it begins and once as
// it ends, each exactly once per drain and with no --verbose needed.
TEST_F(ServeTest, DrainMarkersPrintExactlyOnceEach) {
  StartServer();
  ServeResponse res;
  ASSERT_TRUE(Call(Client(), Query(3.0), &res).ok());
  ::testing::internal::CaptureStderr();
  StopServer();
  const std::string err = ::testing::internal::GetCapturedStderr();
  auto count = [&err](const std::string& needle) {
    std::size_t n = 0;
    for (std::size_t pos = err.find(needle); pos != std::string::npos;
         pos = err.find(needle, pos + 1)) {
      ++n;
    }
    return n;
  };
  EXPECT_EQ(count("serve: drain begin: queue_depth="), 1u) << err;
  EXPECT_EQ(count("serve: drained"), 1u) << err;
  EXPECT_EQ(count("serve: drained cleanly\n"), 1u) << err;
  EXPECT_TRUE(serve_status_.ok()) << serve_status_.ToString();
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
  EXPECT_FALSE(doc.GetBool("draining", true));
  EXPECT_EQ(doc.GetUInt("ladder_stage", 99), 0u);  // idle server
  EXPECT_EQ(doc.GetUInt("workers", 0), 2u);
  EXPECT_GT(doc.GetUInt("objects"), 0u);
  const obs::JsonValue* counters = doc.Find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_GE(counters->GetUInt("requests"), 2u);
  EXPECT_GE(counters->GetUInt("cache_hits"), 1u);
  ASSERT_NE(counters->Find("coalesced"), nullptr);
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

/// A server qlog keyed by request id; a request logged twice fails.
std::map<std::string, obs::QlogRecord> LoadQlogById(const std::string& path) {
  std::map<std::string, obs::QlogRecord> by_id;
  Result<std::vector<obs::QlogRecord>> records = obs::LoadQlogFile(path);
  EXPECT_TRUE(records.ok()) << records.status().ToString();
  if (!records.ok()) return by_id;
  for (obs::QlogRecord& rec : records.value()) {
    const std::string id = rec.server_request_id;
    EXPECT_TRUE(by_id.emplace(id, std::move(rec)).second)
        << id << " has two records";
  }
  return by_id;
}

/// Stamped stages (the ones a record carries) in lifecycle order.
bool StagesMonotonic(const obs::QlogRecord& rec) {
  double prev = 0.0;
  for (double stage : rec.server_stages) {
    if (stage < 0.0) continue;
    if (stage < prev) return false;
    prev = stage;
  }
  return true;
}

TEST_F(ServeTest, QlogHasExactlyOneRecordPerQueryRequest) {
  ServerConfig cfg;
  cfg.qlog_path = (dir_ / "serve.jsonl").string();
  StartServer(cfg);
  std::vector<std::string> ids;
  ServeResponse res;
  for (int i = 0; i < 2; ++i) {  // executed, then a cache hit
    ASSERT_TRUE(Call(Client(), Query(3.0), &res).ok());
    ids.push_back(res.request_id);
  }
  ServeRequest ping;  // probes are not query requests: no record
  ping.op = "ping";
  ASSERT_TRUE(Call(Client(), ping, &res).ok());
  StopServer();

  std::map<std::string, obs::QlogRecord> by_id = LoadQlogById(cfg.qlog_path);
  ASSERT_EQ(by_id.size(), ids.size());
  for (const std::string& id : ids) {
    ASSERT_EQ(by_id.count(id), 1u) << id;
    const obs::QlogRecord& rec = by_id.at(id);
    EXPECT_TRUE(StagesMonotonic(rec)) << id;
    EXPECT_GE(rec.server_stages[0], 0.0) << id;  // accepted
    EXPECT_GE(rec.server_stages[4], 0.0) << id;  // responded
    EXPECT_TRUE(rec.server_refusal.empty()) << id;
  }
  EXPECT_EQ(by_id.at(ids[1]).server_role, kRoleCached);
}

TEST_F(ServeTest, RefusalsGetExactlyOneQlogRecordDuringDrainBurst) {
  if (!fault::kCompiledIn) {
    GTEST_SKIP() << "fault injection compiled out";
  }
  ServerConfig cfg;
  cfg.qlog_path = (dir_ / "serve.jsonl").string();
  StartServer(cfg);
  // Force every admission to refuse, then fire a burst and shut down in
  // the middle of it — the drain accounting must still be exact.
  ASSERT_TRUE(fault::Arm("server.enqueue", "always").ok());
  constexpr int kClients = 6;
  std::mutex mu;
  std::vector<std::string> refused;
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      ServeResponse r;
      Status st = server::Call(Client(/*attempts=*/1), Query(3.0 + c), &r);
      // Anything else raced the listener close: acceptable.
      if (st.code() == StatusCode::kOverloaded) {
        std::lock_guard<std::mutex> lock(mu);
        refused.push_back(r.request_id);
      }
    });
  }
  server_->RequestShutdown();
  for (std::thread& t : clients) t.join();
  if (serve_thread_.joinable()) serve_thread_.join();
  server_.reset();
  fault::Reset();

  // Every Overloaded response has exactly one record, a refused one, and
  // nothing else was logged.
  std::map<std::string, obs::QlogRecord> by_id = LoadQlogById(cfg.qlog_path);
  EXPECT_EQ(by_id.size(), refused.size());
  for (const std::string& id : refused) {
    ASSERT_EQ(by_id.count(id), 1u) << id;
    const obs::QlogRecord& rec = by_id.at(id);
    EXPECT_EQ(rec.server_role, kRoleRefused);
    EXPECT_EQ(rec.status, "Overloaded");
    EXPECT_FALSE(rec.complete);
    EXPECT_GT(rec.server_retry_after_ms, 0.0);
    EXPECT_FALSE(rec.server_refusal.empty());
    // A refusal never entered the queue: no enqueued stage.
    EXPECT_LT(rec.server_stages[1], 0.0);
    EXPECT_TRUE(StagesMonotonic(rec));
    EXPECT_EQ(rec.distance_computations, 0u);
  }
}

// With max_queue = 1 the ladder sheds labels at depth 0, so every
// admitted request runs at DegradationStep::kShedLabels.
TEST_F(ServeTest, ShedRequestRecordsItsAdmissionStep) {
  ServerConfig cfg;
  cfg.qlog_path = (dir_ / "serve.jsonl").string();
  cfg.admission.max_queue = 1;
  StartServer(cfg);
  const auto step =
      static_cast<std::uint32_t>(LadderStage(0, cfg.admission));
  ASSERT_EQ(step, static_cast<std::uint32_t>(DegradationStep::kShedLabels));
  ServeResponse res;
  for (double r : {3.0, 4.0}) {
    ASSERT_TRUE(Call(Client(), Query(r, 3, /*no_coalesce=*/true), &res).ok());
    ASSERT_EQ(res.status, StatusCode::kOk);
  }
  StopServer();

  std::map<std::string, obs::QlogRecord> by_id = LoadQlogById(cfg.qlog_path);
  ASSERT_EQ(by_id.size(), 2u);
  for (const auto& [id, rec] : by_id) {
    EXPECT_TRUE(rec.ServerExecuted()) << id;
    EXPECT_EQ(rec.degradation_level, step) << id;
  }
  EXPECT_EQ(obs::SnapshotMetrics().counters[static_cast<std::size_t>(
                obs::Counter::kServerShedLabels)],
            2u);
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
