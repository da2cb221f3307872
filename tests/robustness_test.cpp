// Robustness suite (docs/ROBUSTNESS.md): the fault-injection framework,
// the query guardrails (deadline / cancel / memory budget with the
// degradation ladder), hardened binary IO under a full corruption matrix,
// and corrupt-label-file recovery.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "common/fault_injection.hpp"
#include "common/guardrails.hpp"
#include "common/status.hpp"
#include "core/bigrid.hpp"
#include "core/lower_bound.hpp"
#include "core/mio_engine.hpp"
#include "core/upper_bound.hpp"
#include "core/verification.hpp"
#include "io/dataset_io.hpp"
#include "io/importers.hpp"
#include "io/label_store.hpp"
#include "obs/metrics.hpp"
#include "test_utils.hpp"

namespace mio {
namespace {

// ---------------------------------------------------------------------------
// Shared fixture: per-test temp dir + fault/metric hygiene.
// ---------------------------------------------------------------------------

class RobustnessTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fault::Reset();
    obs::SetMetricsEnabled(true);
    obs::ResetMetrics();
    dir_ = std::filesystem::temp_directory_path() /
           ("mio_robustness_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    fault::Reset();
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  std::string PathFor(const std::string& name) {
    return (dir_ / name).string();
  }
  std::filesystem::path dir_;
};

std::vector<char> ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<char>(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
}

void WriteAll(const std::string& path, const char* data, std::size_t len) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(data, static_cast<std::streamsize>(len));
}

/// Brute-force exact tau of one object: the count of other objects with
/// any point pair within r. Cheap enough for spot-checking one id even on
/// datasets too large for a full oracle sweep.
std::uint32_t BruteScoreOf(const ObjectSet& set, ObjectId id, double r) {
  const double r2 = r * r;
  std::uint32_t score = 0;
  for (ObjectId j = 0; j < set.size(); ++j) {
    if (j == id) continue;
    bool hit = false;
    for (const Point& p : set[id].points) {
      for (const Point& q : set[j].points) {
        const double dx = p.x - q.x, dy = p.y - q.y, dz = p.z - q.z;
        if (dx * dx + dy * dy + dz * dz <= r2) {
          hit = true;
          break;
        }
      }
      if (hit) break;
    }
    if (hit) ++score;
  }
  return score;
}

// ---------------------------------------------------------------------------
// Fault-injection framework
// ---------------------------------------------------------------------------

class FaultInjectionTest : public RobustnessTest {
 protected:
  void SetUp() override {
    RobustnessTest::SetUp();
    if (!fault::kCompiledIn) {
      GTEST_SKIP() << "fault injection compiled out (MIO_FAULT_INJECTION=OFF)";
    }
  }
};

TEST_F(FaultInjectionTest, SiteRegistryCoversDocumentedSites) {
  const std::vector<std::string>& sites = fault::FaultSites();
  for (const char* expected :
       {"io.dataset.read", "io.dataset.write", "io.label.read",
        "io.label.write", "io.import.open", "alloc.bigrid"}) {
    EXPECT_NE(std::find(sites.begin(), sites.end(), expected), sites.end())
        << expected;
  }
}

TEST_F(FaultInjectionTest, SpecGrammar) {
  EXPECT_TRUE(fault::Arm("io.dataset.read", "always").ok());
  EXPECT_TRUE(fault::Arm("io.dataset.read", "p=0.25").ok());
  EXPECT_TRUE(fault::Arm("io.dataset.read", "nth=3").ok());
  EXPECT_TRUE(fault::Arm("io.dataset.read", "after=2").ok());
  EXPECT_EQ(fault::ArmedCount(), 4u);

  EXPECT_FALSE(fault::Arm("io.dataset.read", "sometimes").ok());
  EXPECT_FALSE(fault::Arm("io.dataset.read", "p=1.5").ok());
  EXPECT_FALSE(fault::Arm("io.dataset.read", "p=x").ok());
  EXPECT_FALSE(fault::Arm("io.dataset.read", "nth=0").ok());
  EXPECT_FALSE(fault::Arm("io.dataset.read", "nth=abc").ok());
  EXPECT_FALSE(fault::Arm("", "always").ok());
  EXPECT_EQ(fault::ArmedCount(), 4u);

  fault::Reset();
  EXPECT_EQ(fault::ArmedCount(), 0u);

  EXPECT_TRUE(fault::ArmFromSpec("io.label.write:always;alloc.bigrid:nth=2")
                  .ok());
  EXPECT_EQ(fault::ArmedCount(), 2u);
  EXPECT_FALSE(fault::ArmFromSpec("missing-colon-entry").ok());
}

TEST_F(FaultInjectionTest, DatasetWriteFaultFailsSave) {
  ObjectSet set = testing::MakeRandomObjects(5, 2, 4, 20.0, 1);
  ASSERT_TRUE(fault::Arm("io.dataset.write", "always").ok());
  const std::uint64_t before = fault::InjectedCount();
  Status st = SaveDatasetBinary(set, PathFor("faulted.bin"));
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kIOError);
  EXPECT_GT(fault::InjectedCount(), before);
  EXPECT_GE(obs::SnapshotMetrics().counters[static_cast<int>(
                obs::Counter::kFaultsInjected)],
            1u);
}

TEST_F(FaultInjectionTest, DatasetReadFaultFailsLoad) {
  ObjectSet set = testing::MakeRandomObjects(5, 2, 4, 20.0, 2);
  std::string path = PathFor("ok.bin");
  ASSERT_TRUE(SaveDatasetBinary(set, path).ok());
  ASSERT_TRUE(fault::Arm("io.dataset.read", "always").ok());
  EXPECT_FALSE(LoadDatasetBinary(path).ok());
  fault::Reset();
  EXPECT_TRUE(LoadDatasetBinary(path).ok());  // the file itself is fine
}

TEST_F(FaultInjectionTest, NthTriggerFailsExactlyOnce) {
  ObjectSet set = testing::MakeRandomObjects(5, 2, 4, 20.0, 3);
  std::string path = PathFor("nth.bin");
  ASSERT_TRUE(SaveDatasetBinary(set, path).ok());
  // The first read op (the version field) is spared; the second fails.
  ASSERT_TRUE(fault::Arm("io.dataset.read", "nth=2").ok());
  EXPECT_FALSE(LoadDatasetBinary(path).ok());  // consumes the nth=2 shot
  EXPECT_TRUE(LoadDatasetBinary(path).ok());   // one-shot: now exhausted
}

TEST_F(FaultInjectionTest, ProbabilityEndpointsAreDeterministic) {
  ObjectSet set = testing::MakeRandomObjects(5, 2, 4, 20.0, 4);
  std::string path = PathFor("prob.bin");
  ASSERT_TRUE(SaveDatasetBinary(set, path).ok());
  ASSERT_TRUE(fault::Arm("io.dataset.read", "p=0.0").ok());
  EXPECT_TRUE(LoadDatasetBinary(path).ok());
  fault::Reset();
  ASSERT_TRUE(fault::Arm("io.dataset.read", "p=1.0").ok());
  EXPECT_FALSE(LoadDatasetBinary(path).ok());
}

TEST_F(FaultInjectionTest, WildcardMatchesEveryIoSite) {
  ObjectSet set = testing::MakeRandomObjects(5, 2, 4, 20.0, 5);
  ASSERT_TRUE(fault::Arm("io.*", "always").ok());
  EXPECT_EQ(fault::ArmedCount(), 1u);
  EXPECT_FALSE(SaveDatasetBinary(set, PathFor("w.bin")).ok());
  LabelStore store(PathFor("labels"));
  LabelSet labels = LabelSet::MakeAllOnes(set);
  EXPECT_FALSE(store.Save(3, labels).ok());
  EXPECT_FALSE(LoadSwcFile(PathFor("missing.swc")).ok());
}

TEST_F(FaultInjectionTest, ImportOpenFaultFailsExistingFile) {
  std::string path = PathFor("ok.swc");
  {
    std::ofstream out(path);
    out << "1 1 0.0 0.0 0.0 1.0 -1\n";
  }
  ASSERT_TRUE(LoadSwcFile(path).ok());
  ASSERT_TRUE(fault::Arm("io.import.open", "always").ok());
  Result<Object> r = LoadSwcFile(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIOError);
}

TEST_F(FaultInjectionTest, BigridAllocFaultTripsResourceExhausted) {
  ObjectSet set = testing::MakeRandomObjects(600, 3, 6, 40.0, 6);
  MioEngine engine(set);
  ASSERT_TRUE(fault::Arm("alloc.bigrid", "nth=1").ok());
  QueryResult res = engine.Query(3.0, {});
  EXPECT_FALSE(res.complete);
  EXPECT_EQ(res.status.code(), StatusCode::kResourceExhausted);
  fault::Reset();
  QueryResult ok = engine.Query(3.0, {});
  EXPECT_TRUE(ok.complete);
  EXPECT_TRUE(ok.status.ok());
}

TEST_F(FaultInjectionTest, LabelWriteFaultIsBestEffortForQuery) {
  ObjectSet set = testing::MakeRandomObjects(200, 3, 6, 40.0, 7);
  MioEngine engine(set, PathFor("labels"));
  ASSERT_TRUE(fault::Arm("io.label.write", "always").ok());
  QueryOptions opt;
  opt.record_labels = true;
  QueryResult res = engine.Query(3.0, opt);
  // The persist is best-effort: the query still succeeds, labels stay in
  // the in-process cache, only the on-disk copy is lost.
  EXPECT_TRUE(res.complete);
  EXPECT_TRUE(res.status.ok());
  EXPECT_TRUE(engine.HasLabelsFor(3.0));
}

// ---------------------------------------------------------------------------
// Label-store bounded retries
// ---------------------------------------------------------------------------

std::uint64_t CounterValue(obs::Counter c) {
  return obs::SnapshotMetrics().counters[static_cast<std::size_t>(c)];
}

TEST_F(FaultInjectionTest, LabelSaveRetriesTransientWriteFault) {
  ObjectSet set = testing::MakeRandomObjects(6, 2, 4, 20.0, 11);
  LabelSet labels = LabelSet::MakeAllOnes(set);
  LabelStore store(PathFor("labels"));
  // One-shot fault: the first attempt's first write op fails, the retry
  // runs fault-free and succeeds.
  ASSERT_TRUE(fault::Arm("io.label.write", "nth=1").ok());
  EXPECT_TRUE(store.Save(3, labels).ok());
  EXPECT_GE(CounterValue(obs::Counter::kLabelRetryAttempts), 1u);
  EXPECT_EQ(CounterValue(obs::Counter::kLabelRetryExhausted), 0u);
  EXPECT_TRUE(store.Load(3, set).ok());
}

TEST_F(FaultInjectionTest, LabelLoadRetriesTransientReadFault) {
  ObjectSet set = testing::MakeRandomObjects(6, 2, 4, 20.0, 12);
  LabelSet labels = LabelSet::MakeAllOnes(set);
  LabelStore store(PathFor("labels"));
  ASSERT_TRUE(store.Save(4, labels).ok());
  ASSERT_TRUE(fault::Arm("io.label.read", "nth=1").ok());
  Result<LabelSet> loaded = store.Load(4, set);
  EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_GE(CounterValue(obs::Counter::kLabelRetryAttempts), 1u);
  EXPECT_EQ(CounterValue(obs::Counter::kLabelRetryExhausted), 0u);
}

TEST_F(FaultInjectionTest, LabelRetryExhaustionIsBoundedAndCounted) {
  ObjectSet set = testing::MakeRandomObjects(6, 2, 4, 20.0, 13);
  LabelSet labels = LabelSet::MakeAllOnes(set);
  LabelStore store(PathFor("labels"));
  ASSERT_TRUE(fault::Arm("io.label.write", "always").ok());
  Status st = store.Save(5, labels);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kIOError);
  // Exactly two re-attempts (three tries total), then gives up.
  EXPECT_EQ(CounterValue(obs::Counter::kLabelRetryAttempts), 2u);
  EXPECT_EQ(CounterValue(obs::Counter::kLabelRetryExhausted), 1u);
}

TEST_F(FaultInjectionTest, LabelLoadDoesNotRetryNotFound) {
  ObjectSet set = testing::MakeRandomObjects(6, 2, 4, 20.0, 14);
  LabelStore store(PathFor("labels"));
  Result<LabelSet> loaded = store.Load(9, set);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(CounterValue(obs::Counter::kLabelRetryAttempts), 0u);
  EXPECT_EQ(CounterValue(obs::Counter::kLabelRetryExhausted), 0u);
}

// ---------------------------------------------------------------------------
// QueryGuard / CancelToken / degradation planner units
// ---------------------------------------------------------------------------

TEST(QueryGuardTest, InertUntilArmed) {
  QueryGuard guard;
  EXPECT_FALSE(guard.active());
  EXPECT_FALSE(guard.tripped());
  EXPECT_FALSE(guard.Poll());
  EXPECT_TRUE(guard.status().ok());
  guard.SetDeadline(0.0);  // <= 0 keeps the deadline off
  EXPECT_FALSE(guard.active());
  // NaN, and deadlines past steady_clock's ~292-year range, stay off
  // instead of overflowing the conversion and tripping at once.
  for (double ms : {std::numeric_limits<double>::quiet_NaN(), 1e13, 1e300,
                    std::numeric_limits<double>::infinity()}) {
    QueryGuard far;
    far.SetDeadline(ms);
    EXPECT_FALSE(far.active()) << ms;
    EXPECT_FALSE(far.Poll()) << ms;
  }
  QueryGuard year;
  year.SetDeadline(3.2e10);  // about a year: armed, far from firing
  EXPECT_TRUE(year.active());
  EXPECT_FALSE(year.Poll());
}

TEST(QueryGuardTest, DeadlineTrips) {
  QueryGuard guard;
  guard.SetDeadline(1e-6);
  EXPECT_TRUE(guard.active());
  while (!guard.Poll()) {
  }
  EXPECT_TRUE(guard.tripped());
  EXPECT_EQ(guard.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(guard.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(QueryGuardTest, CancelTokenTrips) {
  CancelToken token;
  QueryGuard guard;
  guard.SetCancelToken(&token);
  EXPECT_TRUE(guard.active());
  EXPECT_FALSE(guard.Poll());
  token.Cancel();
  EXPECT_TRUE(guard.Poll());
  EXPECT_EQ(guard.code(), StatusCode::kCancelled);
  token.Reset();
  EXPECT_TRUE(guard.tripped());  // a tripped guard stays tripped
}

TEST(QueryGuardTest, FirstTripWins) {
  CancelToken token;
  token.Cancel();
  QueryGuard guard;
  guard.SetCancelToken(&token);
  EXPECT_TRUE(guard.TripResource());
  EXPECT_TRUE(guard.Poll());
  EXPECT_EQ(guard.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(guard.status().code(), StatusCode::kResourceExhausted);
}

TEST(DegradationPlanTest, UnlimitedBudgetPlansNothing) {
  DegradationInputs in;
  in.budget_bytes = 0;
  in.required_bytes = 1u << 30;
  in.label_bytes = 1u << 20;
  DegradationPlan plan = PlanDegradation(in);
  EXPECT_EQ(plan.step, DegradationStep::kNone);
  EXPECT_FALSE(plan.abort);
}

TEST(DegradationPlanTest, LadderShedsInOrder) {
  DegradationInputs in;
  in.required_bytes = 1000;
  in.label_bytes = 100;
  in.cache_bytes = 200;
  in.lb_bitset_bytes = 400;

  in.budget_bytes = 1700;  // everything fits
  EXPECT_EQ(PlanDegradation(in).step, DegradationStep::kNone);

  in.budget_bytes = 1650;  // shedding labels is enough
  DegradationPlan p1 = PlanDegradation(in);
  EXPECT_EQ(p1.step, DegradationStep::kShedLabels);
  EXPECT_EQ(static_cast<int>(p1.step), 1);  // qlog degradation_level
  EXPECT_FALSE(p1.abort);

  in.budget_bytes = 1400;  // labels + cache must go
  DegradationPlan p2 = PlanDegradation(in);
  EXPECT_EQ(p2.step, DegradationStep::kDropGridCache);
  EXPECT_EQ(static_cast<int>(p2.step), 2);
  EXPECT_FALSE(p2.abort);

  in.budget_bytes = 1000;  // only the bare grid fits
  DegradationPlan p3 = PlanDegradation(in);
  EXPECT_EQ(p3.step, DegradationStep::kStreamVerification);
  EXPECT_EQ(static_cast<int>(p3.step), 3);
  EXPECT_FALSE(p3.abort);

  in.budget_bytes = 999;  // the grid alone does not fit
  DegradationPlan p4 = PlanDegradation(in);
  EXPECT_TRUE(p4.abort);
}

TEST(DegradationPlanTest, ZeroCostStepsAreSkipped) {
  DegradationInputs in;
  in.required_bytes = 1000;
  in.label_bytes = 0;  // nothing to shed at step 1
  in.cache_bytes = 500;
  in.budget_bytes = 1000;
  // Step 1 frees nothing, so the planner climbs straight to step 2 and
  // the projection fits after dropping the cache alone.
  DegradationPlan plan = PlanDegradation(in);
  EXPECT_EQ(plan.step, DegradationStep::kDropGridCache);
  EXPECT_FALSE(plan.abort);
  in.cache_bytes = 0;  // nothing optional to shed: straight to abort
  in.budget_bytes = 999;
  plan = PlanDegradation(in);
  EXPECT_EQ(plan.step, DegradationStep::kNone);
  EXPECT_TRUE(plan.abort);
}

// ---------------------------------------------------------------------------
// Engine guardrails: deadline, cancel, memory budget
// ---------------------------------------------------------------------------

TEST_F(RobustnessTest, DeadlineReturnsEarlyWithBestSoFar) {
  ObjectSet set = testing::MakeRandomObjects(2500, 8, 16, 70.0, 77);
  MioEngine engine(set);
  const double r = 2.5;
  QueryOptions opt;
  QueryResult full = engine.Query(r, opt);
  ASSERT_TRUE(full.complete);

  // Shrink the deadline until it trips; starting at half the unbounded
  // time keeps the trip inside real work on any machine speed.
  QueryResult res;
  double deadline_ms = full.stats.total_seconds * 1000.0 / 2.0;
  for (int i = 0; i < 24 && deadline_ms > 1e-4; ++i, deadline_ms /= 2.0) {
    opt.deadline_ms = deadline_ms;
    res = engine.Query(r, opt);
    if (!res.complete) break;
  }
  ASSERT_FALSE(res.complete) << "deadline never tripped";
  EXPECT_EQ(res.status.code(), StatusCode::kDeadlineExceeded);
  // Returns promptly: well within the unbounded run, and within the
  // deadline plus generous stride/CI slack.
  EXPECT_LT(res.stats.total_seconds, full.stats.total_seconds);
  EXPECT_LE(res.stats.total_seconds * 1000.0, opt.deadline_ms * 2.0 + 100.0);
  // Best-so-far soundness: any reported score is a valid lower bound of
  // that object's true tau, and cannot beat the proven optimum.
  if (!res.topk.empty()) {
    EXPECT_LE(res.topk[0].score, full.best().score);
    EXPECT_LE(res.topk[0].score, BruteScoreOf(set, res.topk[0].id, r));
  }
  EXPECT_GE(obs::SnapshotMetrics().counters[static_cast<int>(
                obs::Counter::kQueryDeadlineExceeded)],
            1u);
}

TEST_F(RobustnessTest, PreCancelledTokenStopsQueryImmediately) {
  ObjectSet set = testing::MakeRandomObjects(400, 4, 8, 40.0, 78);
  MioEngine engine(set);
  CancelToken token;
  token.Cancel();
  QueryOptions opt;
  opt.cancel = &token;
  QueryResult res = engine.Query(3.0, opt);
  EXPECT_FALSE(res.complete);
  EXPECT_EQ(res.status.code(), StatusCode::kCancelled);
  EXPECT_GE(obs::SnapshotMetrics().counters[static_cast<int>(
                obs::Counter::kQueryCancelled)],
            1u);
  token.Reset();
  QueryResult again = engine.Query(3.0, opt);
  EXPECT_TRUE(again.complete);
  EXPECT_TRUE(again.status.ok());
}

TEST_F(RobustnessTest, CancelFromAnotherThread) {
  ObjectSet set = testing::MakeRandomObjects(2500, 8, 16, 70.0, 79);
  MioEngine engine(set);
  const double r = 2.5;
  // The cancel lands mid-query on any realistic timing; retry with an
  // earlier cancel if a fast machine finishes first.
  QueryResult res;
  for (int attempt = 0; attempt < 8; ++attempt) {
    CancelToken token;
    QueryOptions opt;
    opt.cancel = &token;
    std::thread canceller([&token, attempt] {
      std::this_thread::sleep_for(std::chrono::microseconds(500 >> attempt));
      token.Cancel();
    });
    res = engine.Query(r, opt);
    canceller.join();
    if (!res.complete) break;
  }
  ASSERT_FALSE(res.complete) << "cancel never landed mid-query";
  EXPECT_EQ(res.status.code(), StatusCode::kCancelled);
  if (!res.topk.empty()) {
    EXPECT_LE(res.topk[0].score, BruteScoreOf(set, res.topk[0].id, r));
  }
}

TEST_F(RobustnessTest, TrippedGuardStopsVerificationWithoutPartialScores) {
  ObjectSet set = testing::MakeRandomObjects(300, 4, 8, 40.0, 80);
  BiGrid grid(set, 3.0, /*planar=*/false);
  grid.Build();
  QueryStats stats;
  UpperBoundResult ub =
      UpperBounding(grid, 0, nullptr, nullptr, &stats, nullptr);
  CancelToken token;
  token.Cancel();
  QueryGuard guard;
  guard.SetCancelToken(&token);
  // Already tripped on entry: no candidate may be offered, because every
  // in-flight score would be partial.
  std::vector<ScoredObject> topk = Verification(
      grid, ub, 1, nullptr, nullptr, nullptr, &stats, true, &guard);
  EXPECT_TRUE(topk.empty());
}

TEST_F(RobustnessTest, MemoryBudgetDegradationLadder) {
  ObjectSet set = testing::MakeRandomObjects(400, 4, 8, 40.0, 81);
  const double r = 3.0;
  const int ceil_r = 3;

  // Reference answer, plus the POST-BUILD grid footprint: the planner
  // projects against the grid as just built (before the b_adj memoisation
  // grows it), so budgets must be pinned to that number, not to the
  // end-of-query index_memory_bytes.
  MioEngine probe(set);
  QueryResult plain = probe.Query(r, {});
  ASSERT_TRUE(plain.complete);
  BiGrid probe_grid(set, r);
  probe_grid.Build();
  const std::size_t build_bytes = probe_grid.MemoryUsage().Total();
  ASSERT_GT(build_bytes, 0u);

  // Step 1: a budget with no headroom sheds label recording.
  {
    MioEngine engine(set);
    QueryOptions opt;
    opt.record_labels = true;
    opt.memory_budget_bytes = build_bytes;
    QueryResult res = engine.Query(r, opt);
    EXPECT_TRUE(res.complete);
    EXPECT_TRUE(res.status.ok());
    EXPECT_EQ(res.stats.degradation_level, 1);
    EXPECT_FALSE(engine.HasLabelsFor(r));  // recording was shed
    EXPECT_EQ(res.best().score, plain.best().score);
  }

  // Step 2: same squeeze with the grid cache as the only extra.
  {
    MioEngine engine(set);
    QueryOptions opt;
    opt.reuse_grid = true;
    opt.memory_budget_bytes = build_bytes;
    QueryResult res = engine.Query(r, opt);
    EXPECT_TRUE(res.complete);
    EXPECT_EQ(res.stats.degradation_level, 2);
    EXPECT_EQ(res.best().score, plain.best().score);
    // The cache was dropped, so a follow-up query cannot adopt a grid.
    QueryResult again = engine.Query(r, opt);
    EXPECT_FALSE(again.stats.reused_grid);
  }

  // Step 3: with labels in use, the kept lower-bound bitsets are the last
  // extra; shedding them falls back to streaming verification. Label
  // pruning shrinks the small grid, so the budget is pinned to the
  // labeled grid's own post-build footprint.
  {
    const std::string label_dir = PathFor("ladder_labels");
    MioEngine engine(set, label_dir);
    QueryOptions record;
    record.record_labels = true;
    ASSERT_TRUE(engine.Query(r, record).complete);
    ASSERT_TRUE(engine.HasLabelsFor(r));
    LabelStore store(label_dir);
    Result<LabelSet> labels = store.Load(ceil_r, set);
    ASSERT_TRUE(labels.ok()) << labels.status().ToString();
    BiGrid labeled_grid(set, r);
    labeled_grid.Build(&labels.value());
    const std::size_t labeled_build_bytes =
        labeled_grid.MemoryUsage().Total();
    QueryOptions opt;
    opt.use_labels = true;
    opt.reuse_grid = true;
    opt.memory_budget_bytes = labeled_build_bytes;
    QueryResult res = engine.Query(r, opt);
    EXPECT_TRUE(res.complete);
    EXPECT_EQ(res.stats.degradation_level, 3);
    EXPECT_EQ(res.best().score, plain.best().score);
  }

  // Past the ladder: a budget below the bare grid aborts.
  {
    MioEngine engine(set);
    QueryOptions opt;
    opt.memory_budget_bytes = 1;
    QueryResult res = engine.Query(r, opt);
    EXPECT_FALSE(res.complete);
    EXPECT_EQ(res.status.code(), StatusCode::kResourceExhausted);
  }

  EXPECT_GE(obs::SnapshotMetrics().counters[static_cast<int>(
                obs::Counter::kQueryDegraded)],
            3u);
}

TEST_F(RobustnessTest, GuardrailsUnderParallelQuery) {
  ObjectSet set = testing::MakeRandomObjects(600, 4, 8, 40.0, 82);
  MioEngine engine(set);
  QueryOptions opt;
  opt.threads = 2;
  CancelToken token;
  token.Cancel();
  opt.cancel = &token;
  QueryResult res = engine.Query(3.0, opt);
  EXPECT_FALSE(res.complete);
  EXPECT_EQ(res.status.code(), StatusCode::kCancelled);
  token.Reset();
  QueryResult ok = engine.Query(3.0, opt);
  EXPECT_TRUE(ok.complete);
  EXPECT_TRUE(ok.status.ok());
}

// ---------------------------------------------------------------------------
// Exit-code mapping (the CLI's contract with scripts)
// ---------------------------------------------------------------------------

TEST(ExitCodeTest, DistinctNonZeroCodesPerFailureClass) {
  EXPECT_EQ(ExitCodeFor(StatusCode::kOk), 0);
  const StatusCode failures[] = {
      StatusCode::kInvalidArgument,  StatusCode::kIOError,
      StatusCode::kCorruption,       StatusCode::kNotFound,
      StatusCode::kOutOfRange,       StatusCode::kUnimplemented,
      StatusCode::kInternal,         StatusCode::kDeadlineExceeded,
      StatusCode::kResourceExhausted, StatusCode::kCancelled,
  };
  std::vector<int> seen;
  for (StatusCode c : failures) {
    int code = ExitCodeFor(c);
    EXPECT_GT(code, 1) << "codes 0/1 are reserved";  // 1 = generic failure
    EXPECT_LT(code, 126) << "shell-reserved range";
    EXPECT_EQ(std::count(seen.begin(), seen.end(), code), 0)
        << "duplicate exit code " << code;
    seen.push_back(code);
  }
}

// ---------------------------------------------------------------------------
// Corrupt label file = cache miss (recompute + rewrite)
// ---------------------------------------------------------------------------

TEST_F(RobustnessTest, CorruptLabelFileIsRecomputedAndRewritten) {
  ObjectSet set = testing::MakeRandomObjects(150, 3, 6, 40.0, 90);
  const double r = 3.0;
  const std::string label_dir = PathFor("labels");

  {
    MioEngine writer(set, label_dir);
    QueryOptions opt;
    opt.record_labels = true;
    ASSERT_TRUE(writer.Query(r, opt).complete);
  }
  LabelStore store(label_dir);
  const int ceil_r = 3;
  ASSERT_TRUE(store.Has(ceil_r));
  ASSERT_TRUE(store.Load(ceil_r, set).ok());

  // Flip a byte in the middle of the file.
  std::vector<char> bytes = ReadAll(store.PathFor(ceil_r));
  ASSERT_GT(bytes.size(), 32u);
  bytes[bytes.size() / 2] ^= 0x40;
  WriteAll(store.PathFor(ceil_r), bytes.data(), bytes.size());
  ASSERT_FALSE(store.Load(ceil_r, set).ok());

  // A fresh engine treats the corrupt file as a miss: the query succeeds
  // label-free, evicts the bad file, re-records, and rewrites it.
  MioEngine reader(set, label_dir);
  QueryOptions opt;
  opt.use_labels = true;
  opt.record_labels = true;
  QueryResult res = reader.Query(r, opt);
  EXPECT_TRUE(res.complete);
  EXPECT_TRUE(res.status.ok());
  EXPECT_GE(obs::SnapshotMetrics().counters[static_cast<int>(
                obs::Counter::kLabelsCorruptRecovered)],
            1u);
  Result<LabelSet> reloaded = store.Load(ceil_r, set);
  EXPECT_TRUE(reloaded.ok()) << reloaded.status().ToString();

  // And the rewritten labels are actually usable.
  MioEngine reuser(set, label_dir);
  QueryResult reused = reuser.Query(r, opt);
  EXPECT_TRUE(reused.complete);
  EXPECT_EQ(reused.best().score, res.best().score);
}

// ---------------------------------------------------------------------------
// Hardened binary loader: corruption matrix
// ---------------------------------------------------------------------------

TEST_F(RobustnessTest, BinaryTruncationAtEveryOffsetFailsDescriptively) {
  ObjectSet set = testing::MakeRandomObjects(6, 2, 5, 20.0, 11, 5.0, true);
  std::string good = PathFor("good.bin");
  ASSERT_TRUE(SaveDatasetBinary(set, good).ok());
  std::vector<char> bytes = ReadAll(good);
  ASSERT_GT(bytes.size(), 17u);

  std::string path = PathFor("trunc.bin");
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    WriteAll(path, bytes.data(), len);
    Result<ObjectSet> r = LoadDatasetBinary(path);
    ASSERT_FALSE(r.ok()) << "truncated to " << len << " bytes loaded";
    EXPECT_TRUE(r.status().code() == StatusCode::kCorruption ||
                r.status().code() == StatusCode::kIOError)
        << r.status().ToString();
    EXPECT_FALSE(r.status().message().empty());
  }
}

TEST_F(RobustnessTest, BinaryBitFlipAtEveryOffsetIsDetected) {
  ObjectSet set = testing::MakeRandomObjects(6, 2, 5, 20.0, 12, 5.0, true);
  std::string good = PathFor("good.bin");
  ASSERT_TRUE(SaveDatasetBinary(set, good).ok());
  const std::vector<char> bytes = ReadAll(good);

  std::string path = PathFor("flip.bin");
  for (std::size_t off = 0; off < bytes.size(); ++off) {
    std::vector<char> mutated = bytes;
    mutated[off] ^= 0x40;
    WriteAll(path, mutated.data(), mutated.size());
    Result<ObjectSet> r = LoadDatasetBinary(path);
    EXPECT_FALSE(r.ok()) << "bit flip at offset " << off << " loaded";
  }
}

TEST_F(RobustnessTest, BinaryBadMagicAndVersion) {
  ObjectSet set = testing::MakeRandomObjects(3, 2, 3, 20.0, 13);
  std::string path = PathFor("hdr.bin");
  ASSERT_TRUE(SaveDatasetBinary(set, path).ok());
  std::vector<char> bytes = ReadAll(path);

  std::vector<char> bad_magic = bytes;
  std::memcpy(bad_magic.data(), "NOPE", 4);
  WriteAll(path, bad_magic.data(), bad_magic.size());
  Result<ObjectSet> r1 = LoadDatasetBinary(path);
  ASSERT_FALSE(r1.ok());
  EXPECT_NE(r1.status().message().find("bad magic"), std::string::npos);

  std::vector<char> bad_version = bytes;
  std::uint32_t v = 999;
  std::memcpy(bad_version.data() + 4, &v, sizeof(v));
  WriteAll(path, bad_version.data(), bad_version.size());
  Result<ObjectSet> r2 = LoadDatasetBinary(path);
  ASSERT_FALSE(r2.ok());
  EXPECT_NE(r2.status().message().find("version"), std::string::npos);
}

TEST_F(RobustnessTest, AbsurdDeclaredObjectCountFailsBeforeAllocating) {
  // Handcraft a header declaring 2^60 objects in a tiny file: the loader
  // must reject it from the size bound, never reserve for it.
  std::string path = PathFor("absurd_n.bin");
  std::ofstream out(path, std::ios::binary);
  out.write("MIOD", 4);
  std::uint32_t version = 1;
  out.write(reinterpret_cast<const char*>(&version), sizeof(version));
  std::uint64_t n = 1ull << 60;
  out.write(reinterpret_cast<const char*>(&n), sizeof(n));
  std::uint8_t has_times = 0;
  out.write(reinterpret_cast<const char*>(&has_times), sizeof(has_times));
  std::uint64_t fake_checksum = 0;
  out.write(reinterpret_cast<const char*>(&fake_checksum),
            sizeof(fake_checksum));
  out.close();

  Result<ObjectSet> r = LoadDatasetBinary(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
  EXPECT_NE(r.status().message().find("exceeds file size"), std::string::npos);
}

TEST_F(RobustnessTest, AbsurdDeclaredPointCountFailsBeforeAllocating) {
  std::string path = PathFor("absurd_m.bin");
  std::ofstream out(path, std::ios::binary);
  out.write("MIOD", 4);
  std::uint32_t version = 1;
  out.write(reinterpret_cast<const char*>(&version), sizeof(version));
  std::uint64_t n = 1;
  out.write(reinterpret_cast<const char*>(&n), sizeof(n));
  std::uint8_t has_times = 0;
  out.write(reinterpret_cast<const char*>(&has_times), sizeof(has_times));
  std::uint64_t num_points = 1ull << 55;
  out.write(reinterpret_cast<const char*>(&num_points), sizeof(num_points));
  std::uint64_t fake_checksum = 0;
  out.write(reinterpret_cast<const char*>(&fake_checksum),
            sizeof(fake_checksum));
  out.close();

  Result<ObjectSet> r = LoadDatasetBinary(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
  EXPECT_NE(r.status().message().find("exceeds remaining file size"),
            std::string::npos);
}

TEST_F(RobustnessTest, TextLoaderCapsTrustedReserve) {
  // A text header may declare any point count; the loader must not
  // pre-reserve for it. Truncated data then fails parsing, promptly.
  std::string path = PathFor("absurd.txt");
  {
    std::ofstream out(path);
    out << "mio-dataset v1 1 0\n";
    out << "object 99999999999999\n";
    out << "0.0 0.0 0.0\n";
  }
  Result<ObjectSet> r = LoadDatasetText(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
}

}  // namespace
}  // namespace mio
