#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <set>
#include <string>

#include "common/argparse.hpp"
#include "common/memory_tracker.hpp"
#include "common/random.hpp"
#include "common/status.hpp"
#include "common/timer.hpp"

namespace mio {
namespace {

TEST(StatusTest, OkByDefault) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = Status::Corruption("bad checksum");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kCorruption);
  EXPECT_EQ(st.ToString(), "Corruption: bad checksum");
}

TEST(StatusTest, ReturnNotOkMacroPropagates) {
  auto fails = [] { return Status::IOError("disk"); };
  auto wrapper = [&]() -> Status {
    MIO_RETURN_NOT_OK(fails());
    return Status::OK();
  };
  EXPECT_EQ(wrapper().code(), StatusCode::kIOError);
}

TEST(ResultTest, HoldsValueOrStatus) {
  // Scoped: at -O3, GCC 12 warns that the destructor of a value-holding
  // Result<int> that outlives these checks reads the Status alternative
  // uninitialised (-Wmaybe-uninitialized, a false positive).
  {
    Result<int> ok(42);
    EXPECT_TRUE(ok.ok());
    EXPECT_EQ(ok.value(), 42);
  }
  Result<int> bad(Status::NotFound("nope"));
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(std::move(bad).ValueOr(-1), -1);
}

TEST(TimerTest, MeasuresElapsed) {
  Timer t;
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  EXPECT_GT(t.ElapsedNanos(), 0);
  EXPECT_GE(t.ElapsedSeconds(), 0.0);
}

TEST(TimerTest, ScopedAccumulatorAddsUp) {
  double total = 0.0;
  {
    ScopedAccumulator acc(&total);
  }
  double first = total;
  {
    ScopedAccumulator acc(&total);
  }
  EXPECT_GE(total, first);
}

TEST(TimerTest, FormatSeconds) {
  EXPECT_EQ(FormatSeconds(2.5), "2.500 s");
  EXPECT_EQ(FormatSeconds(0.0125), "12.50 ms");
  EXPECT_EQ(FormatSeconds(2.5e-6), "2.50 us");
}

TEST(TimerTest, FormatSecondsEdgeCases) {
  EXPECT_EQ(FormatSeconds(0.0), "0 s");
  EXPECT_EQ(FormatSeconds(3e-9), "3.0 ns");
  EXPECT_EQ(FormatSeconds(-2.5), "-2.500 s");
  EXPECT_EQ(FormatSeconds(-0.0125), "-12.50 ms");
  EXPECT_EQ(FormatSeconds(59.999), "59.999 s");
  EXPECT_EQ(FormatSeconds(60.0), "1m 0.0s");
  EXPECT_EQ(FormatSeconds(90.5), "1m 30.5s");
  EXPECT_EQ(FormatSeconds(3599.9), "59m 59.9s");
  EXPECT_EQ(FormatSeconds(3600.0), "1h 0m 0s");
  EXPECT_EQ(FormatSeconds(3661.0), "1h 1m 1s");
  EXPECT_EQ(FormatSeconds(7384.0), "2h 3m 4s");
}

TEST(MemoryTest, TrackerObservesCurrentAndPeak) {
  MemoryTracker& mt = MemoryTracker::Instance();
  mt.Reset();
  mt.Observe("idx", 100);
  mt.Observe("idx", 40);  // current drops, peak stays
  mt.Observe("aux", 7);
  auto snap = mt.Snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].tag, "aux");  // lexicographic order
  EXPECT_EQ(snap[0].current_bytes, 7u);
  EXPECT_EQ(snap[0].peak_bytes, 7u);
  EXPECT_EQ(snap[1].tag, "idx");
  EXPECT_EQ(snap[1].current_bytes, 40u);
  EXPECT_EQ(snap[1].peak_bytes, 100u);
  mt.Reset();
  EXPECT_TRUE(mt.Snapshot().empty());
}

TEST(MemoryTest, TrackerObserveBreakdown) {
  MemoryTracker& mt = MemoryTracker::Instance();
  mt.Reset();
  MemoryBreakdown mb;
  mb.Add("grid", 1000);
  mb.Add("postings", 250);
  mt.ObserveBreakdown(mb);
  auto snap = mt.Snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].tag, "grid");
  EXPECT_EQ(snap[0].peak_bytes, 1000u);
  EXPECT_EQ(snap[1].tag, "postings");
  EXPECT_EQ(snap[1].current_bytes, 250u);
  mt.Reset();
}

TEST(MemoryTest, FormatBytes) {
  EXPECT_EQ(FormatBytes(512), "512 B");
  EXPECT_EQ(FormatBytes(2048), "2.0 KiB");
  EXPECT_EQ(FormatBytes(3 * 1024 * 1024), "3.00 MiB");
}

TEST(MemoryTest, BreakdownTotals) {
  MemoryBreakdown mb;
  mb.Add("a", 100);
  mb.Add("b", 28);
  EXPECT_EQ(mb.Total(), 128u);
  EXPECT_NE(mb.ToString().find("total="), std::string::npos);
}

TEST(RandomTest, DeterministicPerSeed) {
  Pcg32 a(123), b(123), c(124);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a(), b());
  }
  bool differs = false;
  Pcg32 a2(123);
  for (int i = 0; i < 100; ++i) {
    if (a2() != c()) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST(RandomTest, BoundedStaysInRange) {
  Pcg32 rng(5);
  std::set<std::uint32_t> seen;
  for (int i = 0; i < 1000; ++i) {
    std::uint32_t v = rng.NextBounded(10);
    EXPECT_LT(v, 10u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 10u);  // all values hit
}

TEST(RandomTest, DoubleInUnitInterval) {
  Pcg32 rng(6);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RandomTest, GaussianMoments) {
  Pcg32 rng(7);
  double sum = 0, sum2 = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double g = rng.NextGaussian();
    sum += g;
    sum2 += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sum2 / n, 1.0, 0.05);
}

TEST(ArgParseTest, FlagsAndPositionals) {
  // Note: `--flag value` greedily binds the next non-flag token, so
  // valueless boolean flags must use `--flag` at the end or `--flag=1`.
  const char* argv[] = {"prog",          "--r=4.5", "--threads", "8",
                        "dataset1",      "--names=a,b,c", "--verbose"};
  ArgParser args(7, const_cast<char**>(argv));
  EXPECT_DOUBLE_EQ(args.GetDouble("r", 0.0), 4.5);
  EXPECT_EQ(args.GetInt("threads", 1), 8);
  EXPECT_TRUE(args.Has("verbose"));
  EXPECT_TRUE(args.GetBool("verbose", false));
  EXPECT_FALSE(args.GetBool("quiet", false));
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "dataset1");
  auto names = args.GetStringList("names", {});
  EXPECT_EQ(names, (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(args.GetString("missing", "fallback"), "fallback");
}

TEST(ArgParseTest, NumericLists) {
  const char* argv[] = {"prog", "--r=4,6,8,10", "--k=1,10,100"};
  ArgParser args(3, const_cast<char**>(argv));
  EXPECT_EQ(args.GetDoubleList("r", {}),
            (std::vector<double>{4, 6, 8, 10}));
  EXPECT_EQ(args.GetIntList("k", {}),
            (std::vector<std::int64_t>{1, 10, 100}));
  EXPECT_EQ(args.GetIntList("absent", {5}), (std::vector<std::int64_t>{5}));
}

// The checked integer the CLI parses --k and --threads through: the
// value within [lo, hi] or the fallback, else kInvalidArgument naming
// the flag — never a silent 0 for junk or a wrapped -1.
TEST(ArgParseTest, IntInRangeRejectsJunkAndOverflow) {
  const char* argv[] = {"prog",         "--k=5",      "--zero=0",
                        "--neg=-1",     "--abc=abc",  "--tail=7x",
                        "--big=99999999999999999999", "--wide=3000000000",
                        "--empty="};
  ArgParser args(9, const_cast<char**>(argv));
  auto value = [&](const char* name, std::int64_t lo, std::int64_t hi) {
    return args.GetIntInRange(name, 42, lo, hi);
  };
  const std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  EXPECT_EQ(value("k", 0, kMax).value(), 5);
  EXPECT_EQ(value("zero", 0, kMax).value(), 0);
  EXPECT_EQ(value("absent", 0, kMax).value(), 42);
  EXPECT_EQ(value("empty", 0, kMax).value(), 42);
  EXPECT_EQ(value("neg", -10, 10).value(), -1);
  for (const char* bad : {"neg", "abc", "tail", "big"}) {
    Result<std::int64_t> res = value(bad, 0, kMax);
    ASSERT_FALSE(res.ok()) << bad;
    EXPECT_EQ(res.status().code(), StatusCode::kInvalidArgument) << bad;
    EXPECT_NE(res.status().message().find(std::string("--") + bad),
              std::string::npos)
        << res.status().ToString();
  }
  // In int64 but outside an int range.
  EXPECT_FALSE(value("wide", std::numeric_limits<int>::min(),
                     std::numeric_limits<int>::max())
                   .ok());
  EXPECT_EQ(value("wide", 0, kMax).value(), 3000000000);
}

// The checked double `mio serve` parses its millisecond flags through:
// a finite value within [lo, hi] or the fallback — strtod alone reads
// "nan" and "inf" as numbers and "abc" as 0.
TEST(ArgParseTest, DoubleInRangeRejectsJunkAndNonFinite) {
  const char* argv[] = {"prog",         "--ms=250.5",  "--zero=0",
                        "--neg=-1",     "--nan=nan",   "--inf=inf",
                        "--big=1e999",  "--abc=abc",   "--tail=5ms",
                        "--empty="};
  ArgParser args(10, const_cast<char**>(argv));
  auto value = [&](const char* name) {
    return args.GetDoubleInRange(name, 42.0, 0.0, 1e9);
  };
  EXPECT_DOUBLE_EQ(value("ms").value(), 250.5);
  EXPECT_DOUBLE_EQ(value("zero").value(), 0.0);
  EXPECT_DOUBLE_EQ(value("absent").value(), 42.0);
  EXPECT_DOUBLE_EQ(value("empty").value(), 42.0);
  for (const char* bad : {"neg", "nan", "inf", "big", "abc", "tail"}) {
    Result<double> res = value(bad);
    ASSERT_FALSE(res.ok()) << bad;
    EXPECT_EQ(res.status().code(), StatusCode::kInvalidArgument) << bad;
    EXPECT_NE(res.status().message().find(std::string("--") + bad),
              std::string::npos)
        << res.status().ToString();
  }
  EXPECT_TRUE(args.GetDoubleInRange("neg", 0.0, -5.0, 5.0).ok());
}

}  // namespace
}  // namespace mio
