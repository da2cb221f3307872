// Tests for the server request-lifecycle observability layer: the
// RequestContext stage-timestamp invariants, the canonical request-id /
// trace-file naming, and the client's pure jittered-backoff helper.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "obs/qlog.hpp"
#include "server/client.hpp"
#include "server/request_context.hpp"

namespace mio {
namespace server {
namespace {

// --- Request ids and contexts -----------------------------------------------

TEST(RequestId, FormatsZeroPaddedAndMatchesTraceFileStem) {
  EXPECT_EQ(FormatRequestId(0), "r000000");
  EXPECT_EQ(FormatRequestId(42), "r000042");
  EXPECT_EQ(FormatRequestId(1234567), "r1234567");  // wide ids never truncate
  EXPECT_EQ(obs::ServerTraceFileName(42), "r000042.trace.json");
  // The trace file stem IS the request id — that equality is the whole
  // correlation story between a response and its kept trace.
  EXPECT_EQ(obs::ServerTraceFileName(42).substr(0, 7), FormatRequestId(42));
}

TEST(RequestContext, StageDerivedLatencies) {
  RequestContext ctx;
  EXPECT_DOUBLE_EQ(ctx.QueueWaitSeconds(), 0.0);
  EXPECT_DOUBLE_EQ(ctx.E2eSeconds(), 0.0);
  ctx.accepted = 1.0;
  ctx.enqueued = 1.5;
  ctx.dequeued = 2.25;
  ctx.executed = 3.0;
  ctx.responded = 3.5;
  EXPECT_DOUBLE_EQ(ctx.QueueWaitSeconds(), 0.75);
  EXPECT_DOUBLE_EQ(ctx.E2eSeconds(), 2.5);
  EXPECT_TRUE(ctx.StagesMonotonic());
}

TEST(RequestContext, UnstampedStagesAreSkippedNotZero) {
  // A cache hit never queues: middle stages unstamped, and the derived
  // latencies must not go negative or count the sentinel.
  RequestContext ctx;
  ctx.accepted = 10.0;
  ctx.responded = 10.1;
  EXPECT_DOUBLE_EQ(ctx.QueueWaitSeconds(), 0.0);
  EXPECT_NEAR(ctx.E2eSeconds(), 0.1, 1e-12);
  EXPECT_TRUE(ctx.StagesMonotonic());
}

TEST(RequestContext, MonotonicityCatchesReorderedStamps) {
  RequestContext ctx;
  ctx.accepted = 2.0;
  ctx.enqueued = 1.0;  // stamped before accept: a lifecycle bug
  EXPECT_FALSE(ctx.StagesMonotonic());
}

TEST(RequestContext, RefusalFlag) {
  RequestContext ctx;
  EXPECT_FALSE(ctx.Refused());
  ctx.refusal = "queue full";
  EXPECT_TRUE(ctx.Refused());
}

// The qlog validator keeps its own copy of the role names (the obs layer
// cannot depend on the server); this pins the two lists together.
// --- Client backoff ---------------------------------------------------------

TEST(Backoff, SameSeedSameSequence) {
  std::uint64_t a = 12345, b = 12345;
  for (int attempt = 0; attempt < 6; ++attempt) {
    EXPECT_DOUBLE_EQ(ComputeBackoffMs(attempt, 10.0, 0.0, &a),
                     ComputeBackoffMs(attempt, 10.0, 0.0, &b));
  }
  EXPECT_EQ(a, b);
}

TEST(Backoff, JitterStaysInTheDocumentedBounds) {
  std::uint64_t state = 99;
  for (int attempt = 0; attempt < 8; ++attempt) {
    const double exp = 10.0 * std::pow(2.0, attempt);
    for (int trial = 0; trial < 64; ++trial) {
      const double ms = ComputeBackoffMs(attempt, 10.0, 0.0, &state);
      EXPECT_GE(ms, exp) << "attempt " << attempt;
      EXPECT_LT(ms, 2.0 * exp) << "attempt " << attempt;
    }
  }
}

TEST(Backoff, FloorFromRetryAfterHintIsNeverUndercut) {
  // A server hint far above the exponential term wins outright.
  std::uint64_t state = 7;
  for (int trial = 0; trial < 32; ++trial) {
    EXPECT_DOUBLE_EQ(ComputeBackoffMs(0, 1.0, 500.0, &state), 500.0);
  }
  // A hint below the exponential band leaves the band intact.
  state = 7;
  for (int trial = 0; trial < 32; ++trial) {
    const double ms = ComputeBackoffMs(2, 10.0, 15.0, &state);
    EXPECT_GE(ms, 40.0);
    EXPECT_LT(ms, 80.0);
  }
}

TEST(Backoff, AttemptClampAndZeroStateReseed) {
  std::uint64_t state = 1;
  // Attempts beyond 10 reuse the attempt-10 exponent (no overflow).
  const double capped = ComputeBackoffMs(50, 1.0, 0.0, &state);
  EXPECT_GE(capped, 1024.0);
  EXPECT_LT(capped, 2048.0);
  // Negative attempts clamp to 0.
  const double first = ComputeBackoffMs(-3, 10.0, 0.0, &state);
  EXPECT_GE(first, 10.0);
  EXPECT_LT(first, 20.0);
  // A zero state reseeds instead of sticking at zero forever.
  std::uint64_t zero = 0;
  ComputeBackoffMs(0, 10.0, 0.0, &zero);
  EXPECT_NE(zero, 0u);
}

}  // namespace
}  // namespace server
}  // namespace mio
