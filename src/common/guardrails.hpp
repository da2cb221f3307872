// Per-query resource guardrails: a wall-clock deadline, a cooperative
// cancellation token, and a memory-budget degradation planner. The engine
// creates one QueryGuard per query and the phase loops poll it on an
// amortised stride (every N cells/objects, including inside OpenMP
// regions), so a pathological query stops within one stride of its limit
// instead of running unbounded.
//
// Trip semantics: the first limit that fires wins (an atomic CAS on the
// status code); every later Poll() returns true immediately, so parallel
// workers drain their remaining iterations at one relaxed load each. The
// engine converts a tripped guard into an incomplete QueryResult carrying
// the best-so-far answer (docs/ROBUSTNESS.md).
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>

#include "common/status.hpp"

namespace mio {

/// Poll strides: how many loop iterations run between two guard polls.
/// Object-granular loops (build, bounding, candidate queue) use the
/// coarse stride; point-granular inner loops the fine one. Chosen so the
/// poll (a steady_clock read) stays far below 1% of loop cost while a
/// deadline still fires within a few hundred microseconds of real work.
inline constexpr std::size_t kGuardStrideObjects = 256;
inline constexpr std::size_t kGuardStridePoints = 64;

/// Cooperative cancellation: share one token between the query thread and
/// any controller thread; Cancel() makes the query return kCancelled at
/// its next guard poll. Reusable after Reset().
class CancelToken {
 public:
  void Cancel() { cancelled_.store(true, std::memory_order_relaxed); }
  void Reset() { cancelled_.store(false, std::memory_order_relaxed); }
  bool cancelled() const {
    return cancelled_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<bool> cancelled_{false};
};

/// One query's limit state. Configure before the query starts; Poll()
/// from any thread during it. Not reusable across queries.
class QueryGuard {
 public:
  using Clock = std::chrono::steady_clock;

  /// Arms the deadline `ms` milliseconds from now. NaN and ms <= 0 leave
  /// it off, and so does a deadline past the clock's range (~292 years of
  /// int64 nanoseconds), which could never fire: converting it would
  /// overflow the clock's integer duration, which is undefined.
  void SetDeadline(double ms) {
    if (!(ms > 0.0)) return;
    using Millis = std::chrono::duration<double, std::milli>;
    const Clock::time_point now = Clock::now();
    const Clock::duration headroom = Clock::time_point::max() - now;
    if (!(ms < Millis(headroom).count())) return;
    deadline_ms_ = ms;
    // min(): the double product may round a few ns past the headroom.
    deadline_ = now + std::min(headroom,
                               std::chrono::duration_cast<Clock::duration>(
                                   Millis(ms)));
    has_deadline_ = true;
  }

  void SetCancelToken(const CancelToken* token) { cancel_ = token; }

  /// True when any limit is armed (deadline or cancel; the memory budget
  /// is enforced by the planner below, not by polling).
  bool active() const { return has_deadline_ || cancel_ != nullptr; }

  bool tripped() const {
    return code_.load(std::memory_order_relaxed) != 0;
  }

  /// Amortised check: true when the query must stop. Callers stride this
  /// (e.g. every 256 objects); once tripped it costs one relaxed load.
  bool Poll() {
    if (tripped()) return true;
    if (cancel_ != nullptr && cancel_->cancelled()) {
      return Trip(StatusCode::kCancelled);
    }
    if (has_deadline_ && Clock::now() >= deadline_) {
      return Trip(StatusCode::kDeadlineExceeded);
    }
    return false;
  }

  /// Explicit kResourceExhausted trip (budget abort, injected allocation
  /// failure). Returns true for `if (...) return;` call sites.
  bool TripResource() { return Trip(StatusCode::kResourceExhausted); }

  StatusCode code() const {
    return static_cast<StatusCode>(code_.load(std::memory_order_relaxed));
  }

  /// OK until tripped; afterwards the trip code with a canned message.
  Status status() const;

 private:
  bool Trip(StatusCode c) {
    int expected = 0;
    code_.compare_exchange_strong(expected, static_cast<int>(c),
                                  std::memory_order_relaxed);
    return true;
  }

  std::atomic<int> code_{0};
  bool has_deadline_ = false;
  Clock::time_point deadline_{};
  double deadline_ms_ = 0.0;
  const CancelToken* cancel_ = nullptr;
};

/// The degradation ladder (docs/ROBUSTNESS.md): optional work shed in a
/// fixed order, cheapest first. A step implies every step before it. The
/// engine's memory-budget planner may climb to any step; the server's
/// admission control enters the same ladder at kShedLabels or
/// kDropGridCache. The integer value is the step number that qlog
/// `degradation_level` and stats/health `ladder_stage` report.
enum class DegradationStep : std::uint8_t {
  kNone = 0,
  kShedLabels = 1,          ///< skip label recording
  kDropGridCache = 2,       ///< drop the reuse-grid cache
  /// Shed the kept lower-bound bitsets: verification recomputes each
  /// verified candidate's seed from the grid instead (same work, same
  /// kVerify filter, no n-sized array).
  kStreamVerification = 3,
};

/// Inputs to the memory-budget planner: the index bytes the query cannot
/// run without, plus the cost of each sheddable extra (0 = not wanted).
struct DegradationInputs {
  std::size_t budget_bytes = 0;     ///< 0 = unlimited
  std::size_t required_bytes = 0;   ///< the BIGrid itself
  std::size_t label_bytes = 0;      ///< label recording (step 1)
  std::size_t cache_bytes = 0;      ///< retained grid cache (step 2)
  std::size_t lb_bitset_bytes = 0;  ///< kept lower-bound bitsets (step 3)
};

/// The planner's verdict: the highest ladder step needed for the
/// projection to fit the budget, and whether the query must still abort
/// with kResourceExhausted because the required bytes alone exceed it.
/// Steps whose extra costs nothing are never the reason to climb, so the
/// caller applies the steps below `step` only where that work was wanted.
struct DegradationPlan {
  DegradationStep step = DegradationStep::kNone;
  bool abort = false;
};

DegradationPlan PlanDegradation(const DegradationInputs& in);

}  // namespace mio
