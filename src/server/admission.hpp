// Admission control for `mio serve` (docs/ROBUSTNESS.md): a bounded
// work queue with cost accounting and a two-watermark degradation ladder
// in front of it. Overload is answered, not absorbed — a request the
// server cannot take on is refused immediately with a distinct
// Overloaded status and a retry-after hint, so clients back off instead
// of piling onto a queue that will never drain.
//
// The ladder is the engine's (DegradationStep, common/guardrails.hpp),
// entered at a step chosen by queue depth; refusal comes last:
//   depth >= max_queue/2    -> kShedLabels: no label recording
//   depth >= 3*max_queue/4  -> kDropGridCache: also drop the grid cache
//   depth == max_queue, or queued cost over budget -> reject Overloaded
//
// The planner is a pure function of (queue depth, queued cost, request
// cost) so the policy is unit-testable without sockets or threads; the
// queue applies it atomically under its own lock at push time.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>

#include "common/guardrails.hpp"

namespace mio {
namespace server {

struct AdmissionConfig {
  /// Queue capacity in requests; pushes at capacity are refused.
  std::size_t max_queue = 16;
  /// Budget on the summed estimated cost of queued requests; a push that
  /// would exceed it is refused even when slots remain (one enormous
  /// query must not be cheaper to admit than many small ones). 0 = off.
  std::uint64_t max_queued_cost = 0;
  /// Retry-after hint attached to refusals, scaled up with queue depth.
  double retry_after_base_ms = 25.0;
};

/// Estimated execution cost of a query, in arbitrary units comparable
/// across requests. The large grid has ~(extent/ceil(r))^3 cells and the
/// per-query work is dominated by cell population, so cost grows with
/// the cube of the radius ceiling; k adds only the top-k heap.
std::uint64_t EstimateQueryCost(double r, std::uint64_t k);

/// The planner's verdict for one push.
struct AdmissionDecision {
  bool admit = true;
  /// Ladder step an admitted request runs at.
  DegradationStep step = DegradationStep::kNone;
  /// Backoff hint for a refused request.
  double retry_after_ms = 0.0;
};

/// Pure admission policy: evaluates one request of `cost` against a
/// queue currently holding `depth` requests of summed `queued_cost`.
AdmissionDecision PlanAdmission(std::size_t depth, std::uint64_t queued_cost,
                                std::uint64_t cost,
                                const AdmissionConfig& config);

/// Ladder step for a queue of `depth`: kNone, kShedLabels or
/// kDropGridCache. Shared by PlanAdmission and the server's health/stats
/// surfaces so the reported stage is exactly the one the next admission
/// would apply.
DegradationStep LadderStage(std::size_t depth, const AdmissionConfig& config);

/// Thread-safe bounded job queue with the admission policy applied at
/// push time. Session threads push; worker threads pop; Close() starts
/// the drain (no new admissions, pops drain the remainder then return
/// false).
class AdmissionQueue {
 public:
  enum class PushResult { kAdmitted, kOverloaded, kClosed };

  explicit AdmissionQueue(AdmissionConfig config) : config_(config) {}

  /// Applies the admission policy and, when admitted, enqueues `job`.
  /// `decision` (optional) receives the policy verdict either way.
  PushResult Push(std::function<void()> job, std::uint64_t cost,
                  AdmissionDecision* decision = nullptr);

  /// Blocks for the next job. Returns false when the queue is closed and
  /// empty — the worker's signal to exit.
  bool Pop(std::function<void()>* job);

  /// Stops admissions; queued jobs still drain through Pop.
  void Close();

  bool closed() const;
  std::size_t depth() const;
  std::uint64_t queued_cost() const;

 private:
  struct Entry {
    std::function<void()> job;
    std::uint64_t cost = 0;
  };

  AdmissionConfig config_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Entry> queue_;
  std::uint64_t queued_cost_ = 0;
  bool closed_ = false;
};

}  // namespace server
}  // namespace mio
