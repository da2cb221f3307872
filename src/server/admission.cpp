#include "server/admission.hpp"

#include <cmath>

namespace mio {
namespace server {

std::uint64_t EstimateQueryCost(double r, std::uint64_t k) {
  if (!(r > 0.0)) return 1;
  const double ceil_r = std::ceil(r);
  double cost = ceil_r * ceil_r * ceil_r;
  // k only sizes the result heap — a second-order term, but it keeps a
  // k=10000 request from pricing identically to k=1.
  cost += static_cast<double>(k);
  if (cost < 1.0) cost = 1.0;
  if (cost > 1e18) cost = 1e18;
  return static_cast<std::uint64_t>(cost);
}

AdmissionDecision PlanAdmission(std::size_t depth, std::uint64_t queued_cost,
                                std::uint64_t cost,
                                const AdmissionConfig& config) {
  AdmissionDecision d;
  const std::size_t cap = config.max_queue == 0 ? 1 : config.max_queue;
  const bool queue_full = depth >= cap;
  const bool cost_full = config.max_queued_cost > 0 &&
                         queued_cost + cost > config.max_queued_cost &&
                         // A queue with room must always accept at least
                         // one request, however expensive — otherwise an
                         // over-budget query could never run at all.
                         depth > 0;
  if (queue_full || cost_full) {
    d.admit = false;
    // Scale the hint with depth: the fuller the queue, the longer the
    // suggested backoff, spreading retries instead of synchronising them.
    d.retry_after_ms =
        config.retry_after_base_ms * (1.0 + static_cast<double>(depth));
    return d;
  }
  // Degradation ladder below the refusal point: shed the cheap optional
  // work first so the queue keeps moving before anyone is turned away.
  d.step = LadderStage(depth, config);
  return d;
}

DegradationStep LadderStage(std::size_t depth, const AdmissionConfig& config) {
  const std::size_t cap = config.max_queue == 0 ? 1 : config.max_queue;
  if (depth >= cap - cap / 4) return DegradationStep::kDropGridCache;
  if (depth >= cap / 2) return DegradationStep::kShedLabels;
  return DegradationStep::kNone;
}

AdmissionQueue::PushResult AdmissionQueue::Push(std::function<void()> job,
                                               std::uint64_t cost,
                                               AdmissionDecision* decision) {
  std::unique_lock<std::mutex> lock(mu_);
  if (closed_) {
    if (decision != nullptr) {
      *decision = AdmissionDecision{};
      decision->admit = false;
      decision->retry_after_ms = config_.retry_after_base_ms;
    }
    return PushResult::kClosed;
  }
  AdmissionDecision d = PlanAdmission(queue_.size(), queued_cost_, cost,
                                      config_);
  if (decision != nullptr) *decision = d;
  if (!d.admit) return PushResult::kOverloaded;
  queue_.push_back(Entry{std::move(job), cost});
  queued_cost_ += cost;
  lock.unlock();
  cv_.notify_one();
  return PushResult::kAdmitted;
}

bool AdmissionQueue::Pop(std::function<void()>* job) {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] { return closed_ || !queue_.empty(); });
  if (queue_.empty()) return false;  // closed and drained
  *job = std::move(queue_.front().job);
  queued_cost_ -= queue_.front().cost;
  queue_.pop_front();
  return true;
}

void AdmissionQueue::Close() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
  }
  cv_.notify_all();
}

bool AdmissionQueue::closed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return closed_;
}

std::size_t AdmissionQueue::depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

std::uint64_t AdmissionQueue::queued_cost() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queued_cost_;
}

}  // namespace server
}  // namespace mio
