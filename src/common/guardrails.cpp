#include "common/guardrails.hpp"

#include <cstdio>
#include <utility>

namespace mio {

Status QueryGuard::status() const {
  switch (code()) {
    case StatusCode::kOk:
      return Status::OK();
    case StatusCode::kDeadlineExceeded: {
      char msg[64];
      std::snprintf(msg, sizeof(msg), "query deadline of %.3f ms exceeded",
                    deadline_ms_);
      return Status::DeadlineExceeded(msg);
    }
    case StatusCode::kCancelled:
      return Status::Cancelled("query cancelled by caller");
    case StatusCode::kResourceExhausted:
      return Status::ResourceExhausted(
          "memory budget exhausted (after shedding all optional work)");
    default:
      return Status::Internal("guard tripped with unexpected code");
  }
}

DegradationPlan PlanDegradation(const DegradationInputs& in) {
  DegradationPlan plan;
  if (in.budget_bytes == 0) return plan;  // unlimited

  std::size_t projected = in.required_bytes + in.label_bytes +
                          in.cache_bytes + in.lb_bitset_bytes;
  const std::pair<DegradationStep, std::size_t> ladder[] = {
      {DegradationStep::kShedLabels, in.label_bytes},
      {DegradationStep::kDropGridCache, in.cache_bytes},
      {DegradationStep::kStreamVerification, in.lb_bitset_bytes},
  };
  for (const auto& [step, bytes] : ladder) {
    if (projected > in.budget_bytes && bytes > 0) {
      plan.step = step;
      projected -= bytes;
    }
  }
  plan.abort = projected > in.budget_bytes;
  return plan;
}

}  // namespace mio
