// Workload specification: a small line-oriented file describing a
// sequence of MIO queries to run against one dataset, so multi-query
// behaviour (label reuse across ceil(r) classes, tail latency, guardrail
// outcomes) is exercisable from the CLI (`mio run-workload`) and the
// check scripts without bespoke driver programs.
//
// Format (one directive per line, '#' starts a comment):
//
//   name urban-mix                  # workload name, stamped into the qlog
//   dataset data/urban.bin          # optional; the CLI flag overrides it
//   sample 0.5 seed=42              # optional object sampling (Fig. 6)
//   defaults k=1 threads=2 labels=on
//   query r=4
//   query r=4.2 threads=4           # per-query overrides of the defaults
//   repeat 34 r=3,4.5,9             # 34 cycles through the r list
//
// `repeat N r=a,b,c` appends N queries cycling through the listed radii —
// the one-line way to build a ~100-query workload that deliberately mixes
// ceil(r) classes so label reuse is exercised.
//
// Key=value settings (usable in `defaults`, `query`, and `repeat`):
//   r=F            query radius (required on `query`; list on `repeat`)
//   k=N            top-k, >= 1
//   threads=N      OpenMP threads, 1..256 (1 = serial)
//   labels=on|off  BIGrid-label: consult AND record labels
//   record=on|off  record_labels alone (labels=on implies record=on)
//   reuse_grid=on|off
//   deadline_ms=F  per-query wall budget (0 = unlimited)
//
// Latency objectives (`mio qlog report --slo` evaluates them over the
// run's qlog):
//
//   slo latency_ms=50                       # 95% of all queries <= 50ms
//   slo ceil_r=5 latency_ms=80 objective=0.99
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.hpp"
#include "obs/qlog.hpp"

namespace mio {

/// One query of a workload: radius plus the QueryOptions subset the spec
/// grammar exposes.
struct WorkloadQuery {
  double r = 0.0;
  std::size_t k = 1;
  int threads = 1;
  bool use_labels = false;
  bool record_labels = false;
  bool reuse_grid = false;
  double deadline_ms = 0.0;
};

struct WorkloadSpec {
  std::string name;               ///< "" = unnamed
  std::string dataset;            ///< optional dataset path
  double sample_rate = 1.0;       ///< 1.0 = full dataset
  std::uint64_t sample_seed = 42;
  std::vector<WorkloadQuery> queries;
  std::vector<obs::SloObjective> slos;  ///< latency objectives, may be empty
};

/// The most queries one spec may hold.
inline constexpr std::size_t kMaxWorkloadQueries = 1000000;

/// Parses a spec document. Errors carry the 1-based line number. Every
/// accepted spec holds 1..kMaxWorkloadQueries queries with finite r > 0,
/// k in [1, 2^63 - 1], threads in [1, kMaxRequestedThreads], and SLO
/// objectives in (0, 1).
Result<WorkloadSpec> ParseWorkloadSpec(std::string_view text);

/// Reads and parses a spec file; errors are prefixed with the path.
Result<WorkloadSpec> LoadWorkloadSpec(const std::string& path);

}  // namespace mio
