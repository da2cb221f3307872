// Thin wrappers over OpenMP so the rest of the code never includes
// <omp.h> directly and single-threaded builds behave identically.
#pragma once

#ifdef _OPENMP
#include <omp.h>
#endif

namespace mio {

/// Number of hardware threads OpenMP will use by default.
inline int MaxThreads() {
#ifdef _OPENMP
  return omp_get_max_threads();
#else
  return 1;
#endif
}

/// Calling thread's id inside a parallel region (0 outside).
inline int ThreadId() {
#ifdef _OPENMP
  return omp_get_thread_num();
#else
  return 0;
#endif
}

/// The largest thread count a CLI flag or a workload spec may request.
inline constexpr int kMaxRequestedThreads = 256;

/// A requested thread count <= 0 means "use all" (the OpenMP runtime
/// limit). Positive requests pass through unclamped: callers may
/// oversubscribe on purpose (the parallel tests keep their partition
/// counts on small hosts), so untrusted input must be capped by its
/// caller (`mio serve` caps at MaxThreads(), the CLI and the workload
/// spec at kMaxRequestedThreads).
inline int ResolveThreads(int requested) {
  int hw = MaxThreads();
  if (requested <= 0) return hw;
  return requested < 1 ? 1 : requested;
}

}  // namespace mio
