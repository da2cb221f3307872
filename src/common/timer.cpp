#include "common/timer.hpp"

#include <cstdio>

namespace mio {

std::string FormatSeconds(double seconds) {
  // Durations can legitimately be negative (clock adjustments, timestamp
  // subtraction): format the magnitude and keep the sign. Exact zero used
  // to print "0.0 ns", which is misleading for an unmeasured field.
  if (seconds == 0.0) return "0 s";
  if (seconds < 0.0) return std::string("-").append(FormatSeconds(-seconds));
  char buf[64];
  if (seconds < 1e-6) {
    std::snprintf(buf, sizeof(buf), "%.1f ns", seconds * 1e9);
  } else if (seconds < 1e-3) {
    std::snprintf(buf, sizeof(buf), "%.2f us", seconds * 1e6);
  } else if (seconds < 1.0) {
    std::snprintf(buf, sizeof(buf), "%.2f ms", seconds * 1e3);
  } else if (seconds < 60.0) {
    std::snprintf(buf, sizeof(buf), "%.3f s", seconds);
  } else if (seconds < 3600.0) {
    // Minute-plus runs (full-scale benches): whole minutes + seconds.
    int m = static_cast<int>(seconds / 60.0);
    std::snprintf(buf, sizeof(buf), "%dm %.1fs", m, seconds - 60.0 * m);
  } else {
    int h = static_cast<int>(seconds / 3600.0);
    int m = static_cast<int>((seconds - 3600.0 * h) / 60.0);
    std::snprintf(buf, sizeof(buf), "%dh %dm %.0fs", h, m,
                  seconds - 3600.0 * h - 60.0 * m);
  }
  return buf;
}

}  // namespace mio
