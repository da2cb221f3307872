#include "obs/stats_sink.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace mio {
namespace obs {

const char* GitDescribe() {
#ifdef MIO_GIT_DESCRIBE
  return MIO_GIT_DESCRIBE;
#else
  return "unknown";
#endif
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  if (p <= 0.0) return values.front();
  if (p >= 1.0) return values.back();
  // R-7 / numpy 'linear': rank h = p*(n-1) interpolated between the two
  // surrounding order statistics.
  double h = p * static_cast<double>(values.size() - 1);
  std::size_t lo = static_cast<std::size_t>(std::floor(h));
  std::size_t hi = lo + 1 < values.size() ? lo + 1 : lo;
  double frac = h - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

Status WriteTextFile(const std::string& path, const std::string& contents) {
  if (path == "-") {
    std::fwrite(contents.data(), 1, contents.size(), stdout);
    std::fputc('\n', stdout);
    return Status::OK();
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::IOError("cannot open: " + path);
  std::size_t written = std::fwrite(contents.data(), 1, contents.size(), f);
  int close_err = std::fclose(f);
  if (written != contents.size() || close_err != 0) {
    return Status::IOError("short write: " + path);
  }
  return Status::OK();
}

}  // namespace obs
}  // namespace mio
