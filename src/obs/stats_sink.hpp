// Small helpers shared by the per-query record (obs/qlog.hpp), the CLI
// and the bench harnesses: the build's git describe, R-7 percentiles,
// and whole-file text output.
#pragma once

#include <string>
#include <vector>

#include "common/status.hpp"

namespace mio {
namespace obs {

/// `git describe` of the tree this binary was built from (configure-time;
/// "unknown" outside a git checkout).
const char* GitDescribe();

/// Writes `contents` to `path` ("-" writes to stdout).
Status WriteTextFile(const std::string& path, const std::string& contents);

/// The p-quantile (p in [0,1]) of `values` with linear interpolation
/// between adjacent order statistics (the numpy/R-7 rule). Sorts a copy;
/// 0 on empty input. Shared by `mio qlog report` and the bench summaries.
double Percentile(std::vector<double> values, double p);

/// Shorthand for Percentile(values, 0.5).
double Median(std::vector<double> values);

}  // namespace obs
}  // namespace mio
