// Minimal command-line flag parser for the benchmark harnesses and
// examples. Supports `--flag`, `--flag=value` and `--flag value` forms.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.hpp"

namespace mio {

/// \brief Parses `--key[=value]` style flags; positional args are kept
/// in order. Unknown flags are tolerated (benches share sweep scripts).
class ArgParser {
 public:
  ArgParser(int argc, char** argv);

  /// True if `--name` was present (with or without a value).
  bool Has(const std::string& name) const;

  /// Value of `--name`, or `fallback` when absent.
  std::string GetString(const std::string& name, std::string fallback) const;
  std::int64_t GetInt(const std::string& name, std::int64_t fallback) const;
  double GetDouble(const std::string& name, double fallback) const;

  /// Checked GetInt: the value of `--name` as a base-10 integer in
  /// [lo, hi], or `fallback` when absent. Non-numeric text, trailing
  /// junk, int64 overflow and values outside [lo, hi] are
  /// kInvalidArgument naming the flag (GetInt reads "abc" as 0 and
  /// passes -1 through).
  Result<std::int64_t> GetIntInRange(const std::string& name,
                                     std::int64_t fallback, std::int64_t lo,
                                     std::int64_t hi) const;
  /// Checked GetDouble: the value of `--name` as a finite number in
  /// [lo, hi], or `fallback` when absent. Non-numeric text, trailing
  /// junk, nan, inf and values outside [lo, hi] are kInvalidArgument
  /// naming the flag.
  Result<double> GetDoubleInRange(const std::string& name, double fallback,
                                  double lo, double hi) const;
  /// Checked GetDoubleList: every comma-separated item of `--name` as
  /// GetDoubleInRange reads one value, or `fallback` when absent. One bad
  /// or empty item rejects the whole list (GetDoubleList reads "abc" as 0
  /// and skips empty items).
  Result<std::vector<double>> GetDoubleListInRange(
      const std::string& name, std::vector<double> fallback, double lo,
      double hi) const;
  bool GetBool(const std::string& name, bool fallback) const;

  /// Comma-separated list flag, e.g. `--r=4,6,8,10`.
  std::vector<double> GetDoubleList(const std::string& name,
                                    std::vector<double> fallback) const;
  std::vector<std::int64_t> GetIntList(const std::string& name,
                                       std::vector<std::int64_t> fallback) const;
  std::vector<std::string> GetStringList(const std::string& name,
                                         std::vector<std::string> fallback) const;

  const std::vector<std::string>& positional() const { return positional_; }
  const std::string& program_name() const { return program_; }

 private:
  std::string program_;
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
};

}  // namespace mio
