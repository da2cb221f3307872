#include "common/argparse.hpp"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <utility>

namespace mio {
namespace {

bool LooksLikeFlag(const std::string& s) {
  return s.size() > 2 && s[0] == '-' && s[1] == '-';
}

/// The comma-separated items of `s`; empty ones only with `keep_empty`
/// ("3,,4" then has three items and "3," two).
std::vector<std::string> SplitCommas(const std::string& s,
                                     bool keep_empty = false) {
  std::vector<std::string> out;
  for (std::size_t begin = 0;;) {
    const std::size_t comma = s.find(',', begin);
    std::string item = s.substr(begin, comma - begin);
    if (keep_empty || !item.empty()) out.push_back(std::move(item));
    if (comma == std::string::npos) return out;
    begin = comma + 1;
  }
}

}  // namespace

ArgParser::ArgParser(int argc, char** argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (!LooksLikeFlag(arg)) {
      positional_.push_back(arg);
      continue;
    }
    std::string body = arg.substr(2);
    auto eq = body.find('=');
    if (eq != std::string::npos) {
      flags_[body.substr(0, eq)] = body.substr(eq + 1);
    } else if (i + 1 < argc && !LooksLikeFlag(argv[i + 1])) {
      flags_[body] = argv[++i];
    } else {
      flags_[body] = "";
    }
  }
}

bool ArgParser::Has(const std::string& name) const {
  return flags_.count(name) > 0;
}

std::string ArgParser::GetString(const std::string& name,
                                 std::string fallback) const {
  auto it = flags_.find(name);
  if (it == flags_.end() || it->second.empty()) return fallback;
  return it->second;
}

std::int64_t ArgParser::GetInt(const std::string& name,
                               std::int64_t fallback) const {
  auto it = flags_.find(name);
  if (it == flags_.end() || it->second.empty()) return fallback;
  return std::strtoll(it->second.c_str(), nullptr, 10);
}

Result<std::int64_t> ArgParser::GetIntInRange(const std::string& name,
                                              std::int64_t fallback,
                                              std::int64_t lo,
                                              std::int64_t hi) const {
  auto it = flags_.find(name);
  if (it == flags_.end() || it->second.empty()) return fallback;
  const char* text = it->second.c_str();
  char* end = nullptr;
  errno = 0;
  long long v = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE || v < lo || v > hi) {
    return Status::InvalidArgument("--" + name + "=" + it->second +
                                   ": expected an integer in [" +
                                   std::to_string(lo) + ", " +
                                   std::to_string(hi) + "]");
  }
  return static_cast<std::int64_t>(v);
}

namespace {

/// `text` as a finite number in [lo, hi], or kInvalidArgument naming
/// `--name=value`.
Result<double> ParseDoubleInRange(const std::string& name,
                                  const std::string& value,
                                  const std::string& text, double lo,
                                  double hi) {
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0' || !std::isfinite(v) || v < lo ||
      v > hi) {
    char range[64];
    std::snprintf(range, sizeof(range), "[%g, %g]", lo, hi);
    return Status::InvalidArgument("--" + name + "=" + value +
                                   ": expected a finite number in " + range);
  }
  return v;
}

}  // namespace

Result<double> ArgParser::GetDoubleInRange(const std::string& name,
                                           double fallback, double lo,
                                           double hi) const {
  auto it = flags_.find(name);
  if (it == flags_.end() || it->second.empty()) return fallback;
  return ParseDoubleInRange(name, it->second, it->second, lo, hi);
}

Result<std::vector<double>> ArgParser::GetDoubleListInRange(
    const std::string& name, std::vector<double> fallback, double lo,
    double hi) const {
  auto it = flags_.find(name);
  if (it == flags_.end() || it->second.empty()) return fallback;
  std::vector<double> out;
  // An empty item is rejected like junk, so "3,,4" does not read as 3,4.
  for (const std::string& tok : SplitCommas(it->second, /*keep_empty=*/true)) {
    Result<double> v = ParseDoubleInRange(name, it->second, tok, lo, hi);
    if (!v.ok()) return v.status();
    out.push_back(v.value());
  }
  return out;
}

double ArgParser::GetDouble(const std::string& name, double fallback) const {
  auto it = flags_.find(name);
  if (it == flags_.end() || it->second.empty()) return fallback;
  return std::strtod(it->second.c_str(), nullptr);
}

bool ArgParser::GetBool(const std::string& name, bool fallback) const {
  auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  if (it->second.empty() || it->second == "true" || it->second == "1") {
    return true;
  }
  return false;
}

std::vector<double> ArgParser::GetDoubleList(
    const std::string& name, std::vector<double> fallback) const {
  auto it = flags_.find(name);
  if (it == flags_.end() || it->second.empty()) return fallback;
  std::vector<double> out;
  for (const auto& tok : SplitCommas(it->second)) {
    out.push_back(std::strtod(tok.c_str(), nullptr));
  }
  return out;
}

std::vector<std::int64_t> ArgParser::GetIntList(
    const std::string& name, std::vector<std::int64_t> fallback) const {
  auto it = flags_.find(name);
  if (it == flags_.end() || it->second.empty()) return fallback;
  std::vector<std::int64_t> out;
  for (const auto& tok : SplitCommas(it->second)) {
    out.push_back(std::strtoll(tok.c_str(), nullptr, 10));
  }
  return out;
}

std::vector<std::string> ArgParser::GetStringList(
    const std::string& name, std::vector<std::string> fallback) const {
  auto it = flags_.find(name);
  if (it == flags_.end() || it->second.empty()) return fallback;
  return SplitCommas(it->second);
}

}  // namespace mio
