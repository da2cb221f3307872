#include "workload/workload_spec.hpp"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>

#include "common/omp_utils.hpp"

namespace mio {

namespace {

/// Splits a directive line into whitespace-separated tokens, dropping
/// everything from '#' on.
std::vector<std::string> Tokenize(const std::string& line) {
  std::string effective = line;
  std::size_t hash = effective.find('#');
  if (hash != std::string::npos) effective.resize(hash);
  std::istringstream in(effective);
  std::vector<std::string> tokens;
  std::string tok;
  while (in >> tok) tokens.push_back(tok);
  return tokens;
}

Status LineError(std::size_t lineno, const std::string& msg) {
  return Status::InvalidArgument("workload spec line " +
                                 std::to_string(lineno) + ": " + msg);
}

bool ParseOnOff(const std::string& value, bool* out) {
  if (value == "on" || value == "true" || value == "1") {
    *out = true;
    return true;
  }
  if (value == "off" || value == "false" || value == "0") {
    *out = false;
    return true;
  }
  return false;
}

/// A finite number. strtod also accepts "nan", "inf" and overflow to
/// infinity, which no setting can take, and NaN would slip through the
/// `x <= bound` rejections below.
bool ParseDouble(const std::string& value, double* out) {
  char* end = nullptr;
  *out = std::strtod(value.c_str(), &end);
  return end != value.c_str() && *end == '\0' && std::isfinite(*out);
}

/// A decimal integer in [lo, hi]. strtoull alone accepts a sign ("-1"
/// wraps to 2^64 - 1) and saturates silently on overflow.
bool ParseUInt(const std::string& value, std::uint64_t lo, std::uint64_t hi,
               std::uint64_t* out) {
  if (value.empty() || !std::isdigit(static_cast<unsigned char>(value[0]))) {
    return false;
  }
  char* end = nullptr;
  errno = 0;
  *out = std::strtoull(value.c_str(), &end, 10);
  return *end == '\0' && errno != ERANGE && *out >= lo && *out <= hi;
}

constexpr std::uint64_t kInt64Max = std::numeric_limits<std::int64_t>::max();

/// Applies one key=value setting to `q`. `r_list` (nullable) receives the
/// radii: `query` allows one, `repeat` a comma-separated list.
Status ApplySetting(const std::string& setting, WorkloadQuery* q,
                    std::vector<double>* r_list, std::size_t lineno) {
  std::size_t eq = setting.find('=');
  if (eq == std::string::npos) {
    return LineError(lineno, "expected key=value, got \"" + setting + "\"");
  }
  std::string key = setting.substr(0, eq);
  std::string value = setting.substr(eq + 1);
  if (key == "r") {
    if (r_list == nullptr) {
      return LineError(lineno, "r= is not allowed in defaults");
    }
    std::istringstream in(value);
    std::string item;
    while (std::getline(in, item, ',')) {
      double r = 0.0;
      if (!ParseDouble(item, &r) || r <= 0.0) {
        return LineError(lineno, "bad radius \"" + item + "\"");
      }
      r_list->push_back(r);
    }
    if (r_list->empty()) return LineError(lineno, "empty radius list");
    return Status::OK();
  }
  if (key == "k") {
    // k as `mio query --k` bounds it.
    std::uint64_t k = 0;
    if (!ParseUInt(value, 1, kInt64Max, &k)) {
      return LineError(lineno, "bad k \"" + value + "\"");
    }
    q->k = static_cast<std::size_t>(k);
    return Status::OK();
  }
  if (key == "threads") {
    std::uint64_t t = 0;
    if (!ParseUInt(value, 1, kMaxRequestedThreads, &t)) {
      return LineError(lineno, "bad threads \"" + value + "\"");
    }
    q->threads = static_cast<int>(t);
    return Status::OK();
  }
  if (key == "labels") {
    bool on = false;
    if (!ParseOnOff(value, &on)) {
      return LineError(lineno, "bad labels value \"" + value + "\"");
    }
    q->use_labels = on;
    q->record_labels = on;  // labels=on implies recording; record= refines
    return Status::OK();
  }
  if (key == "record") {
    bool on = false;
    if (!ParseOnOff(value, &on)) {
      return LineError(lineno, "bad record value \"" + value + "\"");
    }
    q->record_labels = on;
    return Status::OK();
  }
  if (key == "reuse_grid") {
    bool on = false;
    if (!ParseOnOff(value, &on)) {
      return LineError(lineno, "bad reuse_grid value \"" + value + "\"");
    }
    q->reuse_grid = on;
    return Status::OK();
  }
  if (key == "deadline_ms") {
    double d = 0.0;
    if (!ParseDouble(value, &d) || d < 0.0) {
      return LineError(lineno, "bad deadline_ms \"" + value + "\"");
    }
    q->deadline_ms = d;
    return Status::OK();
  }
  return LineError(lineno, "unknown setting \"" + key + "\"");
}

}  // namespace

Result<WorkloadSpec> ParseWorkloadSpec(std::string_view text) {
  WorkloadSpec spec;
  WorkloadQuery defaults;
  std::istringstream in{std::string(text)};
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    std::vector<std::string> tokens = Tokenize(line);
    if (tokens.empty()) continue;
    const std::string& directive = tokens[0];
    if (directive == "name") {
      if (tokens.size() != 2) return LineError(lineno, "name takes one token");
      spec.name = tokens[1];
    } else if (directive == "dataset") {
      if (tokens.size() != 2) {
        return LineError(lineno, "dataset takes one path");
      }
      spec.dataset = tokens[1];
    } else if (directive == "sample") {
      if (tokens.size() < 2) return LineError(lineno, "sample takes a rate");
      if (!ParseDouble(tokens[1], &spec.sample_rate) ||
          spec.sample_rate <= 0.0 || spec.sample_rate > 1.0) {
        return LineError(lineno, "sample rate must be in (0, 1]");
      }
      for (std::size_t i = 2; i < tokens.size(); ++i) {
        if (tokens[i].rfind("seed=", 0) == 0) {
          if (!ParseUInt(tokens[i].substr(5), 0,
                         std::numeric_limits<std::uint64_t>::max(),
                         &spec.sample_seed)) {
            return LineError(lineno, "bad seed \"" + tokens[i] + "\"");
          }
        } else {
          return LineError(lineno, "unknown sample option \"" + tokens[i] +
                                       "\"");
        }
      }
    } else if (directive == "defaults") {
      for (std::size_t i = 1; i < tokens.size(); ++i) {
        MIO_RETURN_NOT_OK(
            ApplySetting(tokens[i], &defaults, nullptr, lineno));
      }
    } else if (directive == "query") {
      if (spec.queries.size() >= kMaxWorkloadQueries) {
        return LineError(lineno, "more than " +
                                     std::to_string(kMaxWorkloadQueries) +
                                     " queries");
      }
      WorkloadQuery q = defaults;
      std::vector<double> r_list;
      for (std::size_t i = 1; i < tokens.size(); ++i) {
        MIO_RETURN_NOT_OK(ApplySetting(tokens[i], &q, &r_list, lineno));
      }
      if (r_list.size() != 1) {
        return LineError(lineno, "query needs exactly one r=");
      }
      q.r = r_list[0];
      spec.queries.push_back(q);
    } else if (directive == "slo") {
      if (tokens.size() < 2) {
        return LineError(lineno, "slo takes latency_ms= and options");
      }
      obs::SloObjective slo;
      bool have_latency = false;
      for (std::size_t i = 1; i < tokens.size(); ++i) {
        const std::string& tok = tokens[i];
        if (tok.rfind("latency_ms=", 0) == 0) {
          if (!ParseDouble(tok.substr(11), &slo.latency_ms) ||
              slo.latency_ms <= 0.0) {
            return LineError(lineno, "bad latency_ms \"" + tok + "\"");
          }
          have_latency = true;
        } else if (tok.rfind("ceil_r=", 0) == 0) {
          std::uint64_t c = 0;
          if (!ParseUInt(tok.substr(7), 1, std::numeric_limits<int>::max(),
                         &c)) {
            return LineError(lineno, "bad ceil_r \"" + tok + "\"");
          }
          slo.ceil_r = static_cast<int>(c);
        } else if (tok.rfind("objective=", 0) == 0) {
          if (!ParseDouble(tok.substr(10), &slo.objective) ||
              slo.objective <= 0.0 || slo.objective >= 1.0) {
            return LineError(lineno, "objective must be in (0, 1)");
          }
        } else {
          return LineError(lineno, "unknown slo option \"" + tok + "\"");
        }
      }
      if (!have_latency) {
        return LineError(lineno, "slo needs latency_ms=");
      }
      spec.slos.push_back(slo);
    } else if (directive == "repeat") {
      if (tokens.size() < 3) {
        return LineError(lineno, "repeat takes a count and settings");
      }
      std::uint64_t count = 0;
      if (!ParseUInt(tokens[1], 1, kMaxWorkloadQueries - spec.queries.size(),
                     &count)) {
        return LineError(lineno, "bad repeat count \"" + tokens[1] +
                                     "\" (a spec holds at most " +
                                     std::to_string(kMaxWorkloadQueries) +
                                     " queries)");
      }
      WorkloadQuery q = defaults;
      std::vector<double> r_list;
      for (std::size_t i = 2; i < tokens.size(); ++i) {
        MIO_RETURN_NOT_OK(ApplySetting(tokens[i], &q, &r_list, lineno));
      }
      if (r_list.empty()) {
        return LineError(lineno, "repeat needs an r= list");
      }
      for (std::uint64_t i = 0; i < count; ++i) {
        q.r = r_list[static_cast<std::size_t>(i % r_list.size())];
        spec.queries.push_back(q);
      }
    } else {
      return LineError(lineno, "unknown directive \"" + directive + "\"");
    }
  }
  if (spec.queries.empty()) {
    return Status::InvalidArgument("workload spec: no queries");
  }
  return spec;
}

Result<WorkloadSpec> LoadWorkloadSpec(const std::string& path) {
  std::ifstream in(path);
  if (!in.is_open()) {
    return Status::IOError("cannot open workload spec: " + path);
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  if (in.bad()) {
    return Status::IOError("read error in workload spec: " + path);
  }
  Result<WorkloadSpec> spec = ParseWorkloadSpec(buf.str());
  if (!spec.ok()) {
    return Status(spec.status().code(),
                  path + ": " + spec.status().message());
  }
  return spec;
}

}  // namespace mio
