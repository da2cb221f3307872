// Shared helpers for the mio test suite: deterministic random datasets,
// the brute-force oracle every algorithm is differentially tested against,
// and the line and byte mutators the in-tree parser fuzz loops run on.
#pragma once

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <string>
#include <vector>

#include "baseline/nested_loop.hpp"
#include "common/random.hpp"
#include "common/status.hpp"
#include "object/object_set.hpp"

namespace mio {
namespace testing {

/// Random object collection: n objects of m_min..m_max points each,
/// clustered enough (cluster_sigma vs domain) that interactions exist at
/// single-digit thresholds.
inline ObjectSet MakeRandomObjects(std::size_t n, std::size_t m_min,
                                   std::size_t m_max, double domain,
                                   std::uint64_t seed,
                                   double cluster_sigma = 5.0,
                                   bool with_times = false,
                                   double time_span = 100.0) {
  Pcg32 rng(seed, 0x7465737473ULL);  // "tests"
  ObjectSet set;
  for (std::size_t i = 0; i < n; ++i) {
    double cx = rng.NextDouble(0.0, domain);
    double cy = rng.NextDouble(0.0, domain);
    double cz = rng.NextDouble(0.0, domain);
    std::size_t m =
        m_min + rng.NextBounded(static_cast<std::uint32_t>(m_max - m_min + 1));
    Object obj;
    for (std::size_t j = 0; j < m; ++j) {
      obj.points.push_back(Point{cx + cluster_sigma * rng.NextGaussian(),
                                 cy + cluster_sigma * rng.NextGaussian(),
                                 cz + cluster_sigma * rng.NextGaussian()});
      if (with_times) obj.times.push_back(rng.NextDouble(0.0, time_span));
    }
    set.Add(std::move(obj));
  }
  return set;
}

/// The exact score vector by brute force (NL with early break).
inline std::vector<std::uint32_t> OracleScores(const ObjectSet& objects,
                                               double r) {
  return NestedLoopScores(objects, r, /*threads=*/1);
}

/// Maximum score in a score vector.
inline std::uint32_t MaxScore(const std::vector<std::uint32_t>& scores) {
  std::uint32_t best = 0;
  for (std::uint32_t s : scores) best = std::max(best, s);
  return best;
}

/// One deterministic fuzz input: a seed line with 1-3 mutations — a bit
/// flip, a truncation, a splice onto a tail of another seed, or a number
/// replaced by an extreme ("1e999", "-0", 2^64, ...). No corpus: the
/// seeds are valid lines of the format under test.
inline std::string MutateLine(const std::vector<std::string>& seeds,
                              Pcg32& rng) {
  static const char* kExtremes[] = {
      "1e999",      "-1e999", "-0",         "18446744073709551616",
      "-1",         "1e-320", "2147483648", "18446744073709551615",
      "0.5",        "0",      "1e308",      "9007199254740993"};
  auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(
        rng.NextBounded(static_cast<std::uint32_t>(n)));
  };
  std::string line = seeds[pick(seeds.size())];
  const int rounds = 1 + static_cast<int>(rng.NextBounded(3));
  for (int i = 0; i < rounds && !line.empty(); ++i) {
    switch (rng.NextBounded(4)) {
      case 0:
        line[pick(line.size())] ^= static_cast<char>(1u << rng.NextBounded(8));
        break;
      case 1:
        line.resize(pick(line.size()));
        break;
      case 2: {
        const std::string& other = seeds[pick(seeds.size())];
        line = line.substr(0, pick(line.size() + 1)) +
               other.substr(pick(other.size() + 1));
        break;
      }
      default: {
        // The first number at or after a random offset.
        std::size_t b = line.find_first_of("0123456789", pick(line.size()));
        if (b == std::string::npos) break;
        auto in_number = [&line](std::size_t j) {
          const char c = line[j];
          return std::isdigit(static_cast<unsigned char>(c)) || c == '.' ||
                 c == 'e' || c == 'E' || c == '-' || c == '+';
        };
        std::size_t e = b;
        while (b > 0 && in_number(b - 1)) --b;
        while (e < line.size() && in_number(e)) ++e;
        line.replace(b, e - b, kExtremes[pick(std::size(kExtremes))]);
      }
    }
  }
  return line;
}

/// How a fuzzed input that fails to load must fail: a typed non-OK
/// Status (not kInternal) with a message.
inline bool IsTypedFailure(const Status& st) {
  return !st.ok() && st.code() != StatusCode::kInternal &&
         !st.message().empty();
}

/// One deterministic fuzz input for a line-oriented file: `text` with one
/// line replaced by MutateLine over the file's own lines.
inline std::string MutateOneLine(const std::string& text, Pcg32& rng) {
  std::vector<std::string> lines;
  for (std::size_t b = 0; b < text.size();) {
    std::size_t e = text.find('\n', b);
    if (e == std::string::npos) e = text.size();
    lines.push_back(text.substr(b, e - b));
    b = e + 1;
  }
  if (lines.empty()) return text;
  lines[rng.NextBounded(static_cast<std::uint32_t>(lines.size()))] =
      MutateLine(lines, rng);
  std::string out;
  for (const std::string& line : lines) out += line + "\n";
  return out;
}

/// One deterministic fuzz input for a file reader: a seed file with 1-3
/// mutations — a bit flip, a truncation, a span deleted or duplicated, or
/// 8 bytes overwritten by an extreme little-endian value (0, 2^64 - 1,
/// 2^63, NaN, +-Inf, DBL_MAX, 2^32). No corpus: the seeds are valid
/// files of the format under test.
inline std::string MutateBytes(const std::vector<std::string>& seeds,
                               Pcg32& rng) {
  static const std::uint64_t kExtremes[] = {
      0,
      ~std::uint64_t{0},
      std::uint64_t{1} << 63,
      0x7FF8000000000000ULL,  // NaN
      0x7FF0000000000000ULL,  // +Inf
      0xFFF0000000000000ULL,  // -Inf
      0x7FEFFFFFFFFFFFFFULL,  // DBL_MAX
      std::uint64_t{1} << 32};
  auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(
        rng.NextBounded(static_cast<std::uint32_t>(n)));
  };
  std::string bytes = seeds[pick(seeds.size())];
  const int rounds = 1 + static_cast<int>(rng.NextBounded(3));
  for (int i = 0; i < rounds && !bytes.empty(); ++i) {
    const std::size_t at = pick(bytes.size());
    switch (rng.NextBounded(4)) {
      case 0:
        bytes[at] ^= static_cast<char>(1u << rng.NextBounded(8));
        break;
      case 1:
        bytes.resize(at);
        break;
      case 2: {
        const std::size_t len = 1 + pick(std::min<std::size_t>(
                                        64, bytes.size() - at));
        if (rng.NextBounded(2) == 0) {
          bytes.erase(at, len);
        } else {
          bytes.insert(at, bytes.substr(at, len));
        }
        break;
      }
      default: {
        const std::uint64_t v = kExtremes[pick(std::size(kExtremes))];
        std::memcpy(&bytes[at], &v,
                    std::min(sizeof(v), bytes.size() - at));
      }
    }
  }
  return bytes;
}

}  // namespace testing
}  // namespace mio
