// External-memory label store (paper §III-D): "the number of MIO queries
// issued cannot be bounded; for practical use, labels should be resident
// in external memory". One file per ceil(r); the load cost O(nm/B) is the
// Label-Input row of Table II.
//
// File format: magic "MIOL", u32 version, u32 ceil_r, u64 n, then per
// object u64 num_points + raw label bytes; FNV-1a checksum trailer.
// Corrupt or shape-mismatched files are reported (and ignored by the
// engine) rather than trusted.
#pragma once

#include <string>

#include "common/status.hpp"
#include "core/labels.hpp"
#include "object/object_set.hpp"

namespace mio {

/// Directory-backed persistence for LabelSets, keyed by ceil(r).
class LabelStore {
 public:
  /// Creates the directory if missing.
  explicit LabelStore(std::string dir);

  /// True if a label file for this ceil(r) exists.
  bool Has(int ceil_r) const;

  /// Writes the label file. Transient failures (IO errors, short writes)
  /// are retried up to two more times with jittered exponential backoff;
  /// each re-attempt bumps the `labels.retry_attempts` counter, and a run
  /// that never succeeds bumps `labels.retry_exhausted`.
  Status Save(int ceil_r, const LabelSet& labels);

  /// Loads and validates against the dataset shape (object count and
  /// per-object point counts must match exactly). Retries IO errors and
  /// corruption (a short read is indistinguishable from a concurrent
  /// writer) with the same bounded backoff as Save; NotFound is returned
  /// immediately.
  Result<LabelSet> Load(int ceil_r, const ObjectSet& expected_shape) const;

  /// One attempt at reading `path` as the label file for `ceil_r`,
  /// validated against `expected_shape` — the reader Load retries.
  static Result<LabelSet> ReadFile(const std::string& path, int ceil_r,
                                   const ObjectSet& expected_shape);

  /// Removes the label file for one ceil(r) (no-op if absent). The engine
  /// uses this to evict a corrupt file so the next query rewrites it.
  void Remove(int ceil_r);

  /// Removes every stored label file.
  void Clear();

  std::string PathFor(int ceil_r) const;
  const std::string& dir() const { return dir_; }

 private:
  Status SaveOnce(int ceil_r, const LabelSet& labels);

  std::string dir_;
};

}  // namespace mio
