// Point labels (paper Definition 4 and §III-D). A label is three bits per
// point, initialised to 111, recorded while processing an MIO query with
// threshold r and valid for every future query with the same ceil(r)
// (the large grid is identical for all such thresholds — that is why the
// large-grid width is the ceiling):
//
//   bit kMap    (paper "Labeling-1", pattern 0**): the point's large cell
//     held no other object (|b_adj| = 1) — the point can be skipped in
//     grid mapping entirely (Lemma 3).
//   bit kUpper  (paper "Labeling-2", pattern 10*): the point's OR into
//     b(o_i) changed nothing during upper-bounding (Observation 2) — skip
//     it in future upper-bounding.
//   bit kVerify (paper "Labeling-3", pattern 1*0): the point confirmed
//     no partner in verification (Observation 3) — skip it in future
//     verification. A scan that decided every object keeps the bit only
//     on its witnesses, the points that confirmed a partner; a scan
//     stopped on the top-k threshold keeps it on every point.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "object/object_set.hpp"

namespace mio {

namespace label {
inline constexpr std::uint8_t kMap = 1u << 0;
inline constexpr std::uint8_t kUpper = 1u << 1;
inline constexpr std::uint8_t kVerify = 1u << 2;
inline constexpr std::uint8_t kAll = kMap | kUpper | kVerify;
}  // namespace label

// Validity note (verified by this implementation's cross-radius tests):
// Labeling-1 and Labeling-2 are properties of the large grid alone, so
// they hold for every query sharing ceil(r). Labeling-3, however, is a
// property of the *run*: it marks points whose whole neighbourhood was
// already confirmed at the recorded threshold — at a different r' the
// confirmations happen through different point pairs, and a skipped point
// can be the only witness of an interaction. The kVerify bit is therefore
// honoured only when the query radius equals the recorded radius
// (`recorded_r`); kMap and kUpper transfer to the whole ceiling class.

/// Labels for every point of every object, for one ceil(r) value.
struct LabelSet {
  /// labels[i][j] is the label of point j of object i.
  std::vector<std::vector<std::uint8_t>> labels;

  /// The exact threshold the labels were recorded at; the kVerify bit is
  /// only applicable to queries with this r.
  double recorded_r = 0.0;

  bool empty() const { return labels.empty(); }

  /// Label of point j of object i (kAll when the set is empty).
  std::uint8_t Get(ObjectId i, std::size_t j) const {
    if (labels.empty()) return label::kAll;
    return labels[i][j];
  }

  /// All-ones labels shaped like `objects`.
  static LabelSet MakeAllOnes(const ObjectSet& objects);

  /// Number of points whose kMap bit is cleared (prunable everywhere).
  std::size_t CountMapPruned() const;
  /// Number of points with any bit cleared.
  std::size_t CountAnyPruned() const;

  std::size_t MemoryUsageBytes() const;
};

}  // namespace mio
