// Grid cell keys. A BIGrid cell key is the integer lattice coordinate of a
// point at a given cell width (paper Defs. 2-3): small-grid width r/sqrt(3)
// (two points in one cell are certainly within r — the cell diagonal is
// exactly r), large-grid width ceil(r) (points within r of a cell lie in
// the cell or its 26 neighbours; the ceiling makes the large grid shareable
// across every query with the same ceil(r), enabling the label reuse of
// §III-D).
#pragma once

#include <cmath>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <string>

#include "common/status.hpp"
#include "geo/point.hpp"

namespace mio {

/// Integer lattice coordinate of a grid cell.
struct CellKey {
  std::int32_t x = 0;
  std::int32_t y = 0;
  std::int32_t z = 0;

  bool operator==(const CellKey& o) const {
    return x == o.x && y == o.y && z == o.z;
  }
  bool operator<(const CellKey& o) const {
    if (x != o.x) return x < o.x;
    if (y != o.y) return y < o.y;
    return z < o.z;
  }

  std::string ToString() const;
};

/// Hash functor for CellKey (64-bit mix of the three lattice coords).
struct CellKeyHash {
  std::size_t operator()(const CellKey& k) const {
    // Fibonacci-style 64-bit mixing of the packed coordinates.
    std::uint64_t h = (std::uint64_t(std::uint32_t(k.x)) << 32) ^
                      (std::uint64_t(std::uint32_t(k.y)) << 16) ^
                      std::uint64_t(std::uint32_t(k.z));
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    h *= 0xc4ceb9fe1a85ec53ULL;
    h ^= h >> 33;
    return static_cast<std::size_t>(h);
  }
};

/// Cell key of `p` at cell width `width` (floor lattice mapping).
inline CellKey KeyForWidth(const Point& p, double width) {
  return CellKey{static_cast<std::int32_t>(std::floor(p.x / width)),
                 static_cast<std::int32_t>(std::floor(p.y / width)),
                 static_cast<std::int32_t>(std::floor(p.z / width))};
}

/// Small-grid cell width for threshold r: r / sqrt(3) (paper Def. 2).
inline double SmallGridWidth(double r) { return r / std::sqrt(3.0); }

/// Small-grid cell width for planar (2-D, constant-z) data: r / sqrt(2).
/// The cell diagonal in the occupied plane is then exactly r, so the
/// same-cell-implies-interacting guarantee holds with larger (tighter
/// lower-bounding) cells — the straightforward 2-D treatment the paper's
/// footnote 1 leaves to the reader.
inline double SmallGridWidth2D(double r) { return r / std::sqrt(2.0); }

/// Large-grid cell width for threshold r: ceil(r) (paper Def. 3). For
/// sub-unit thresholds ceil(r) would still be 1, which the definition
/// intends (any r in (0,1] shares the width-1 grid).
inline double LargeGridWidth(double r) { return std::ceil(r); }

/// What the query-domain check needs to know about a dataset's points
/// (ObjectSet::CoordinateRange()).
struct CoordRange {
  bool finite = true;    ///< no NaN or infinite coordinate
  double max_abs = 0.0;  ///< largest |coordinate|
};

/// The domain check every query path runs before it maps a point: r
/// finite and > 0, every coordinate finite, and, for each grid width the
/// caller builds (`widths`), floor(max|coordinate| / width) + 1 within
/// int32 — KeyForWidth casts floor(c / width) to int32 and the neighbour
/// walk adds ±1, so both sides of the lattice need one cell of headroom.
/// kInvalidArgument otherwise, so no key is ever cast out of range.
Status CheckQueryDomain(double r, const CoordRange& coords,
                        std::initializer_list<double> widths = {});

/// Invokes f(key) for the 26 neighbours of k, and for k itself when
/// `include_self`. Deterministic (z-fastest) order: label replay and
/// parallel partitioning rely on a stable enumeration.
template <typename F>
void ForEachNeighbor(const CellKey& k, bool include_self, F&& f) {
  for (std::int32_t dx = -1; dx <= 1; ++dx) {
    for (std::int32_t dy = -1; dy <= 1; ++dy) {
      for (std::int32_t dz = -1; dz <= 1; ++dz) {
        if (!include_self && dx == 0 && dy == 0 && dz == 0) continue;
        f(CellKey{k.x + dx, k.y + dy, k.z + dz});
      }
    }
  }
}

/// Number of cells in a 3-D Moore neighbourhood including the centre.
inline constexpr int kNeighborhoodSize = 27;

}  // namespace mio
