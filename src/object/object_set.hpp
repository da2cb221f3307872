// The object collection O: memory-resident and static (paper §II-A).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "geo/aabb.hpp"
#include "geo/cell_key.hpp"
#include "object/object.hpp"

namespace mio {

/// Summary statistics in the paper's notation (Table I).
struct DatasetStats {
  std::size_t n = 0;        ///< number of objects
  double m = 0.0;           ///< average points per object
  std::size_t nm = 0;       ///< total number of points
  std::size_t min_points = 0;
  std::size_t max_points = 0;

  std::string ToString() const;
};

/// An immutable-after-build collection of objects. Object i's id is i.
class ObjectSet {
 public:
  ObjectSet() = default;

  /// Appends an object and returns its id.
  ObjectId Add(Object obj);

  std::size_t size() const { return objects_.size(); }
  bool empty() const { return objects_.empty(); }

  const Object& operator[](ObjectId id) const { return objects_[id]; }
  const std::vector<Object>& objects() const { return objects_; }

  /// n, m, nm and min/max object sizes.
  DatasetStats Stats() const;

  /// Bounding box over every point of every object.
  Aabb Bounds() const;

  /// Total heap bytes held by the point arrays.
  std::size_t MemoryUsageBytes() const;

  /// Whether every coordinate is finite, and the largest |coordinate|:
  /// the dataset half of CheckQueryDomain. One pass over the points.
  CoordRange CoordinateRange() const;

  /// Maximum timestamp across all objects (0 when untimestamped).
  double MaxTime() const;

  /// True iff every point shares one z coordinate (a 2-D dataset such as
  /// planar trajectories) — enables the tighter 2-D small grid.
  bool IsPlanar() const;

 private:
  std::vector<Object> objects_;
};

}  // namespace mio
