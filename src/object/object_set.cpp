#include "object/object_set.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

namespace mio {

std::string DatasetStats::ToString() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "n=%zu m=%.1f nm=%zu min_points=%zu max_points=%zu", n, m, nm,
                min_points, max_points);
  return buf;
}

ObjectId ObjectSet::Add(Object obj) {
  objects_.push_back(std::move(obj));
  return static_cast<ObjectId>(objects_.size() - 1);
}

DatasetStats ObjectSet::Stats() const {
  DatasetStats s;
  s.n = objects_.size();
  if (s.n == 0) return s;
  s.min_points = objects_[0].NumPoints();
  for (const Object& o : objects_) {
    s.nm += o.NumPoints();
    s.min_points = std::min(s.min_points, o.NumPoints());
    s.max_points = std::max(s.max_points, o.NumPoints());
  }
  s.m = static_cast<double>(s.nm) / static_cast<double>(s.n);
  return s;
}

Aabb ObjectSet::Bounds() const {
  Aabb box;
  for (const Object& o : objects_) {
    for (const Point& p : o.points) box.Extend(p);
  }
  return box;
}

std::size_t ObjectSet::MemoryUsageBytes() const {
  std::size_t bytes = objects_.capacity() * sizeof(Object);
  for (const Object& o : objects_) {
    bytes += o.points.capacity() * sizeof(Point);
    bytes += o.times.capacity() * sizeof(double);
  }
  return bytes;
}

bool ObjectSet::IsPlanar() const {
  bool seen = false;
  double z0 = 0.0;
  for (const Object& o : objects_) {
    for (const Point& p : o.points) {
      if (!seen) {
        z0 = p.z;
        seen = true;
      } else if (p.z != z0) {
        return false;
      }
    }
  }
  return seen;
}

CoordRange ObjectSet::CoordinateRange() const {
  // Branch-free: NaN and ±inf fail `<= max()`, and NaN never wins a max.
  constexpr double kMaxFinite = std::numeric_limits<double>::max();
  CoordRange range;
  for (const Object& o : objects_) {
    for (const Point& p : o.points) {
      const double ax = std::fabs(p.x);
      const double ay = std::fabs(p.y);
      const double az = std::fabs(p.z);
      range.finite &=
          (ax <= kMaxFinite) & (ay <= kMaxFinite) & (az <= kMaxFinite);
      range.max_abs = std::max(range.max_abs, std::max(ax, std::max(ay, az)));
    }
  }
  return range;
}

double ObjectSet::MaxTime() const {
  double mx = 0.0;
  for (const Object& o : objects_) {
    for (double t : o.times) mx = std::max(mx, t);
  }
  return mx;
}

}  // namespace mio
