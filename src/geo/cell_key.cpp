#include "geo/cell_key.hpp"

#include <cstdio>
#include <limits>

namespace mio {

Status CheckQueryDomain(double r, const CoordRange& coords,
                        std::initializer_list<double> widths) {
  if (!(r > 0.0 && std::isfinite(r))) {
    return Status::InvalidArgument("radius must be finite and > 0, got " +
                                   std::to_string(r));
  }
  if (!coords.finite) {
    return Status::InvalidArgument("dataset has a non-finite coordinate");
  }
  // Negated form: a NaN quotient (an underflowed width over all-zero
  // coordinates) fails too.
  constexpr double kMaxKey = std::numeric_limits<std::int32_t>::max();
  for (double width : widths) {
    if (!(std::floor(coords.max_abs / width) + 1.0 <= kMaxKey)) {
      return Status::InvalidArgument(
          "radius " + std::to_string(r) +
          " too small for the coordinate range: grid cell keys overflow "
          "int32");
    }
  }
  return Status::OK();
}

std::string CellKey::ToString() const {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "(%d,%d,%d)", x, y, z);
  return buf;
}

}  // namespace mio
