#include "io/importers.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <unordered_map>

#include "common/fault_injection.hpp"

namespace mio {

// ---------------------------------------------------------------------------
// SWC
// ---------------------------------------------------------------------------

Result<Object> LoadSwcFile(const std::string& path) {
  std::ifstream in(path);
  if (!in || MIO_FAULT_HIT("io.import.open")) {
    return Status::IOError("cannot open SWC file: " + path);
  }

  Object obj;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    // Trim leading whitespace; skip blanks and comments.
    std::size_t start = line.find_first_not_of(" \t\r");
    if (start == std::string::npos || line[start] == '#') continue;
    std::istringstream ls(line.substr(start));
    long id = 0;
    int type = 0;
    Point p;
    double radius = 0.0;
    long parent = 0;
    ls >> id >> type >> p.x >> p.y >> p.z >> radius >> parent;
    if (!ls) {
      return Status::Corruption(path + ":" + std::to_string(lineno) +
                                ": malformed SWC sample line");
    }
    obj.points.push_back(p);
  }
  if (obj.points.empty()) {
    return Status::Corruption("no sample points in SWC file: " + path);
  }
  return obj;
}

Result<ObjectSet> LoadSwcDirectory(const std::string& dir) {
  std::error_code ec;
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.path().extension() == ".swc") files.push_back(entry.path());
  }
  if (ec) return Status::IOError("cannot list directory: " + dir);
  if (files.empty()) return Status::NotFound("no .swc files under " + dir);
  std::sort(files.begin(), files.end());

  ObjectSet set;
  for (const auto& file : files) {
    Result<Object> obj = LoadSwcFile(file.string());
    if (!obj.ok()) return obj.status();
    set.Add(std::move(obj).value());
  }
  return set;
}

// ---------------------------------------------------------------------------
// Trajectory CSV
// ---------------------------------------------------------------------------

namespace {

std::vector<std::string> SplitLine(const std::string& line, char delim) {
  std::vector<std::string> out;
  std::string field;
  std::stringstream ss(line);
  while (std::getline(ss, field, delim)) {
    // Trim surrounding whitespace/CR.
    std::size_t b = field.find_first_not_of(" \t\r");
    std::size_t e = field.find_last_not_of(" \t\r");
    out.push_back(b == std::string::npos ? "" : field.substr(b, e - b + 1));
  }
  return out;
}

/// A numeric CSV field: the whole (trimmed) field must be one finite
/// number — no trailing text, no NaN or infinity.
bool ParseFiniteField(const std::string& field, double* out) {
  char* end = nullptr;
  *out = std::strtod(field.c_str(), &end);
  return end != field.c_str() && *end == '\0' && std::isfinite(*out);
}

}  // namespace

Result<ObjectSet> LoadTrajectoryCsv(const std::string& path,
                                    const TrajectoryCsvOptions& options) {
  std::ifstream in(path);
  if (!in || MIO_FAULT_HIT("io.import.open")) {
    return Status::IOError("cannot open CSV file: " + path);
  }

  std::string line;
  if (!std::getline(in, line)) return Status::Corruption("empty CSV: " + path);

  // Resolve column indices from the header.
  std::vector<std::string> header = SplitLine(line, options.delimiter);
  auto column = [&](const std::string& name) -> int {
    for (std::size_t i = 0; i < header.size(); ++i) {
      if (header[i] == name) return static_cast<int>(i);
    }
    return -1;
  };
  int id_col = column(options.id_column);
  int x_col = column(options.x_column);
  int y_col = column(options.y_column);
  int z_col = options.z_column.empty() ? -1 : column(options.z_column);
  int t_col = options.time_column.empty() ? -1 : column(options.time_column);
  if (id_col < 0 || x_col < 0 || y_col < 0) {
    return Status::InvalidArgument("missing id/x/y column in " + path);
  }
  if (!options.z_column.empty() && z_col < 0) {
    return Status::InvalidArgument("z column '" + options.z_column +
                                   "' not found in " + path);
  }
  if (!options.time_column.empty() && t_col < 0) {
    return Status::InvalidArgument("time column '" + options.time_column +
                                   "' not found in " + path);
  }

  // Group fixes by id, preserving row order within each track and the
  // first-appearance order of the tracks themselves.
  std::vector<std::string> track_order;
  std::unordered_map<std::string, Object> tracks;
  std::size_t lineno = 1;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    std::vector<std::string> fields = SplitLine(line, options.delimiter);
    int max_needed = std::max({id_col, x_col, y_col, z_col, t_col});
    if (static_cast<int>(fields.size()) <= max_needed) {
      return Status::Corruption(path + ":" + std::to_string(lineno) +
                                ": too few columns");
    }
    const std::string& id = fields[id_col];
    auto [it, inserted] = tracks.try_emplace(id);
    if (inserted) track_order.push_back(id);

    Point p;
    double time = 0.0;
    const struct {
      int col;
      const char* name;
      double* value;
    } numeric[] = {{x_col, "x", &p.x},
                   {y_col, "y", &p.y},
                   {z_col, "z", &p.z},
                   {t_col, "time", &time}};
    for (const auto& f : numeric) {
      if (f.col >= 0 && !ParseFiniteField(fields[f.col], f.value)) {
        return Status::Corruption(path + ":" + std::to_string(lineno) +
                                  ": bad " + f.name + " value");
      }
    }
    it->second.points.push_back(p);
    if (t_col >= 0) it->second.times.push_back(time);
  }

  ObjectSet set;
  for (const std::string& id : track_order) {
    Object& track = tracks[id];
    std::size_t cap = options.max_points_per_object;
    if (cap == 0 || track.points.size() <= cap) {
      set.Add(std::move(track));
      continue;
    }
    // The paper's preparation: divide long trajectories into ~m-point
    // sub-trajectories, each becoming its own object.
    for (std::size_t begin = 0; begin < track.points.size(); begin += cap) {
      std::size_t end = std::min(begin + cap, track.points.size());
      Object piece;
      piece.points.assign(track.points.begin() + begin,
                          track.points.begin() + end);
      if (!track.times.empty()) {
        piece.times.assign(track.times.begin() + begin,
                           track.times.begin() + end);
      }
      set.Add(std::move(piece));
    }
  }
  if (set.empty()) return Status::Corruption("no data rows in " + path);
  return set;
}

}  // namespace mio
