#include "io/dataset_io.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include "common/fault_injection.hpp"

namespace mio {
namespace {

constexpr char kBinaryMagic[4] = {'M', 'I', 'O', 'D'};
constexpr std::uint32_t kBinaryVersion = 1;

std::uint64_t Fnv1a(const void* data, std::size_t len, std::uint64_t seed) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = seed;
  for (std::size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

constexpr std::uint64_t kFnvOffset = 14695981039346656037ULL;

/// Upper bound on a single reserve() taken on faith from a declared count
/// in a text file (which has no up-front size accounting like the binary
/// format): larger declared counts still load, they just grow the vector
/// incrementally instead of pre-reserving unbounded memory.
constexpr std::size_t kMaxTrustedReserve = 1u << 20;

}  // namespace

// ---------------------------------------------------------------------------
// Text
// ---------------------------------------------------------------------------

Status SaveDatasetText(const ObjectSet& objects, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open for write: " + path);
  bool has_times = false;
  for (const Object& o : objects.objects()) {
    if (o.HasTimes()) {
      has_times = true;
      break;
    }
  }
  out << "mio-dataset v1 " << objects.size() << " " << (has_times ? 1 : 0)
      << "\n";
  out.precision(17);
  for (const Object& o : objects.objects()) {
    out << "object " << o.points.size() << "\n";
    for (std::size_t j = 0; j < o.points.size(); ++j) {
      out << o.points[j].x << " " << o.points[j].y << " " << o.points[j].z;
      if (has_times) out << " " << (o.HasTimes() ? o.times[j] : 0.0);
      out << "\n";
    }
  }
  if (!out) return Status::IOError("write failed: " + path);
  return Status::OK();
}

Result<ObjectSet> LoadDatasetText(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open for read: " + path);

  std::string line;
  auto next_content_line = [&](std::string* out_line) -> bool {
    while (std::getline(in, *out_line)) {
      if (!out_line->empty() && (*out_line)[0] != '#') return true;
    }
    return false;
  };

  if (!next_content_line(&line)) {
    return Status::Corruption("empty dataset file: " + path);
  }
  std::istringstream header(line);
  std::string magic, version;
  std::size_t n = 0;
  int has_times = 0;
  header >> magic >> version >> n >> has_times;
  if (magic != "mio-dataset" || version != "v1") {
    return Status::Corruption("bad header in " + path + ": " + line);
  }

  ObjectSet set;
  for (std::size_t i = 0; i < n; ++i) {
    if (!next_content_line(&line)) {
      return Status::Corruption("truncated dataset (object header)");
    }
    std::istringstream oh(line);
    std::string tag;
    std::size_t num_points = 0;
    oh >> tag >> num_points;
    if (tag != "object") {
      return Status::Corruption("expected object header, got: " + line);
    }
    Object obj;
    obj.points.reserve(std::min(num_points, kMaxTrustedReserve));
    if (has_times) obj.times.reserve(std::min(num_points, kMaxTrustedReserve));
    for (std::size_t j = 0; j < num_points; ++j) {
      if (!next_content_line(&line)) {
        return Status::Corruption("truncated dataset (points)");
      }
      std::istringstream ps(line);
      Point p;
      double t = 0.0;
      ps >> p.x >> p.y >> p.z;
      if (has_times) ps >> t;
      if (!ps) return Status::Corruption("bad point line: " + line);
      if (has_times) obj.times.push_back(t);
      obj.points.push_back(p);
    }
    set.Add(std::move(obj));
  }
  return set;
}

// ---------------------------------------------------------------------------
// Binary
// ---------------------------------------------------------------------------

Status SaveDatasetBinary(const ObjectSet& objects, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IOError("cannot open for write: " + path);

  std::uint64_t checksum = kFnvOffset;
  auto write = [&](const void* data, std::size_t len) {
    if (MIO_FAULT_HIT("io.dataset.write")) out.setstate(std::ios::failbit);
    out.write(static_cast<const char*>(data), static_cast<std::streamsize>(len));
    checksum = Fnv1a(data, len, checksum);
  };

  out.write(kBinaryMagic, 4);
  std::uint32_t version = kBinaryVersion;
  write(&version, sizeof(version));
  std::uint64_t n = objects.size();
  write(&n, sizeof(n));
  std::uint8_t has_times = 0;
  for (const Object& o : objects.objects()) {
    if (o.HasTimes()) has_times = 1;
  }
  write(&has_times, sizeof(has_times));
  for (const Object& o : objects.objects()) {
    std::uint64_t num_points = o.points.size();
    write(&num_points, sizeof(num_points));
    write(o.points.data(), o.points.size() * sizeof(Point));
    if (has_times) {
      std::vector<double> times = o.times;
      times.resize(o.points.size(), 0.0);
      write(times.data(), times.size() * sizeof(double));
    }
  }
  out.write(reinterpret_cast<const char*>(&checksum), sizeof(checksum));
  if (!out) return Status::IOError("write failed: " + path);
  return Status::OK();
}

Result<ObjectSet> LoadDatasetBinary(const std::string& path) {
  // Stat the file up front: every declared count below is validated
  // against the bytes actually present BEFORE any allocation sized by it,
  // so a corrupt header cannot drive an unbounded resize.
  std::error_code ec;
  const std::uint64_t file_size =
      static_cast<std::uint64_t>(std::filesystem::file_size(path, ec));
  if (ec) return Status::IOError("cannot stat: " + path);

  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open for read: " + path);

  char magic[4];
  in.read(magic, 4);
  if (!in || std::memcmp(magic, kBinaryMagic, 4) != 0) {
    return Status::Corruption("bad magic in " + path);
  }

  std::uint64_t consumed = 4;  // magic
  std::uint64_t checksum = kFnvOffset;
  auto read = [&](void* data, std::size_t len) -> bool {
    if (MIO_FAULT_HIT("io.dataset.read")) return false;  // simulated EIO
    in.read(static_cast<char*>(data), static_cast<std::streamsize>(len));
    if (!in) return false;
    consumed += len;
    checksum = Fnv1a(data, len, checksum);
    return true;
  };
  // Payload bytes left before the 8-byte checksum trailer.
  auto remaining = [&]() -> std::uint64_t {
    const std::uint64_t used = consumed + sizeof(std::uint64_t);
    return file_size > used ? file_size - used : 0;
  };

  std::uint32_t version = 0;
  std::uint64_t n = 0;
  std::uint8_t has_times = 0;
  if (!read(&version, sizeof(version)) || version != kBinaryVersion) {
    return Status::Corruption("unsupported version in " + path);
  }
  if (!read(&n, sizeof(n)) || !read(&has_times, sizeof(has_times))) {
    return Status::Corruption("truncated header in " + path);
  }
  // Each object costs at least its 8-byte point-count header.
  if (n > remaining() / sizeof(std::uint64_t)) {
    return Status::Corruption("declared object count " + std::to_string(n) +
                              " exceeds file size in " + path);
  }

  const std::uint64_t bytes_per_point =
      sizeof(Point) + (has_times ? sizeof(double) : 0);
  ObjectSet set;
  for (std::uint64_t i = 0; i < n; ++i) {
    std::uint64_t num_points = 0;
    if (!read(&num_points, sizeof(num_points))) {
      return Status::Corruption("truncated object header in " + path);
    }
    if (num_points > remaining() / bytes_per_point) {
      return Status::Corruption(
          "declared point count " + std::to_string(num_points) +
          " exceeds remaining file size in " + path);
    }
    Object obj;
    obj.points.resize(num_points);
    if (!read(obj.points.data(), num_points * sizeof(Point))) {
      return Status::Corruption("truncated points in " + path);
    }
    if (has_times) {
      obj.times.resize(num_points);
      if (!read(obj.times.data(), num_points * sizeof(double))) {
        return Status::Corruption("truncated times in " + path);
      }
    }
    set.Add(std::move(obj));
  }
  std::uint64_t stored = 0;
  in.read(reinterpret_cast<char*>(&stored), sizeof(stored));
  if (!in) return Status::Corruption("truncated checksum trailer in " + path);
  if (stored != checksum) {
    return Status::Corruption("checksum mismatch in " + path);
  }
  // The text loader and the importers refuse NaN and infinities; a
  // checksum only says the bytes are the ones written.
  bool finite_times = true;
  for (const Object& o : set.objects()) {
    for (double t : o.times) finite_times &= std::isfinite(t);
  }
  if (!set.CoordinateRange().finite || !finite_times) {
    return Status::Corruption("non-finite coordinate or time in " + path);
  }
  return set;
}

}  // namespace mio
