#include "io/label_store.hpp"

#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <random>
#include <thread>

#include "common/fault_injection.hpp"
#include "obs/metrics.hpp"

namespace mio {
namespace {

constexpr char kMagic[4] = {'M', 'I', 'O', 'L'};
constexpr std::uint32_t kVersion = 2;
constexpr std::uint64_t kFnvOffset = 14695981039346656037ULL;

// Label IO shares disks with other tenants, so a failed read/write is
// retried a bounded number of times with exponential backoff. The jitter
// decorrelates concurrent retriers (each query process backs off on its
// own clock-seeded stream).
constexpr int kIoAttempts = 3;
constexpr auto kBackoffBase = std::chrono::milliseconds(1);

void BackoffSleep(int attempt) {
  thread_local std::minstd_rand rng(static_cast<std::uint32_t>(
      std::chrono::steady_clock::now().time_since_epoch().count()));
  auto base = kBackoffBase * (1 << attempt);
  std::uniform_int_distribution<std::int64_t> jitter(0, base.count());
  std::this_thread::sleep_for(base + std::chrono::milliseconds(jitter(rng)));
}

/// True for failures worth retrying: transient IO errors and short reads
/// (which surface as Corruption). NotFound is definitive — no file will
/// appear by waiting.
bool Retryable(const Status& s) {
  return s.code() == StatusCode::kIOError ||
         s.code() == StatusCode::kCorruption;
}

std::uint64_t Fnv1a(const void* data, std::size_t len, std::uint64_t seed) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = seed;
  for (std::size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace

LabelStore::LabelStore(std::string dir) : dir_(std::move(dir)) {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
}

std::string LabelStore::PathFor(int ceil_r) const {
  return dir_ + "/labels_" + std::to_string(ceil_r) + ".bin";
}

bool LabelStore::Has(int ceil_r) const {
  std::error_code ec;
  return std::filesystem::exists(PathFor(ceil_r), ec);
}

Status LabelStore::SaveOnce(int ceil_r, const LabelSet& labels) {
  std::string path = PathFor(ceil_r);
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IOError("cannot open for write: " + path);

  std::uint64_t checksum = kFnvOffset;
  auto write = [&](const void* data, std::size_t len) {
    if (MIO_FAULT_HIT("io.label.write")) out.setstate(std::ios::failbit);
    out.write(static_cast<const char*>(data),
              static_cast<std::streamsize>(len));
    checksum = Fnv1a(data, len, checksum);
  };

  out.write(kMagic, 4);
  std::uint32_t version = kVersion;
  write(&version, sizeof(version));
  std::uint32_t rc = static_cast<std::uint32_t>(ceil_r);
  write(&rc, sizeof(rc));
  double recorded_r = labels.recorded_r;
  write(&recorded_r, sizeof(recorded_r));
  std::uint64_t n = labels.labels.size();
  write(&n, sizeof(n));
  for (const auto& obj : labels.labels) {
    std::uint64_t num_points = obj.size();
    write(&num_points, sizeof(num_points));
    write(obj.data(), obj.size());
  }
  out.write(reinterpret_cast<const char*>(&checksum), sizeof(checksum));
  if (!out) return Status::IOError("write failed: " + path);
  return Status::OK();
}

Result<LabelSet> LabelStore::ReadFile(const std::string& path, int ceil_r,
                                      const ObjectSet& expected_shape) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("no label file: " + path);

  char magic[4];
  in.read(magic, 4);
  if (!in || std::memcmp(magic, kMagic, 4) != 0) {
    return Status::Corruption("bad magic in " + path);
  }

  std::uint64_t checksum = kFnvOffset;
  auto read = [&](void* data, std::size_t len) -> bool {
    if (MIO_FAULT_HIT("io.label.read")) return false;  // simulated short read
    in.read(static_cast<char*>(data), static_cast<std::streamsize>(len));
    if (!in) return false;
    checksum = Fnv1a(data, len, checksum);
    return true;
  };

  std::uint32_t version = 0;
  std::uint32_t rc = 0;
  std::uint64_t n = 0;
  if (!read(&version, sizeof(version)) || version != kVersion) {
    return Status::Corruption("unsupported label version in " + path);
  }
  if (!read(&rc, sizeof(rc)) || rc != static_cast<std::uint32_t>(ceil_r)) {
    return Status::Corruption("ceil(r) mismatch in " + path);
  }
  double recorded_r = 0.0;
  if (!read(&recorded_r, sizeof(recorded_r))) {
    return Status::Corruption("truncated recorded_r in " + path);
  }
  if (!read(&n, sizeof(n)) || n != expected_shape.size()) {
    return Status::Corruption("object count mismatch in " + path);
  }

  LabelSet set;
  set.recorded_r = recorded_r;
  set.labels.resize(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    std::uint64_t num_points = 0;
    if (!read(&num_points, sizeof(num_points)) ||
        num_points != expected_shape[static_cast<ObjectId>(i)].NumPoints()) {
      return Status::Corruption("point count mismatch in " + path);
    }
    set.labels[i].resize(num_points);
    if (!read(set.labels[i].data(), num_points)) {
      return Status::Corruption("truncated labels in " + path);
    }
  }
  std::uint64_t stored = 0;
  in.read(reinterpret_cast<char*>(&stored), sizeof(stored));
  if (!in || stored != checksum) {
    return Status::Corruption("checksum mismatch in " + path);
  }
  return set;
}

Status LabelStore::Save(int ceil_r, const LabelSet& labels) {
  Status s = SaveOnce(ceil_r, labels);
  for (int attempt = 0; Retryable(s) && attempt < kIoAttempts - 1; ++attempt) {
    obs::Add(obs::Counter::kLabelRetryAttempts);
    BackoffSleep(attempt);
    s = SaveOnce(ceil_r, labels);
  }
  if (Retryable(s)) obs::Add(obs::Counter::kLabelRetryExhausted);
  return s;
}

Result<LabelSet> LabelStore::Load(int ceil_r,
                                  const ObjectSet& expected_shape) const {
  Result<LabelSet> r = ReadFile(PathFor(ceil_r), ceil_r, expected_shape);
  for (int attempt = 0;
       !r.ok() && Retryable(r.status()) && attempt < kIoAttempts - 1;
       ++attempt) {
    obs::Add(obs::Counter::kLabelRetryAttempts);
    BackoffSleep(attempt);
    r = ReadFile(PathFor(ceil_r), ceil_r, expected_shape);
  }
  if (!r.ok() && Retryable(r.status())) {
    obs::Add(obs::Counter::kLabelRetryExhausted);
  }
  return r;
}

void LabelStore::Remove(int ceil_r) {
  std::error_code ec;
  std::filesystem::remove(PathFor(ceil_r), ec);
}

void LabelStore::Clear() {
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir_, ec)) {
    if (entry.path().filename().string().rfind("labels_", 0) == 0) {
      std::filesystem::remove(entry.path(), ec);
    }
  }
}

}  // namespace mio
