// Round-trip, failure-injection and mutation-fuzz tests for dataset files
// and the external-memory label store.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <utility>

#include "core/labels.hpp"
#include "io/dataset_io.hpp"
#include "io/label_store.hpp"
#include "test_utils.hpp"

namespace mio {
namespace {

class IoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("mio_io_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  std::string PathFor(const std::string& name) {
    return (dir_ / name).string();
  }
  std::filesystem::path dir_;
};

void ExpectSameDataset(const ObjectSet& a, const ObjectSet& b) {
  ASSERT_EQ(a.size(), b.size());
  for (ObjectId i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].NumPoints(), b[i].NumPoints());
    for (std::size_t j = 0; j < a[i].points.size(); ++j) {
      EXPECT_DOUBLE_EQ(a[i].points[j].x, b[i].points[j].x);
      EXPECT_DOUBLE_EQ(a[i].points[j].y, b[i].points[j].y);
      EXPECT_DOUBLE_EQ(a[i].points[j].z, b[i].points[j].z);
    }
    ASSERT_EQ(a[i].times.size(), b[i].times.size());
    for (std::size_t j = 0; j < a[i].times.size(); ++j) {
      EXPECT_DOUBLE_EQ(a[i].times[j], b[i].times[j]);
    }
  }
}

TEST_F(IoTest, TextRoundTrip) {
  ObjectSet set = testing::MakeRandomObjects(10, 3, 8, 20.0, 1);
  std::string path = PathFor("data.txt");
  ASSERT_TRUE(SaveDatasetText(set, path).ok());
  Result<ObjectSet> loaded = LoadDatasetText(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectSameDataset(set, loaded.value());
}

TEST_F(IoTest, TextRoundTripWithTimes) {
  ObjectSet set = testing::MakeRandomObjects(5, 3, 5, 20.0, 2, 5.0, true);
  std::string path = PathFor("data_t.txt");
  ASSERT_TRUE(SaveDatasetText(set, path).ok());
  Result<ObjectSet> loaded = LoadDatasetText(path);
  ASSERT_TRUE(loaded.ok());
  ExpectSameDataset(set, loaded.value());
}

TEST_F(IoTest, BinaryRoundTrip) {
  ObjectSet set = testing::MakeRandomObjects(20, 2, 10, 30.0, 3, 5.0, true);
  std::string path = PathFor("data.bin");
  ASSERT_TRUE(SaveDatasetBinary(set, path).ok());
  Result<ObjectSet> loaded = LoadDatasetBinary(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectSameDataset(set, loaded.value());
}

TEST_F(IoTest, LoadMissingFileReportsIOError) {
  EXPECT_FALSE(LoadDatasetText(PathFor("absent.txt")).ok());
  EXPECT_FALSE(LoadDatasetBinary(PathFor("absent.bin")).ok());
}

TEST_F(IoTest, BinaryCorruptionDetected) {
  ObjectSet set = testing::MakeRandomObjects(5, 4, 4, 20.0, 4);
  std::string path = PathFor("corrupt.bin");
  ASSERT_TRUE(SaveDatasetBinary(set, path).ok());
  // Flip one byte in the middle of the payload.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(60);
    char byte = 0x5A;
    f.write(&byte, 1);
  }
  Result<ObjectSet> loaded = LoadDatasetBinary(path);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
}

TEST_F(IoTest, TextBadHeaderDetected) {
  std::string path = PathFor("bad.txt");
  std::ofstream(path) << "not-a-dataset at all\n";
  Result<ObjectSet> loaded = LoadDatasetText(path);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
}

TEST_F(IoTest, TextTruncationDetected) {
  std::string path = PathFor("trunc.txt");
  std::ofstream(path) << "mio-dataset v1 2 0\nobject 3\n1 2 3\n";
  EXPECT_FALSE(LoadDatasetText(path).ok());
}

// A timed file's point needs a finite time as it needs finite
// coordinates: a missing, nan, inf or overflowing time must not load as
// 0 or DBL_MAX.
TEST_F(IoTest, TextBadTimestampDetected) {
  for (const char* time : {"", " nan", " inf", " 1e999"}) {
    const std::string path = PathFor("bad_time.txt");
    std::ofstream(path) << "mio-dataset v1 1 1\nobject 2\n1 2 3 0\n1 2 4"
                        << time << "\n";
    Result<ObjectSet> loaded = LoadDatasetText(path);
    ASSERT_FALSE(loaded.ok()) << "time '" << time << "'";
    EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
    EXPECT_NE(loaded.status().message().find("1 2 4"), std::string::npos)
        << loaded.status().message();
  }
}

// A checksummed binary file is refused when it holds a NaN coordinate or
// an infinite time, as the text form of the same data is.
TEST_F(IoTest, BinaryNonFiniteValuesDetected) {
  const double inf = std::numeric_limits<double>::infinity();
  for (const auto& [x, t] : {std::pair{std::nan(""), 1.0}, {0.0, inf}}) {
    Object obj;
    obj.points = {Point{1.0, 2.0, 3.0}, Point{x, 0.0, 0.0}};
    obj.times = {0.0, t};
    ObjectSet set;
    set.Add(std::move(obj));
    const std::string path = PathFor("non_finite.bin");
    ASSERT_TRUE(SaveDatasetBinary(set, path).ok());
    Result<ObjectSet> loaded = LoadDatasetBinary(path);
    ASSERT_FALSE(loaded.ok()) << "x " << x << " t " << t;
    EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
  }
}

// --- label store -----------------------------------------------------------

TEST_F(IoTest, LabelStoreRoundTrip) {
  ObjectSet set = testing::MakeRandomObjects(8, 3, 6, 20.0, 5);
  LabelSet labels = LabelSet::MakeAllOnes(set);
  labels.labels[2][1] = label::kMap;          // some pruning happened
  labels.labels[5][0] &= ~label::kVerify;

  LabelStore store(PathFor("labels"));
  EXPECT_FALSE(store.Has(5));
  ASSERT_TRUE(store.Save(5, labels).ok());
  EXPECT_TRUE(store.Has(5));

  Result<LabelSet> loaded = store.Load(5, set);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().labels, labels.labels);
}

TEST_F(IoTest, LabelStoreShapeMismatchRejected) {
  ObjectSet set = testing::MakeRandomObjects(8, 3, 6, 20.0, 6);
  LabelSet labels = LabelSet::MakeAllOnes(set);
  LabelStore store(PathFor("labels2"));
  ASSERT_TRUE(store.Save(7, labels).ok());

  ObjectSet other = testing::MakeRandomObjects(9, 3, 6, 20.0, 7);
  Result<LabelSet> loaded = store.Load(7, other);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
}

TEST_F(IoTest, LabelStoreCorruptionDetected) {
  ObjectSet set = testing::MakeRandomObjects(4, 5, 5, 20.0, 8);
  LabelSet labels = LabelSet::MakeAllOnes(set);
  LabelStore store(PathFor("labels3"));
  ASSERT_TRUE(store.Save(3, labels).ok());
  {
    // Flip (not overwrite) a payload byte so the change is guaranteed to
    // differ from the original regardless of file layout.
    std::fstream f(store.PathFor(3),
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(40);
    char byte = 0;
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x5A);
    f.seekp(40);
    f.write(&byte, 1);
  }
  EXPECT_FALSE(store.Load(3, set).ok());
}

TEST_F(IoTest, LabelStoreClearRemovesFiles) {
  ObjectSet set = testing::MakeRandomObjects(3, 2, 2, 10.0, 9);
  LabelStore store(PathFor("labels4"));
  ASSERT_TRUE(store.Save(4, LabelSet::MakeAllOnes(set)).ok());
  ASSERT_TRUE(store.Save(8, LabelSet::MakeAllOnes(set)).ok());
  store.Clear();
  EXPECT_FALSE(store.Has(4));
  EXPECT_FALSE(store.Has(8));
}

TEST_F(IoTest, LabelStoreKeysAreIndependent) {
  ObjectSet set = testing::MakeRandomObjects(3, 2, 2, 10.0, 10);
  LabelSet l4 = LabelSet::MakeAllOnes(set);
  LabelSet l5 = LabelSet::MakeAllOnes(set);
  l5.labels[0][0] = 0;
  LabelStore store(PathFor("labels5"));
  ASSERT_TRUE(store.Save(4, l4).ok());
  ASSERT_TRUE(store.Save(5, l5).ok());
  EXPECT_EQ(store.Load(4, set).value().labels, l4.labels);
  EXPECT_EQ(store.Load(5, set).value().labels, l5.labels);
}

// --- fuzzing ----------------------------------------------------------------
// One deterministic PCG32 mutation loop per reader: every input either
// loads — and then keeps the loaded-set contract — or fails with a typed
// Status, never a crash, bad_alloc or sanitizer report. The robustness
// stage of scripts/check.sh runs these under ASan and UBSan.

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream(path, std::ios::binary) << bytes;
}

/// Re-seals a mutated "MIOD"/"MIOL" file: the FNV-1a of everything
/// between the 4-byte magic and the 8-byte trailer goes into the trailer,
/// so the mutation reaches the code behind the checksum.
void ResealFnv1aTrailer(std::string* bytes) {
  if (bytes->size() < 12) return;
  std::uint64_t h = 14695981039346656037ULL;
  for (std::size_t i = 4; i < bytes->size() - 8; ++i) {
    h ^= static_cast<unsigned char>((*bytes)[i]);
    h *= 1099511628211ULL;
  }
  std::memcpy(&(*bytes)[bytes->size() - 8], &h, sizeof(h));
}

/// Each object's times are absent or one per point, and every loaded
/// coordinate and time is finite.
void ExpectDatasetContract(const ObjectSet& set) {
  for (ObjectId i = 0; i < set.size(); ++i) {
    EXPECT_TRUE(set[i].times.empty() ||
                set[i].times.size() == set[i].points.size())
        << "object " << i;
    for (const Point& p : set[i].points) {
      EXPECT_TRUE(std::isfinite(p.x) && std::isfinite(p.y) &&
                  std::isfinite(p.z))
          << "object " << i;
    }
    for (double t : set[i].times) {
      EXPECT_TRUE(std::isfinite(t)) << "object " << i;
    }
  }
}

constexpr int kFuzzInputs = 2000;

class IoFuzzTest : public IoTest {
 protected:
  /// The seed files: `save` over a timed and an untimed dataset.
  template <typename Save>
  std::vector<std::string> Seeds(Save save) {
    std::vector<std::string> seeds;
    for (const ObjectSet& set :
         {testing::MakeRandomObjects(6, 0, 5, 20.0, 21, 5.0, true),
          testing::MakeRandomObjects(5, 1, 4, 20.0, 22)}) {
      const std::string path = PathFor("seed");
      EXPECT_TRUE(save(set, path).ok());
      seeds.push_back(ReadBytes(path));
    }
    return seeds;
  }

  /// Loads every input with `load`; returns how many loaded.
  template <typename Load>
  int Run(const std::vector<std::string>& inputs, Load load) {
    int loaded = 0;
    const std::string path = PathFor("fuzz");
    for (const std::string& bytes : inputs) {
      WriteBytes(path, bytes);
      Result<ObjectSet> set = load(path);
      if (set.ok()) {
        ++loaded;
        ExpectDatasetContract(set.value());
      } else {
        EXPECT_TRUE(testing::IsTypedFailure(set.status()))
            << set.status().ToString();
      }
    }
    return loaded;
  }
};

TEST_F(IoFuzzTest, FuzzedTextDatasetsLoadOrFailTyped) {
  const std::vector<std::string> seeds = Seeds(SaveDatasetText);
  Pcg32 rng(31, 0x74657874);  // "text"
  std::vector<std::string> inputs;
  for (int i = 0; i < kFuzzInputs; ++i) {
    inputs.push_back(i % 2 == 0
                         ? testing::MutateOneLine(
                               seeds[rng.NextBounded(2)], rng)
                         : testing::MutateBytes(seeds, rng));
  }
  const int loaded = Run(inputs, LoadDatasetText);
  RecordProperty("loaded", loaded);
  EXPECT_GT(loaded, 0);
  EXPECT_LT(loaded, kFuzzInputs);
}

TEST_F(IoFuzzTest, FuzzedBinaryDatasetsLoadOrFailTyped) {
  const std::vector<std::string> seeds = Seeds(SaveDatasetBinary);
  Pcg32 rng(32, 0x62696e);  // "bin"
  std::vector<std::string> inputs;
  for (int i = 0; i < kFuzzInputs; ++i) {
    std::string bytes = testing::MutateBytes(seeds, rng);
    // One input in eight keeps its stale trailer: the mismatch path.
    if (i % 8 != 0) ResealFnv1aTrailer(&bytes);
    inputs.push_back(std::move(bytes));
  }
  const int loaded = Run(inputs, LoadDatasetBinary);
  RecordProperty("loaded", loaded);
  EXPECT_GT(loaded, 0);
  EXPECT_LT(loaded, kFuzzInputs);
}

TEST_F(IoFuzzTest, FuzzedLabelFilesLoadOrFailTyped) {
  const ObjectSet set = testing::MakeRandomObjects(6, 0, 5, 20.0, 23);
  LabelSet labels = LabelSet::MakeAllOnes(set);
  labels.recorded_r = 3.5;
  for (auto& object : labels.labels) {
    if (!object.empty()) object[0] = label::kMap;
  }
  LabelStore store(PathFor("labels"));
  ASSERT_TRUE(store.Save(4, labels).ok());
  const std::vector<std::string> seeds = {ReadBytes(store.PathFor(4))};
  Pcg32 rng(33, 0x6c6162);  // "lab"
  const std::string path = PathFor("fuzz.labels");
  int loaded = 0;
  for (int i = 0; i < kFuzzInputs; ++i) {
    std::string bytes = testing::MutateBytes(seeds, rng);
    if (i % 8 != 0) ResealFnv1aTrailer(&bytes);
    WriteBytes(path, bytes);
    // One read attempt: Load's retry backoff would only slow the loop.
    Result<LabelSet> got = LabelStore::ReadFile(path, 4, set);
    if (!got.ok()) {
      EXPECT_TRUE(testing::IsTypedFailure(got.status()))
          << got.status().ToString();
      continue;
    }
    ++loaded;
    ASSERT_EQ(got.value().labels.size(), set.size());
    for (ObjectId o = 0; o < set.size(); ++o) {
      EXPECT_EQ(got.value().labels[o].size(), set[o].NumPoints()) << o;
    }
  }
  RecordProperty("loaded", loaded);
  EXPECT_GT(loaded, 0);
  EXPECT_LT(loaded, kFuzzInputs);
}

TEST(LabelSetTest, Counters) {
  ObjectSet set;
  set.Add(Object{{{0, 0, 0}, {1, 1, 1}}, {}});
  LabelSet labels = LabelSet::MakeAllOnes(set);
  EXPECT_EQ(labels.CountMapPruned(), 0u);
  EXPECT_EQ(labels.CountAnyPruned(), 0u);
  labels.labels[0][0] &= ~label::kMap;
  labels.labels[0][1] &= ~label::kVerify;
  EXPECT_EQ(labels.CountMapPruned(), 1u);
  EXPECT_EQ(labels.CountAnyPruned(), 2u);
  EXPECT_GT(labels.MemoryUsageBytes(), 0u);
}

TEST(LabelSetTest, EmptySetReturnsAllOnes) {
  LabelSet empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.Get(3, 7), label::kAll);
}

}  // namespace
}  // namespace mio
