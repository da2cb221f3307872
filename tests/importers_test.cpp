#include "io/importers.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "test_utils.hpp"

namespace mio {
namespace {

class ImportersTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("mio_import_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  std::string Write(const std::string& name, const std::string& content) {
    std::string path = (dir_ / name).string();
    std::ofstream(path) << content;
    return path;
  }
  std::filesystem::path dir_;
};

TEST_F(ImportersTest, SwcBasicParse) {
  std::string path = Write("cell.swc",
                           "# NeuroMorpho-style header\n"
                           "# more comments\n"
                           "1 1 0.0 0.0 0.0 5.0 -1\n"
                           "2 3 1.5 0.5 0.0 0.5 1\n"
                           "  3 3 3.0 1.0 0.5 0.4 2\n");
  Result<Object> obj = LoadSwcFile(path);
  ASSERT_TRUE(obj.ok()) << obj.status().ToString();
  ASSERT_EQ(obj.value().points.size(), 3u);
  EXPECT_DOUBLE_EQ(obj.value().points[1].x, 1.5);
  EXPECT_DOUBLE_EQ(obj.value().points[2].z, 0.5);
}

TEST_F(ImportersTest, SwcRejectsMalformedAndEmpty) {
  EXPECT_FALSE(LoadSwcFile(Write("bad.swc", "1 1 nonsense\n")).ok());
  EXPECT_FALSE(LoadSwcFile(Write("empty.swc", "# only comments\n")).ok());
  EXPECT_FALSE(LoadSwcFile((dir_ / "missing.swc").string()).ok());
}

TEST_F(ImportersTest, SwcDirectoryLoadsSortedByName) {
  Write("b.swc", "1 1 10 0 0 1 -1\n");
  Write("a.swc", "1 1 0 0 0 1 -1\n2 3 1 0 0 1 1\n");
  Write("notes.txt", "ignore me");
  Result<ObjectSet> set = LoadSwcDirectory(dir_.string());
  ASSERT_TRUE(set.ok()) << set.status().ToString();
  ASSERT_EQ(set.value().size(), 2u);
  EXPECT_EQ(set.value()[0].NumPoints(), 2u);  // a.swc first
  EXPECT_DOUBLE_EQ(set.value()[1].points[0].x, 10.0);
}

TEST_F(ImportersTest, SwcDirectoryEmptyFails) {
  EXPECT_FALSE(LoadSwcDirectory(dir_.string()).ok());
}

TEST_F(ImportersTest, CsvGroupsByIdInFirstAppearanceOrder) {
  std::string path = Write("tracks.csv",
                           "id,x,y\n"
                           "bird7,0.0,0.0\n"
                           "bird3,5.0,5.0\n"
                           "bird7,1.0,0.5\n"
                           "bird3,6.0,5.5\n"
                           "bird7,2.0,1.0\n");
  Result<ObjectSet> set = LoadTrajectoryCsv(path);
  ASSERT_TRUE(set.ok()) << set.status().ToString();
  ASSERT_EQ(set.value().size(), 2u);
  EXPECT_EQ(set.value()[0].NumPoints(), 3u);  // bird7 appeared first
  EXPECT_EQ(set.value()[1].NumPoints(), 2u);
  EXPECT_DOUBLE_EQ(set.value()[0].points[2].x, 2.0);
  EXPECT_TRUE(set.value().IsPlanar());  // no z column -> z = 0
}

TEST_F(ImportersTest, CsvCustomColumnsWithZAndTime) {
  std::string path = Write("fixes.csv",
                           "timestamp;lon;lat;alt;animal\n"
                           "100;1.0;2.0;30.0;fox\n"
                           "101;1.5;2.5;31.0;fox\n");
  TrajectoryCsvOptions opt;
  opt.delimiter = ';';
  opt.id_column = "animal";
  opt.x_column = "lon";
  opt.y_column = "lat";
  opt.z_column = "alt";
  opt.time_column = "timestamp";
  Result<ObjectSet> set = LoadTrajectoryCsv(path, opt);
  ASSERT_TRUE(set.ok()) << set.status().ToString();
  ASSERT_EQ(set.value().size(), 1u);
  const Object& fox = set.value()[0];
  ASSERT_TRUE(fox.HasTimes());
  EXPECT_DOUBLE_EQ(fox.points[1].z, 31.0);
  EXPECT_DOUBLE_EQ(fox.times[0], 100.0);
}

TEST_F(ImportersTest, CsvSplitsLongTrajectories) {
  std::string content = "id,x,y\n";
  for (int i = 0; i < 25; ++i) {
    content += "t," + std::to_string(i) + ".0,0.0\n";
  }
  TrajectoryCsvOptions opt;
  opt.max_points_per_object = 10;
  Result<ObjectSet> set = LoadTrajectoryCsv(Write("long.csv", content), opt);
  ASSERT_TRUE(set.ok());
  // 25 fixes at <=10 per object: 10 + 10 + 5.
  ASSERT_EQ(set.value().size(), 3u);
  EXPECT_EQ(set.value()[0].NumPoints(), 10u);
  EXPECT_EQ(set.value()[2].NumPoints(), 5u);
  EXPECT_DOUBLE_EQ(set.value()[2].points[0].x, 20.0);
}

TEST_F(ImportersTest, CsvErrorCases) {
  EXPECT_FALSE(LoadTrajectoryCsv((dir_ / "missing.csv").string()).ok());
  EXPECT_FALSE(LoadTrajectoryCsv(Write("empty.csv", "")).ok());
  EXPECT_FALSE(
      LoadTrajectoryCsv(Write("noid.csv", "a,b\n1,2\n")).ok());  // no id/x/y
  EXPECT_FALSE(
      LoadTrajectoryCsv(Write("short.csv", "id,x,y\nt,1\n")).ok());
  EXPECT_FALSE(
      LoadTrajectoryCsv(Write("badnum.csv", "id,x,y\nt,abc,2\n")).ok());
  // Every numeric field must be one whole finite number: y, z and time
  // as well as x, and no trailing text.
  TrajectoryCsvOptions zt;
  zt.z_column = "z";
  zt.time_column = "t";
  for (const char* row : {"a,2,abc,3,0", "b,nan,1,1,0", "b,1,inf,2,0",
                          "a,1.5x,2,0,0", "a,1,2,nan,0", "a,1,2,3,x",
                          "a,1,2,,0", "a,1,2,3,-inf"}) {
    Result<ObjectSet> set = LoadTrajectoryCsv(
        Write("badfield.csv", std::string("id,x,y,z,t\nok,1,2,3,0\n") +
                                  row + "\n"),
        zt);
    ASSERT_FALSE(set.ok()) << row;
    EXPECT_EQ(set.status().code(), StatusCode::kCorruption) << row;
    EXPECT_NE(set.status().message().find(":3: bad "), std::string::npos)
        << set.status().message();
  }
  TrajectoryCsvOptions opt;
  opt.time_column = "nope";
  EXPECT_FALSE(
      LoadTrajectoryCsv(Write("not.csv", "id,x,y\nt,1,2\n"), opt).ok());
}

// --- fuzzing ----------------------------------------------------------------
// One deterministic PCG32 mutation loop per importer: every input either
// loads — and then keeps the loaded-set contract — or fails with a typed
// Status, never a crash, bad_alloc or sanitizer report. The robustness
// stage of scripts/check.sh runs these under ASan and UBSan.

constexpr int kFuzzInputs = 2000;

/// Half the inputs mutate one line (numbers become extremes), half the
/// raw bytes.
std::string MutateFile(const std::vector<std::string>& seeds, int i,
                       Pcg32& rng) {
  return i % 2 == 0
             ? testing::MutateOneLine(
                   seeds[rng.NextBounded(static_cast<std::uint32_t>(
                       seeds.size()))],
                   rng)
             : testing::MutateBytes(seeds, rng);
}

TEST_F(ImportersTest, FuzzedSwcFilesLoadOrFailTyped) {
  const std::vector<std::string> seeds = {
      "# header\n1 1 0.0 0.0 0.0 5.0 -1\n2 3 1.5 0.5 0.0 0.5 1\n"
      "  3 3 3.0 1.0 0.5 0.4 2\n",
      "1 2 -4.25 7 1e3 0.1 -1\n\n# gap\n2 2 -4 7.5 1000.5 0.1 1\n"};
  Pcg32 rng(41, 0x737763);  // "swc"
  int loaded = 0;
  for (int i = 0; i < kFuzzInputs; ++i) {
    Result<Object> obj =
        LoadSwcFile(Write("fuzz.swc", MutateFile(seeds, i, rng)));
    if (!obj.ok()) {
      EXPECT_TRUE(testing::IsTypedFailure(obj.status()))
          << obj.status().ToString();
      continue;
    }
    ++loaded;
    EXPECT_FALSE(obj.value().points.empty());
    EXPECT_TRUE(obj.value().times.empty());
  }
  RecordProperty("loaded", loaded);
  EXPECT_GT(loaded, 0);
  EXPECT_LT(loaded, kFuzzInputs);
}

TEST_F(ImportersTest, FuzzedTrajectoryCsvsLoadOrFailTyped) {
  const std::vector<std::string> seeds = {
      "id,x,y,z,t\nfox,1,2,3,100\nfox,1.5,2,31,101\nowl,-3,4e1,0,7\n"
      "fox,2,2,3,102\n",
      "t,x,y,id,z\n5,0.5,0.25,a,1\n6,0.75,0.5,b,2\n7,1,1,a,3\n"};
  TrajectoryCsvOptions timed;
  timed.z_column = "z";
  timed.time_column = "t";
  timed.max_points_per_object = 2;
  const TrajectoryCsvOptions planar;
  Pcg32 rng(42, 0x637376);  // "csv"
  int loaded = 0;
  for (int i = 0; i < kFuzzInputs; ++i) {
    const std::string path = Write("fuzz.csv", MutateFile(seeds, i, rng));
    Result<ObjectSet> set =
        LoadTrajectoryCsv(path, (i / 2) % 2 == 0 ? timed : planar);
    if (!set.ok()) {
      EXPECT_TRUE(testing::IsTypedFailure(set.status()))
          << set.status().ToString();
      continue;
    }
    ++loaded;
    for (ObjectId o = 0; o < set.value().size(); ++o) {
      const Object& obj = set.value()[o];
      EXPECT_TRUE(obj.times.empty() || obj.times.size() == obj.points.size())
          << "object " << o;
    }
  }
  RecordProperty("loaded", loaded);
  EXPECT_GT(loaded, 0);
  EXPECT_LT(loaded, kFuzzInputs);
}

}  // namespace
}  // namespace mio
