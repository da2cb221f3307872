// Tests for the `mio` command line's numeric-flag domain: `mio serve`,
// `top`, `query`, `sweep`, `profile`, `explain`, `qlog report`,
// `qlog diff`, `generate` and `import-csv` range-check their numeric
// flags and exit 2 (kInvalidArgument) before they load a dataset or a
// qlog, generate one, bind a socket or connect to one. A wrapped
// `--max-queue=-1` would otherwise disable overload refusal, a NaN drain
// deadline or memory budget would reach a float->int cast,
// `--threads=2147483647` would abort on bad_alloc, and a NaN `qlog diff
// --threshold` would pass any candidate. A flag read by prefix would run
// `--r=3x` at r = 3, drop the "abc" of `sweep --r=3,abc,4`, and read
// `--seed=abc` as seed 0. A list that skipped empty items would run
// `sweep --r=,` as no query at all and `--r=3,,4` as 3,4. `generate`
// requires `--preset` and `--out`, `convert` and `import-csv` `--in` and
// `--out`, and `import-swc` `--dir` and `--out` (the importers used to
// read or write the working directory without them), and all four refuse
// a `--format` other than binary or text (`txt` used to mean binary), as
// `generate` refuses a `--scale` other than quick or full.
//
// Each case runs the real binary against inputs that do not exist (for
// `generate`, an output directory that does not exist): loading them, or
// saving, fails with IOError (exit 3), so exit 2 with the flag named on
// stderr shows the flag check ran before the load — and the load comes
// before the socket binds.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <ostream>
#include <string>

#include "obs/qlog.hpp"

namespace mio {
namespace {

struct CliCase {
  const char* name;  ///< test-name suffix
  const char* cmd;   ///< a `mio` command, see CliTest::Run
  const char* flag;  ///< the out-of-domain flag
};

void PrintTo(const CliCase& c, std::ostream* os) {
  *os << "mio " << c.cmd << " " << c.flag;
}

class CliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::string leaf =
        "mio_cli_test_" + std::to_string(::getpid()) + "_" +
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    // Parameterised names carry a '/': keep the directory flat.
    for (char& c : leaf) {
      if (c == '/') c = '_';
    }
    dir_ = std::filesystem::temp_directory_path() / leaf;
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  std::string SocketPath() const { return (dir_ / "serve.sock").string(); }

  std::string PathFor(const std::string& name) const {
    return (dir_ / name).string();
  }

  /// Runs `mio <cmd> <base args> <extra>`, where the base args name
  /// inputs that do not exist, and returns its exit code.
  int Run(const std::string& cmd, const std::string& extra) {
    std::string base;
    if (cmd == "serve") {
      base = "--in='" + PathFor("missing.bin") + "' --socket='" +
             SocketPath() + "'";
    } else if (cmd == "top") {
      base = "--connect='" + SocketPath() + "'";
    } else if (cmd == "qlog diff") {
      base = "'" + PathFor("missing-a.jsonl") + "' '" +
             PathFor("missing-b.jsonl") + "'";
    } else if (cmd == "qlog report") {
      base = "--in='" + PathFor("missing.jsonl") + "'";
    } else if (cmd == "generate") {
      base = "--preset=bird2 --out='" + PathFor("no-such-dir/out.bin") + "'";
    } else if (cmd == "convert") {
      base = "--in='" + PathFor("missing.bin") + "' --out='" +
             PathFor("out.bin") + "'";
    } else if (cmd == "import-csv") {
      base = "--in='" + PathFor("missing.csv") + "' --out='" +
             PathFor("out.bin") + "'";
    } else if (cmd == "import-swc") {
      base = "--dir='" + PathFor("missing-swc") + "' --out='" +
             PathFor("out.bin") + "'";
    } else {  // query, sweep, profile, explain
      base = "--in='" + PathFor("missing.bin") + "' --r=2";
    }
    return RunArgs(cmd + " " + base + " " + extra);
  }

  /// Runs `mio <args>` and returns its exit code; stderr lands in stderr_.
  /// With `in_dir`, it runs in the empty directory `in_dir`/cwd.
  int RunArgs(const std::string& args, const std::string& in_dir = "") {
    const std::string err = PathFor("stderr.txt");
    std::string line = std::string("'") + MIO_CLI_PATH + "' " + args +
                       " >/dev/null 2>'" + err + "'";
    if (!in_dir.empty()) {
      const std::filesystem::path cwd = std::filesystem::path(in_dir) / "cwd";
      std::filesystem::create_directories(cwd);
      line = "cd '" + cwd.string() + "' && " + line;
    }
    const int status = std::system(line.c_str());
    std::ifstream in(err);
    stderr_.assign(std::istreambuf_iterator<char>(in),
                   std::istreambuf_iterator<char>());
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }

  std::filesystem::path dir_;
  std::string stderr_;
};

class CliFlagTest : public CliTest,
                    public ::testing::WithParamInterface<CliCase> {};

TEST_P(CliFlagTest, ExitsTwoBeforeLoadingOrConnecting) {
  const CliCase& c = GetParam();
  EXPECT_EQ(Run(c.cmd, c.flag), 2) << c.flag << ": " << stderr_;
  // The message names the rejected flag (its text up to '=').
  const std::string flag = c.flag;
  EXPECT_NE(stderr_.find(flag.substr(0, flag.find('='))), std::string::npos)
      << stderr_;
  EXPECT_FALSE(std::filesystem::exists(SocketPath()));
}

INSTANTIATE_TEST_SUITE_P(
    OutOfDomain, CliFlagTest,
    ::testing::Values(
        CliCase{"max_queue_negative", "serve", "--max-queue=-1"},
        CliCase{"workers_junk", "serve", "--workers=abc"},
        CliCase{"workers_above_cap", "serve", "--workers=257"},
        CliCase{"cache_negative", "serve", "--cache=-1"},
        CliCase{"drain_deadline_nan", "serve", "--drain-deadline-ms=nan"},
        CliCase{"retry_after_infinite", "serve", "--retry-after-ms=1e999"},
        CliCase{"telemetry_interval_too_short", "serve",
                "--telemetry-interval-ms=5"},
        CliCase{"top_count_negative", "top", "--count=-1"},
        CliCase{"top_interval_zero", "top", "--interval-ms=0"},
        CliCase{"query_threads_int_max", "query", "--threads=2147483647"},
        CliCase{"query_threads_above_cap", "query", "--threads=257"},
        CliCase{"query_memory_budget_negative", "query",
                "--memory-budget-mb=-1"},
        CliCase{"query_memory_budget_nan", "query", "--memory-budget-mb=nan"},
        CliCase{"query_memory_budget_huge", "query",
                "--memory-budget-mb=1e300"},
        CliCase{"connect_attempts_zero", "query",
                "--attempts=0 --connect=/nonexistent/mio.sock"},
        CliCase{"connect_backoff_negative", "query",
                "--backoff-ms=-1 --connect=/nonexistent/mio.sock"},
        CliCase{"profile_runs_wrapping", "profile", "--runs=4294967297"},
        CliCase{"profile_warmup_wrapping", "profile", "--warmup=4294967297"},
        CliCase{"diff_threshold_nan", "qlog diff", "--threshold=nan"},
        CliCase{"diff_threshold_infinite", "qlog diff", "--threshold=1e999"},
        CliCase{"diff_threshold_negative", "qlog diff", "--threshold=-1"},
        CliCase{"query_r_trailing_junk", "query", "--r=3x"},
        CliCase{"query_r_negative", "query", "--r=-1"},
        CliCase{"query_deadline_trailing_junk", "query", "--deadline-ms=1x"},
        CliCase{"query_delta_junk", "query", "--delta=abc"},
        CliCase{"connect_r_trailing_junk", "query",
                "--r=3x --connect=/nonexistent/mio.sock"},
        CliCase{"connect_deadline_nan", "query",
                "--deadline-ms=nan --connect=/nonexistent/mio.sock"},
        CliCase{"sweep_r_list_junk_item", "sweep", "--r=3,abc,4"},
        CliCase{"sweep_r_list_only_empty_items", "sweep", "--r=,"},
        CliCase{"sweep_r_list_empty_middle_item", "sweep", "--r=3,,4"},
        CliCase{"sweep_r_list_empty_last_item", "sweep", "--r=3,"},
        CliCase{"profile_r_trailing_junk", "profile", "--r=3x"},
        CliCase{"explain_r_trailing_junk", "explain", "--r=3x"},
        CliCase{"report_slowest_junk", "qlog report", "--slowest=abc"},
        CliCase{"report_slowest_negative", "qlog report", "--slowest=-1"},
        CliCase{"generate_seed_junk", "generate", "--seed=abc"},
        CliCase{"generate_seed_negative", "generate", "--seed=-1"},
        CliCase{"generate_preset_missing", "generate", "--preset="},
        CliCase{"generate_preset_unknown", "generate", "--preset=bird3"},
        CliCase{"generate_out_missing", "generate", "--out="},
        CliCase{"generate_scale_unknown", "generate", "--scale=huge"},
        CliCase{"generate_format_unknown", "generate", "--format=txt"},
        CliCase{"convert_format_unknown", "convert", "--format=txt"},
        CliCase{"convert_in_missing", "convert", "--in="},
        CliCase{"convert_out_missing", "convert", "--out="},
        CliCase{"import_swc_dir_missing", "import-swc", "--dir="},
        CliCase{"import_swc_out_missing", "import-swc", "--out="},
        CliCase{"import_csv_in_missing", "import-csv", "--in="},
        CliCase{"import_csv_out_missing", "import-csv", "--out="},
        CliCase{"import_swc_format_unknown", "import-swc", "--format=txt"},
        CliCase{"import_csv_format_unknown", "import-csv", "--format=txt"},
        CliCase{"import_csv_split_junk", "import-csv", "--split=abc"},
        CliCase{"import_csv_split_negative", "import-csv", "--split=-1"}),
    [](const ::testing::TestParamInfo<CliCase>& info) {
      return std::string(info.param.name);
    });

// The control: every range bound itself is accepted, so the same command
// gets past the flag check and fails only at the missing dataset.
TEST_F(CliTest, InRangeServeFlagsReachTheDatasetLoad) {
  EXPECT_EQ(Run("serve",
                "--workers=256 --max-queue=1 --max-queued-cost=0 --cache=0 "
                "--tail-slowest=0 --telemetry-interval-ms=10 "
                "--retry-after-ms=0 --drain-deadline-ms=1e9 "
                "--tail-threshold-ms=0"),
            3)
      << stderr_;
  EXPECT_NE(stderr_.find("missing.bin"), std::string::npos) << stderr_;
  EXPECT_FALSE(std::filesystem::exists(SocketPath()));
}

TEST_F(CliTest, InRangeQueryProfileAndDiffFlagsReachTheLoad) {
  EXPECT_EQ(Run("query", "--threads=256 --memory-budget-mb=1e9"), 3)
      << stderr_;
  EXPECT_EQ(Run("profile", "--threads=256 --runs=1000000 --warmup=0"), 3)
      << stderr_;
  EXPECT_EQ(Run("qlog diff", "--threshold=10"), 3) << stderr_;
  EXPECT_NE(stderr_.find("missing-a.jsonl"), std::string::npos) << stderr_;
}

TEST_F(CliTest, InRangeRadiusSeedAndReportFlagsReachTheLoad) {
  EXPECT_EQ(Run("query", "--r=0.5 --delta=0 --deadline-ms=1e9"), 3)
      << stderr_;
  EXPECT_EQ(Run("sweep", "--r=3,4.5,1e3"), 3) << stderr_;
  EXPECT_EQ(Run("explain", "--r=1e300"), 3) << stderr_;
  EXPECT_EQ(Run("qlog report", "--slowest=0"), 3) << stderr_;
  EXPECT_EQ(Run("generate", "--seed=9223372036854775807"), 3) << stderr_;
  EXPECT_NE(stderr_.find("no-such-dir"), std::string::npos) << stderr_;
  EXPECT_EQ(Run("import-csv", "--split=2147483647"), 3) << stderr_;
  EXPECT_NE(stderr_.find("missing.csv"), std::string::npos) << stderr_;
}

TEST_F(CliTest, InRangeScaleAndFormatFlagsReachTheLoadOrSave) {
  EXPECT_EQ(Run("generate", "--preset=neuron2 --scale=quick --format=text"),
            3)
      << stderr_;
  EXPECT_NE(stderr_.find("no-such-dir"), std::string::npos) << stderr_;
  EXPECT_EQ(Run("convert", "--format=binary"), 3) << stderr_;
  EXPECT_EQ(Run("import-swc", "--format=text"), 3) << stderr_;
  EXPECT_EQ(Run("import-csv", "--format=binary"), 3) << stderr_;
}

// A bare `generate` names the missing flag and writes nothing, instead of
// generating a default preset into the working directory.
TEST_F(CliTest, BareGenerateWritesNothing) {
  EXPECT_EQ(RunArgs("generate", dir_.string()), 2) << stderr_;
  EXPECT_NE(stderr_.find("--preset"), std::string::npos) << stderr_;
  EXPECT_TRUE(std::filesystem::is_empty(dir_ / "cwd"));
}

// An import without `--out` names the missing flag and writes nothing,
// instead of writing tracks.bin into the working directory.
TEST_F(CliTest, BareImportWritesNothing) {
  const std::string csv = PathFor("tracks.csv");
  std::ofstream(csv) << "id,x,y\n1,0,0\n1,1,1\n2,5,5\n2,6,6\n";
  EXPECT_EQ(RunArgs("import-csv --in='" + csv + "'", dir_.string()), 2)
      << stderr_;
  EXPECT_NE(stderr_.find("--out"), std::string::npos) << stderr_;
  EXPECT_TRUE(std::filesystem::is_empty(dir_ / "cwd"));
}

// Two runs of different workloads share no configuration: comparing them
// would pass with nothing compared per configuration.
TEST_F(CliTest, QlogDiffWithNoSharedConfigurationExitsTwo) {
  obs::QlogRecord rec;
  rec.workload = "a";
  rec.r = 3.0;
  rec.wall_seconds = 0.01;
  const std::string a = PathFor("a.jsonl");
  const std::string b = PathFor("b.jsonl");
  std::ofstream(a) << obs::QlogRecordToJsonLine(rec) << "\n";
  rec.workload = "b";
  std::ofstream(b) << obs::QlogRecordToJsonLine(rec) << "\n";
  EXPECT_EQ(RunArgs("qlog diff '" + a + "' '" + b + "'"), 2) << stderr_;
  EXPECT_NE(stderr_.find("no configuration"), std::string::npos) << stderr_;
  EXPECT_EQ(RunArgs("qlog diff '" + a + "' '" + a + "'"), 0) << stderr_;
}

}  // namespace
}  // namespace mio
