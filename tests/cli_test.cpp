// Tests for the `mio` command line's numeric-flag domain: `mio serve`
// and `mio top` range-check every numeric flag and exit 2 (kInvalidArgument)
// before they load a dataset, bind a socket or connect to one. A wrapped
// `--max-queue=-1` would otherwise disable overload refusal and a NaN
// drain deadline would reach a float->int cast at drain.
//
// Each case runs the real binary against a dataset path that does not
// exist: loading it fails with IOError (exit 3), so exit 2 with the flag
// named on stderr shows the flag check ran before the load — and the
// load comes before the socket binds.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <ostream>
#include <string>

namespace mio {
namespace {

struct CliCase {
  const char* name;  ///< test-name suffix
  const char* cmd;   ///< "serve" or "top"
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

  /// Runs `mio <cmd> <base args> <extra>` and returns its exit code;
  /// stderr lands in stderr_.
  int Run(const std::string& cmd, const std::string& extra) {
    const std::string err = (dir_ / "stderr.txt").string();
    std::string line = std::string("'") + MIO_CLI_PATH + "' " + cmd;
    if (cmd == "serve") {
      line += " --in='" + (dir_ / "missing.bin").string() + "' --socket='" +
              SocketPath() + "'";
    } else {
      line += " --connect='" + SocketPath() + "'";
    }
    line += " " + extra + " >/dev/null 2>'" + err + "'";
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
        CliCase{"top_interval_zero", "top", "--interval-ms=0"}),
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

}  // namespace
}  // namespace mio
