// The CLI exit-code contract (README "Exit codes"): every tool reports
// 0 = clean, 1 = usage/unreadable input, 2 = degraded, 3 = hostile
// (hostile wins over degraded). These tests shell out to the real
// binaries, because the contract is what scripts/soak.sh and operators'
// cron jobs consume.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

namespace {

#ifndef UNCHARTED_BIN_IEC104DUMP
#error "UNCHARTED_BIN_IEC104DUMP must point at the iec104dump binary"
#endif

int run(const std::string& cmd) {
  const int rc = std::system((cmd + " >/dev/null 2>&1").c_str());
  if (rc == -1 || !WIFEXITED(rc)) return -1;
  return WEXITSTATUS(rc);
}

std::string quoted(const char* path) { return "'" + std::string(path) + "'"; }

/// Lazily generated fixture pcaps, shared by every test in the process.
struct Pcaps {
  std::string clean;
  std::string truncated;
  std::string hostile;
};

const Pcaps& pcaps() {
  static const Pcaps p = [] {
    // ctest runs each test in its own process, concurrently: the names
    // carry the pid so one process never reads a fixture another is
    // still writing.
    const std::string prefix =
        testing::TempDir() + "/exitcodes_" + std::to_string(::getpid()) + "_";
    Pcaps out;
    out.clean = prefix + "clean.pcap";
    out.truncated = prefix + "truncated.pcap";
    out.hostile = prefix + "hostile.pcap";
    EXPECT_EQ(run(quoted(UNCHARTED_BIN_CAPTURE_GENERATOR) +
                  " --year 1 --duration 10 --seed 7 --no-events --out " +
                  out.clean),
              0);
    EXPECT_EQ(run(quoted(UNCHARTED_BIN_CAPTURE_GENERATOR) +
                  " --year 1 --duration 10 --seed 7 --no-events --hostile "
                  "--out " +
                  out.hostile),
              0);
    // Chop the clean pcap mid-record: a truncated tail is the mildest
    // degradation the pipeline reports.
    std::ifstream in(out.clean, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    EXPECT_GT(bytes.size(), 64u);
    std::ofstream cut(out.truncated, std::ios::binary);
    cut.write(bytes.data(), static_cast<std::streamsize>(bytes.size() - 11));
    return out;
  }();
  return p;
}

TEST(ExitCodes, CleanCaptureExitsZero) {
  EXPECT_EQ(run(quoted(UNCHARTED_BIN_IEC104DUMP) + " " + pcaps().clean +
                " --conformance --limit 1"),
            0);
}

TEST(ExitCodes, UnreadableInputExitsOne) {
  EXPECT_EQ(run(quoted(UNCHARTED_BIN_IEC104DUMP) + " /no/such/capture.pcap"),
            1);
}

TEST(ExitCodes, UsageErrorsExitOne) {
  EXPECT_EQ(run(quoted(UNCHARTED_BIN_CAPTURE_GENERATOR) + " --no-such-flag"),
            1);
  EXPECT_EQ(run(quoted(UNCHARTED_BIN_IEC104D) + " --no-such-flag"), 1);
  EXPECT_EQ(run(quoted(UNCHARTED_BIN_LONGRUN_MONITOR) + " --no-such-flag"), 1);
}

TEST(ExitCodes, TruncatedCaptureExitsTwoDegraded) {
  EXPECT_EQ(run(quoted(UNCHARTED_BIN_IEC104DUMP) + " " + pcaps().truncated +
                " --limit 1"),
            2);
}

TEST(ExitCodes, HostileCaptureExitsThreeAndWinsOverDegraded) {
  EXPECT_EQ(run(quoted(UNCHARTED_BIN_IEC104DUMP) + " " + pcaps().hostile +
                " --conformance --limit 1"),
            3);
}

TEST(ExitCodes, LongrunMonitorHonorsTheSameLadder) {
  EXPECT_EQ(run(quoted(UNCHARTED_BIN_LONGRUN_MONITOR) + " --pcap " +
                pcaps().clean + " --quiet"),
            0);
  EXPECT_EQ(run(quoted(UNCHARTED_BIN_LONGRUN_MONITOR) + " --pcap " +
                pcaps().truncated + " --quiet"),
            2);
  EXPECT_EQ(run(quoted(UNCHARTED_BIN_LONGRUN_MONITOR) + " --pcap " +
                pcaps().hostile + " --quiet"),
            3);
}

TEST(ExitCodes, IdleDaemonDrainsCleanWithExitZero) {
  EXPECT_EQ(run(quoted(UNCHARTED_BIN_IEC104D) +
                " --port 0 --run-for 0.2 --quiet"),
            0);
}

TEST(ExitCodes, DaemonSelfTerminatesWithExitFourWhenTheLadderExhausts) {
  // A checkpoint writer wedged past both restart rungs: the recovery
  // ladder's terminal rung asks for exit 4 so a supervisor restarts the
  // daemon into --restore. Distinct from 0/1/2/3 and from 42.
  const std::string ckpt = testing::TempDir() + "/exitcodes_selfterm.ckpt";
  EXPECT_EQ(run(quoted(UNCHARTED_BIN_IEC104D) + " --port 0 --checkpoint " +
                ckpt +
                " --interval 0.05 --stall-checkpoint --watchdog-poll 0.02"
                " --watchdog-checkpoint 0.15 --run-for 10 --quiet"),
            4);
}

TEST(ExitCodes, FleetHonorsTheSameLadder) {
  // Usage error and a failed query/health fetch are 1, like every tool.
  EXPECT_EQ(run(quoted(UNCHARTED_BIN_IEC104_FLEET) + " --no-such-flag"), 1);
  EXPECT_EQ(run(quoted(UNCHARTED_BIN_IEC104_FLEET) +
                " --connect 127.0.0.1:1 --health"),
            1);
}

TEST(ExitCodes, FleetExitsZeroBenignAndThreeWhenHostileModesAreScripted) {
  // One background daemon serves every fleet run; it announces its
  // ephemeral port on stdout ("listening on HOST:PORT"), the same line
  // scripts/soak.sh parses.
  const std::string out = testing::TempDir() + "/exitcodes_fleet_daemon.out";
  const std::string pid_file = testing::TempDir() + "/exitcodes_fleet_daemon.pid";
  ASSERT_EQ(std::system((quoted(UNCHARTED_BIN_IEC104D) +
                         " --port 0 --run-for 60 --quiet > " + out +
                         " 2>/dev/null & echo $! > " + pid_file)
                            .c_str()),
            0);
  std::string port;
  for (int i = 0; i < 200 && port.empty(); ++i) {
    std::ifstream in(out);
    std::string line;
    if (std::getline(in, line) && line.rfind("listening on ", 0) == 0) {
      port = line.substr(line.rfind(':') + 1);
    }
    if (port.empty()) std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  ASSERT_FALSE(port.empty()) << "daemon never announced its port";

  const std::string connect = " --connect 127.0.0.1:" + port;
  EXPECT_EQ(run(quoted(UNCHARTED_BIN_IEC104_FLEET) + connect +
                " --year 1 --duration 2 --clones 2 --quiet"),
            0);
  EXPECT_EQ(run(quoted(UNCHARTED_BIN_IEC104_FLEET) + connect +
                " --year 1 --duration 2 --garbage 1 --quiet"),
            3);
  // A --health fetch against a live daemon succeeds (contrast with the
  // unreachable-port 1 above).
  EXPECT_EQ(run(quoted(UNCHARTED_BIN_IEC104_FLEET) + connect + " --health"), 0);
  run("kill $(cat " + pid_file + ")");
}

}  // namespace
