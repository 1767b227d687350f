// dauct_cli smoke tests: drive the real binary (path baked in by CMake as
// DAUCT_CLI_PATH) through its user-facing surface.
//
// The --help sync test is the enforcement half of a documentation contract:
// every flag parse_args() understands must appear in the usage text (adding
// a flag without documenting it fails here; kKnownFlags is the review
// checklist — keep it in lockstep with parse_args and the README table).
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <array>
#include <cstdio>
#include <string>

namespace {

struct CommandResult {
  int exit_code = -1;
  std::string output;  ///< stdout + stderr, interleaved
};

CommandResult run_binary(const char* binary, const std::string& args) {
  const std::string cmd = std::string(binary) + " " + args + " 2>&1";
  FILE* pipe = popen(cmd.c_str(), "r");
  EXPECT_NE(pipe, nullptr);
  CommandResult result;
  std::array<char, 4096> buf;
  std::size_t n = 0;
  while ((n = fread(buf.data(), 1, buf.size(), pipe)) > 0) {
    result.output.append(buf.data(), n);
  }
  const int status = pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

CommandResult run_command(const std::string& args) {
  return run_binary(DAUCT_CLI_PATH, args);
}

CommandResult run_fuzz(const std::string& args) {
  return run_binary(DAUCT_FUZZ_PATH, args);
}

// Every flag the CLI parses. Mirrors parse_args() in tools/dauct_cli.cpp.
constexpr const char* kKnownFlags[] = {
    "--auction",  "--users",   "--providers", "--seed",     "--bids",
    "--asks",     "--k",       "--epsilon",   "--mode",     "--centralized",
    "--runtime",  "--latency", "--trace",     "--scenario", "--csv",
    "--reliable", "--retransmit-delay-ms",    "--max-retries",
    "--round-timeout-ms",      "--auth",      "--auth-batch",
    "--tcp-node", "--base-port",              "--wal-dir",
    "--crash-after",            "--instances", "--pipeline-depth",
    "--help",
};

TEST(Cli, HelpMentionsEveryParsedFlag) {
  const auto r = run_command("--help");
  EXPECT_EQ(r.exit_code, 0);
  for (const char* flag : kKnownFlags) {
    EXPECT_NE(r.output.find(flag), std::string::npos)
        << "flag " << flag << " is parsed but undocumented in --help";
  }
}

TEST(Cli, UnknownFlagFailsAndPointsAtHelp) {
  const auto r = run_command("--no-such-flag");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("--help"), std::string::npos);
}

TEST(Cli, MissingFlagValueFails) {
  const auto r = run_command("--users");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("missing value"), std::string::npos);
}

TEST(Cli, SmallDistributedRunSucceeds) {
  const auto r = run_command(
      "--auction double --users 8 --providers 3 --k 1 --latency zero --seed 3");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("distributed auctioneer"), std::string::npos);
  EXPECT_NE(r.output.find("totals:"), std::string::npos);
}

TEST(Cli, ReliableRunSucceedsAndPrintsCounters) {
  const auto r = run_command(
      "--auction double --users 8 --providers 3 --k 1 --latency zero --seed 3 "
      "--reliable --retransmit-delay-ms 4 --max-retries 3 --round-timeout-ms 8");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("reliability:"), std::string::npos);
  EXPECT_NE(r.output.find("retransmits"), std::string::npos);
  EXPECT_NE(r.output.find("give-ups"), std::string::npos);
}

TEST(Cli, AuthRunSucceedsAndPrintsCounters) {
  const auto r = run_command(
      "--auction double --users 8 --providers 3 --k 1 --latency zero --seed 3 "
      "--auth");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("auth:"), std::string::npos);
  EXPECT_NE(r.output.find("signed"), std::string::npos);
  EXPECT_NE(r.output.find("verified"), std::string::npos);
  const auto batch = run_command(
      "--auction double --users 8 --providers 3 --k 1 --latency zero --seed 3 "
      "--auth-batch");
  EXPECT_EQ(batch.exit_code, 0) << batch.output;
  EXPECT_NE(batch.output.find("batches"), std::string::npos);
}

TEST(Cli, ServicePlaneRunPrintsPerInstanceReport) {
  const auto r = run_command(
      "--auction double --users 8 --providers 3 --k 1 --seed 3 "
      "--instances 3 --pipeline-depth 2");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("service plane"), std::string::npos);
  EXPECT_NE(r.output.find("instance 0"), std::string::npos);
  EXPECT_NE(r.output.find("instance 2"), std::string::npos);
  EXPECT_NE(r.output.find("3/3 instances ok"), std::string::npos);
  EXPECT_NE(r.output.find("auctions/vsec"), std::string::npos);
}

TEST(Cli, ReliableServicePlaneRunPrintsTheReliabilitySummary) {
  const auto r = run_command(
      "--auction double --users 8 --providers 3 --k 1 --seed 3 "
      "--instances 3 --pipeline-depth 2 --reliable");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("3/3 instances ok"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("reliability: "), std::string::npos) << r.output;
  EXPECT_NE(r.output.find(" tracked, "), std::string::npos) << r.output;
  EXPECT_NE(r.output.find(" retransmits, "), std::string::npos) << r.output;
  EXPECT_NE(r.output.find(" give-ups"), std::string::npos) << r.output;
}

TEST(Cli, ServicePlaneFlagValidation) {
  const auto depth = run_command("--instances 2 --pipeline-depth 3");
  EXPECT_EQ(depth.exit_code, 1);
  EXPECT_NE(depth.output.find("--pipeline-depth must not exceed"),
            std::string::npos);
  const auto zero = run_command("--instances 0");
  EXPECT_EQ(zero.exit_code, 1);
  EXPECT_NE(zero.output.find("positive integer"), std::string::npos);
  const auto central = run_command("--instances 2 --centralized");
  EXPECT_EQ(central.exit_code, 1) << central.output;
  EXPECT_NE(central.output.find("--centralized"), std::string::npos);
  // Sim-only: the service plane needs virtual-time pipelining.
  const auto threaded = run_command(
      "--runtime thread --instances 2 --users 6 --providers 3");
  EXPECT_EQ(threaded.exit_code, 1) << threaded.output;
  EXPECT_NE(threaded.output.find("requires --runtime sim"), std::string::npos);
}

// Satellite bugfix: sim-only layers on timerless runtimes must fail fast
// instead of silently no-opping (round watchdogs simply would not run).
TEST(Cli, SimOnlyFlagsRejectedOnThreadAndTcpRuntimes) {
  for (const char* rt : {"thread", "tcp"}) {
    const auto reliable = run_command(std::string("--runtime ") + rt +
                                      " --reliable --users 6 --providers 3");
    EXPECT_EQ(reliable.exit_code, 1) << reliable.output;
    EXPECT_NE(reliable.output.find("requires --runtime sim"), std::string::npos)
        << reliable.output;
    const auto timeout = run_command(std::string("--runtime ") + rt +
                                     " --round-timeout-ms 8 --users 6 --providers 3");
    EXPECT_EQ(timeout.exit_code, 1) << timeout.output;
    EXPECT_NE(timeout.output.find("--round-timeout-ms"), std::string::npos);
    const auto auth = run_command(std::string("--runtime ") + rt +
                                  " --auth --users 6 --providers 3");
    EXPECT_EQ(auth.exit_code, 1) << auth.output;
    EXPECT_NE(auth.output.find("requires --runtime sim"), std::string::npos);
  }
}

TEST(Cli, ZeroRetransmitDelayIsRejectedLikeTheScenarioParser) {
  const auto r = run_command("--reliable --retransmit-delay-ms 0");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("must be > 0"), std::string::npos);
  const auto neg = run_command("--reliable --round-timeout-ms -3");
  EXPECT_EQ(neg.exit_code, 1);
  EXPECT_NE(neg.output.find("must be >= 0"), std::string::npos);
  const auto retr = run_command("--reliable --max-retries -1");
  EXPECT_EQ(retr.exit_code, 1);
  EXPECT_NE(retr.output.find("non-negative integer"), std::string::npos);
}

TEST(Cli, ReliableScenarioPrintsCountersNextToFaults) {
  const auto r = run_command(std::string("--scenario ") + DAUCT_SCENARIO_DIR +
                             "/dup_storm.scn");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("faults injected"), std::string::npos);
  EXPECT_NE(r.output.find("duplicates suppressed"), std::string::npos);
  EXPECT_NE(r.output.find("expectations: PASS"), std::string::npos);
}

TEST(Cli, ScenarioRunsAndSelfChecks) {
  const auto r = run_command(std::string("--scenario ") + DAUCT_SCENARIO_DIR +
                             "/clean.scn");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("expectations: PASS"), std::string::npos);
  EXPECT_NE(r.output.find("faults injected"), std::string::npos);
}

TEST(Cli, ScenarioWithMissingFileFails) {
  const auto r = run_command("--scenario /nonexistent/nope.scn");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("cannot read"), std::string::npos);
}

TEST(Cli, FailingScenarioPrintsSeedAndOneLineReproCommand) {
  // A clean run pinned to the wrong expectation: the failure report must
  // carry everything needed to rerun the case — the fault-plan seed and the
  // exact repro command line.
  const std::string path = testing::TempDir() + "/expect_fails.scn";
  FILE* f = fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  fputs("[run]\nusers = 6\nproviders = 3\nk = 1\nseed = 5\nlatency = zero\n"
        "[fault]\nseed = 77\n"
        "[expect]\noutcome = bottom\n",
        f);
  fclose(f);
  const auto r = run_command("--scenario " + path);
  EXPECT_EQ(r.exit_code, 3) << r.output;
  EXPECT_NE(r.output.find("expectation FAILED"), std::string::npos);
  EXPECT_NE(r.output.find("fault-plan seed: 77"), std::string::npos);
  EXPECT_NE(r.output.find("repro: dauct_cli --scenario " + path),
            std::string::npos);
  remove(path.c_str());
}

TEST(Cli, ScenarioParseErrorIsReportedWithLine) {
  const std::string path = testing::TempDir() + "/bad_scenario.scn";
  FILE* f = fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  fputs("[run]\nusers = twelve\n", f);
  fclose(f);
  const auto r = run_command("--scenario " + path);
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("line 2"), std::string::npos);
  remove(path.c_str());
}

// ---------------------------------------------------------------------------
// dauct_fuzz (DAUCT_FUZZ_PATH) — the fault-plan fuzzer's CLI surface
// ---------------------------------------------------------------------------

// Every flag dauct_fuzz parses. Mirrors parse_args() in tools/dauct_fuzz.cpp.
constexpr const char* kKnownFuzzFlags[] = {
    "--plans", "--seed", "--index", "--bounds", "--minimize", "--out",
    "--near-miss-log", "--near-miss-probes", "--help",
};

TEST(Fuzz, HelpMentionsEveryParsedFlag) {
  const auto r = run_fuzz("--help");
  EXPECT_EQ(r.exit_code, 0);
  for (const char* flag : kKnownFuzzFlags) {
    EXPECT_NE(r.output.find(flag), std::string::npos)
        << "flag " << flag << " is parsed but undocumented in --help";
  }
}

TEST(Fuzz, UnknownFlagAndMissingValueFail) {
  EXPECT_EQ(run_fuzz("--no-such-flag").exit_code, 1);
  EXPECT_EQ(run_fuzz("--plans").exit_code, 1);
  EXPECT_EQ(run_fuzz("--bounds /nonexistent/b.ini").exit_code, 1);
}

TEST(Fuzz, SmallFixedSeedRunPassesCleanly) {
  const auto r = run_fuzz("--plans 5 --seed 1");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("5 plan(s) checked"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("0 violation(s)"), std::string::npos) << r.output;
}

TEST(Fuzz, BadBoundsFileIsRejectedWithItsLine) {
  const std::string path = testing::TempDir() + "/bad_bounds.ini";
  FILE* f = fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  fputs("[faults]\nmax_drop = 1.5\n", f);
  fclose(f);
  const auto r = run_fuzz("--plans 1 --bounds " + path);
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("line 2"), std::string::npos) << r.output;
  remove(path.c_str());
}

}  // namespace
