// End-to-end checks of the drhw_sched binary (path injected as
// DRHW_SCHED_BIN by CMake): workload parse errors exit 2 with
// file:line:column diagnostics, unknown flags exit 2 with usage + the
// registered policy/arrival lists on every subcommand, `schedule` rejects a
// flag without its value, `info`/`dot` reject extra arguments, bad user
// input exits 1 without an internal-check message, `online --perf` prints
// the kernel counters, `genwork` is seed-deterministic, and the
// genwork -> campaign -> online --trace -> trace verify pipeline the CI lane
// runs holds together.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>

#include <sys/wait.h>

#include <gtest/gtest.h>

namespace {

struct CliResult {
  int exit_code = -1;
  std::string output;  // stdout + stderr interleaved
};

CliResult run_cli(const std::string& args) {
  const std::string command = std::string(DRHW_SCHED_BIN) + " " + args +
                              " 2>&1";
  FILE* pipe = popen(command.c_str(), "r");
  EXPECT_NE(pipe, nullptr) << command;
  CliResult result;
  char buffer[4096];
  while (fgets(buffer, sizeof(buffer), pipe) != nullptr)
    result.output += buffer;
  const int status = pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

std::string temp_dir(const std::string& leaf) {
  const std::string dir = testing::TempDir() + "/" + leaf;
  std::filesystem::create_directories(dir);
  return dir;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(Cli, WorkloadParseErrorExitsTwoWithPosition) {
  const std::string dir = temp_dir("cli_parse_error");
  const std::string path = dir + "/bad.dwl";
  std::ofstream(path) << "drhw-workload-v1\nbogus 1\n";
  const CliResult result =
      run_cli("online --workload " + path + " --iterations 1");
  EXPECT_EQ(result.exit_code, 2) << result.output;
  EXPECT_NE(result.output.find(path + ":2:1:"), std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("unknown key 'bogus'"), std::string::npos);
}

TEST(Cli, UnknownFlagExitsTwoWithRegisteredLists) {
  for (const char* subcommand :
       {"campaign --frobnicate", "online --frobnicate",
        "genwork --frobnicate", "trace frobnicate x"}) {
    const CliResult result = run_cli(subcommand);
    EXPECT_EQ(result.exit_code, 2) << subcommand << "\n" << result.output;
    EXPECT_NE(result.output.find("usage:"), std::string::npos) << subcommand;
    EXPECT_NE(result.output.find("registered policies:"), std::string::npos)
        << subcommand;
    EXPECT_NE(result.output.find("registered arrival kinds:"),
              std::string::npos)
        << subcommand;
  }
}

TEST(Cli, ScheduleReportsDesignTimeSearchStatistics) {
  const std::string dir = temp_dir("cli_schedule");
  const CliResult demo = run_cli("demo");
  ASSERT_EQ(demo.exit_code, 0) << demo.output;
  std::ofstream(dir + "/demo.json") << demo.output;
  const CliResult result = run_cli("schedule " + dir + "/demo.json --tiles 4");
  ASSERT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("optimal prefetch: 31.0 ms (B&B: 36 nodes, "
                               "proven optimal)"),
            std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("design-time CS loop: 2 passes, 43 B&B nodes, "
                               "0 node-budget hits"),
            std::string::npos)
      << result.output;
}

TEST(Cli, ScheduleRejectsAFlagWithoutItsValue) {
  // A trailing flag with no value (or an unknown flag after a complete
  // pair) is a usage error, not silently ignored in favour of defaults.
  const std::string dir = temp_dir("cli_schedule_flags");
  const CliResult demo = run_cli("demo");
  ASSERT_EQ(demo.exit_code, 0) << demo.output;
  std::ofstream(dir + "/demo.json") << demo.output;
  for (const char* flags : {"--tiles", "--tiles 4 --bogus"}) {
    const CliResult result =
        run_cli("schedule " + dir + "/demo.json " + flags);
    EXPECT_EQ(result.exit_code, 2) << flags << "\n" << result.output;
    EXPECT_NE(result.output.find("usage:"), std::string::npos) << flags;
    EXPECT_EQ(result.output.find("optimal prefetch"), std::string::npos)
        << flags;
  }
}

TEST(Cli, InfoAndDotTakeExactlyOneGraph) {
  // An extra argument is a usage error, not silently dropped.
  const std::string dir = temp_dir("cli_info_dot");
  const CliResult demo = run_cli("demo");
  ASSERT_EQ(demo.exit_code, 0) << demo.output;
  const std::string graph = dir + "/demo.json";
  std::ofstream(graph) << demo.output;
  ASSERT_EQ(run_cli("info " + graph).exit_code, 0);
  ASSERT_EQ(run_cli("dot " + graph).exit_code, 0);
  for (const std::string& args :
       {"info " + graph + " --bogus", "dot " + graph + " extra"}) {
    const CliResult result = run_cli(args);
    EXPECT_EQ(result.exit_code, 2) << args << "\n" << result.output;
    EXPECT_NE(result.output.find("usage:"), std::string::npos) << args;
    EXPECT_EQ(result.output.find("ideal makespan"), std::string::npos)
        << args;
    EXPECT_EQ(result.output.find("digraph"), std::string::npos) << args;
  }
}

TEST(Cli, OutOfRangeNumbersAreInputErrorsNotInternalFailures) {
  // Bad user input exits 1 with its own message, not an internal check.
  const std::pair<const char*, const char*> cases[] = {
      {"online --iterations 0", "online run needs >= 1 iteration"},
      {"campaign --iterations 0 --quiet", "iterations < 1"},
      {"campaign --iterations 0 --dry-run", "iterations < 1"}};
  for (const auto& [args, message] : cases) {
    const CliResult result = run_cli(args);
    EXPECT_EQ(result.exit_code, 1) << args << "\n" << result.output;
    EXPECT_NE(result.output.find("error: "), std::string::npos) << args;
    EXPECT_NE(result.output.find(message), std::string::npos)
        << args << "\n" << result.output;
    EXPECT_EQ(result.output.find("DRHW_CHECK"), std::string::npos) << args;
  }
}

TEST(Cli, OnlinePerfPrintsTheKernelCounters) {
  const CliResult result =
      run_cli("online --approach hybrid --iterations 5 --perf");
  ASSERT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("perf counters: hybrid"), std::string::npos)
      << result.output;
  for (const char* line : {"perf: events ", "  by kind: ", "queue depth max ",
                           "  admission picks ", "backlog entries examined",
                           "  phases: setup "})
    EXPECT_NE(result.output.find(line), std::string::npos) << line;
}

TEST(Cli, GenworkIsSeedDeterministic) {
  const std::string dir_a = temp_dir("cli_genwork_a");
  const std::string dir_b = temp_dir("cli_genwork_b");
  const std::string flags = " --count 3 --seed 9 --tasks 3";
  ASSERT_EQ(run_cli("genwork --out " + dir_a + flags).exit_code, 0);
  ASSERT_EQ(run_cli("genwork --out " + dir_b + flags).exit_code, 0);

  int files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir_a)) {
    const std::string name = entry.path().filename().string();
    const std::string a = read_file(dir_a + "/" + name);
    EXPECT_EQ(a, read_file(dir_b + "/" + name)) << name;
    EXPECT_EQ(a.rfind("drhw-workload-v1\n", 0), 0u) << name;
    ++files;
  }
  EXPECT_EQ(files, 3);
}

TEST(Cli, GenworkCampaignTraceVerifyPipeline) {
  // The CI lane, in miniature: fuzz workloads, campaign over them, record
  // a trace, replay-verify it, render it.
  const std::string dir = temp_dir("cli_pipeline");
  ASSERT_EQ(run_cli("genwork --out " + dir + " --count 2 --seed 31")
                .exit_code,
            0);

  const CliResult campaign = run_cli(
      "campaign --workload-dir " + dir + " --iterations 20 --quiet --csv " +
      dir + "/campaign.csv");
  EXPECT_EQ(campaign.exit_code, 0) << campaign.output;
  const std::string csv = read_file(dir + "/campaign.csv");
  EXPECT_NE(csv.find("file/fuzz"), std::string::npos) << csv;

  const std::string trace_path = dir + "/run.trace.jsonl";
  const CliResult online = run_cli(
      "online --workload " + dir + "/fuzz000031.dwl" +
      " --approach hybrid --iterations 40 --trace " + trace_path);
  EXPECT_EQ(online.exit_code, 0) << online.output;

  const CliResult verify = run_cli("trace verify " + trace_path);
  EXPECT_EQ(verify.exit_code, 0) << verify.output;
  EXPECT_NE(verify.output.find("replay verified"), std::string::npos);

  const CliResult render = run_cli("trace render " + trace_path +
                                   " --format svg --out " + dir + "/g.svg");
  EXPECT_EQ(render.exit_code, 0) << render.output;
  EXPECT_NE(read_file(dir + "/g.svg").find("<svg"), std::string::npos);

  const CliResult info = run_cli("trace info " + trace_path);
  EXPECT_EQ(info.exit_code, 0) << info.output;
  EXPECT_NE(info.output.find("drhw-trace-v1"), std::string::npos);
}

TEST(Cli, TraceRecordingRequiresASingleApproach) {
  const std::string dir = temp_dir("cli_trace_multi");
  const CliResult result = run_cli(
      "online --workload multimedia --iterations 5 --trace " + dir +
      "/t.jsonl --approach hybrid --approach no-prefetch");
  EXPECT_EQ(result.exit_code, 2) << result.output;
  EXPECT_NE(result.output.find("exactly one --approach"), std::string::npos);
}

}  // namespace
