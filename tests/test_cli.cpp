// End-to-end checks of the drhw_sched binary (path injected as DRHW_SCHED_BIN
// by CMake): workload parse errors exit 2 with file:line:column diagnostics,
// unknown flags exit 2 with usage + the registered policy/arrival lists on
// every subcommand, every choice flag rejects an unknown value with exit 2 and
// the valid values, `schedule` rejects a flag without its value, every command
// rejects extra arguments, each command's `--help` lists exactly its flags, bad
// user input exits 1 without an internal-check message, `online --perf` prints
// the kernel counters, `online` prints the campaign's numbers for the same
// workload file and runs the pocket_gl workload under every registered policy,
// `campaign --pivot` rejects an unknown metric or a missing name segment before
// any scenario runs and prints Table 1's columns, `campaign --catalogue
// ablation` validates a catalogue disjoint from the built-in one, `genwork` is
// seed-deterministic, and the genwork -> campaign -> online --trace -> trace
// verify pipeline the CI lane runs holds together.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <sys/wait.h>

#include <gtest/gtest.h>

#include "csv_rows.hpp"
#include "policy/registry.hpp"
#include "runner/scenario.hpp"
#include "util/table.hpp"

namespace {

struct CliResult {
  int exit_code = -1;
  std::string output;  // stdout + stderr interleaved
};

/// `redirect` sends stderr to a file instead of interleaving it.
CliResult run_cli(const std::string& args,
                  const std::string& redirect = "2>&1") {
  const std::string command = std::string(DRHW_SCHED_BIN) + " " + args +
                              " " + redirect;
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

/// The cells of the table row whose first cell is `first`, trimmed; empty
/// when no row matches.
std::vector<std::string> table_row(const std::string& output,
                                   const std::string& first) {
  std::istringstream lines(output);
  std::string line;
  while (std::getline(lines, line)) {
    std::vector<std::string> cells;
    std::istringstream fields(line);
    std::string cell;
    std::getline(fields, cell, '|');  // text before the first bar
    while (std::getline(fields, cell, '|')) {
      const auto begin = cell.find_first_not_of(' ');
      const auto end = cell.find_last_not_of(' ');
      cells.push_back(begin == std::string::npos
                          ? std::string()
                          : cell.substr(begin, end - begin + 1));
    }
    if (!cells.empty() && cells.front() == first) return cells;
  }
  return {};
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
  // The removed event-queue backend flag is unknown like any other.
  for (const char* subcommand :
       {"campaign --frobnicate", "online --frobnicate",
        "genwork --frobnicate", "trace frobnicate x",
        "campaign --queue heap", "online --queue heap"}) {
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

TEST(Cli, UnknownChoiceValueExitsTwoWithTheValidValues) {
  // Every choice flag rejects an unknown value the same way, before any
  // input is read: exit 2 and the valid values, one per line.
  const std::string missing = temp_dir("cli_choices") + "/missing.jsonl";
  const std::pair<std::string, std::vector<std::string>> cases[] = {
      {"online --replacement bogus",
       {"lru", "weight", "critical-first", "random", "oracle"}},
      {"online --discipline bogus", {"fifo", "priority"}},
      {"online --isp-discipline bogus", {"fifo", "priority"}},
      {"online --admission bogus",
       {"fifo_hol", "backfill_bypass", "window_reorder"}},
      {"online --trace-format bogus", {"jsonl", "binary"}},
      {"online --arrivals bogus",
       {"poisson", "bursty", "closed_loop", "periodic", "sporadic"}},
      {"campaign --catalogue bogus --dry-run", {"builtin", "ablation"}},
      {"trace render " + missing + " --format bogus", {"ascii", "svg"}}};
  for (const auto& [args, valid] : cases) {
    const CliResult result = run_cli(args);
    EXPECT_EQ(result.exit_code, 2) << args << "\n" << result.output;
    EXPECT_NE(result.output.find("unknown value 'bogus'"), std::string::npos)
        << args << "\n" << result.output;
    for (const std::string& value : valid)
      EXPECT_NE(result.output.find("\n  " + value + "\n"), std::string::npos)
          << args << ": " << value;
    EXPECT_EQ(result.output.find("cannot open"), std::string::npos) << args;
  }
}

TEST(Cli, PivotRejectsBadRequestsBeforeAnyScenarioRuns) {
  // Without --quiet every finished scenario prints a "[done/total]" line,
  // so their absence shows that nothing ran.
  const CliResult metric = run_cli("campaign --pivot 2:no_such_metric");
  EXPECT_EQ(metric.exit_code, 2) << metric.output;
  EXPECT_NE(metric.output.find("unknown metric 'no_such_metric'"),
            std::string::npos)
      << metric.output;
  for (const char* name : {"overhead_pct", "response_p95_ms", "wall_ms"})
    EXPECT_NE(metric.output.find(std::string("  ") + name + "\n"),
              std::string::npos)
        << name;
  EXPECT_EQ(metric.output.find("[1/"), std::string::npos) << metric.output;

  const CliResult segment =
      run_cli("campaign --filter fig6 --pivot 5:overhead_pct");
  EXPECT_EQ(segment.exit_code, 2) << segment.output;
  EXPECT_NE(segment.output.find("has no segment 5"), std::string::npos)
      << segment.output;
  EXPECT_EQ(segment.output.find("[1/"), std::string::npos) << segment.output;
}

TEST(Cli, PivotPrintsTheTable1Columns) {
  const CliResult result =
      run_cli("campaign --filter table1 --quiet --pivot 2:overhead_pct");
  ASSERT_EQ(result.exit_code, 0) << result.output;
  EXPECT_EQ(table_row(result.output, "scenario"),
            (std::vector<std::string>{"scenario", "no-prefetch",
                                      "design-time"}));
  // Table 1's JPEG decoder row: +20% on demand, +5% with prefetch.
  EXPECT_EQ(table_row(result.output, "table1/jpeg_dec"),
            (std::vector<std::string>{"table1/jpeg_dec", "19.75", "4.94"}));
}

TEST(Cli, AblationCatalogueIsOptInAndDisjointFromTheBuiltIn) {
  using drhw::Scenario;
  using drhw::ScenarioRegistry;
  const ScenarioRegistry ablations = ScenarioRegistry::ablations();
  const ScenarioRegistry builtin_registry = ScenarioRegistry::builtin();
  std::set<std::string> builtin_names;
  for (const Scenario& s : builtin_registry.scenarios())
    builtin_names.insert(s.name);
  for (const Scenario& s : ablations.scenarios())
    EXPECT_EQ(builtin_names.count(s.name), 0u) << s.name;

  const CliResult ablation =
      run_cli("campaign --catalogue ablation --list --dry-run");
  ASSERT_EQ(ablation.exit_code, 0) << ablation.output;
  EXPECT_NE(ablation.output.find("dry run: " +
                                 std::to_string(ablations.size()) +
                                 " scenarios validated"),
            std::string::npos)
      << ablation.output;
  for (const Scenario& s : ablations.scenarios())
    EXPECT_FALSE(table_row(ablation.output, s.name).empty()) << s.name;

  const CliResult builtin = run_cli("campaign --dry-run");
  ASSERT_EQ(builtin.exit_code, 0) << builtin.output;
  EXPECT_NE(builtin.output.find("dry run: " +
                                std::to_string(builtin_names.size()) +
                                " scenarios validated"),
            std::string::npos)
      << builtin.output;
  EXPECT_EQ(builtin_names.size(), 240u);

  const std::string workloads =
      std::string(DRHW_SOURCE_DIR) + "/examples/workloads";
  for (const std::string& args :
       {std::string("campaign --catalogue nope --dry-run"),
        "campaign --catalogue ablation --workload " + workloads +
            "/multimedia_mix.dwl --dry-run",
        "campaign --workload-dir " + workloads +
            " --catalogue ablation --dry-run"}) {
    const CliResult rejected = run_cli(args);
    EXPECT_EQ(rejected.exit_code, 2) << args << "\n" << rejected.output;
    EXPECT_NE(rejected.output.find("catalogue"), std::string::npos)
        << rejected.output;
  }
}

TEST(Cli, ScheduleReportsDesignTimeSearchStatistics) {
  const std::string dir = temp_dir("cli_schedule");
  const CliResult demo = run_cli("demo");
  ASSERT_EQ(demo.exit_code, 0) << demo.output;
  std::ofstream(dir + "/demo.json") << demo.output;
  const CliResult result = run_cli("schedule " + dir + "/demo.json --tiles 4");
  ASSERT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("optimal prefetch: 31.0 ms (B&B: 11 nodes, "
                               "proven optimal)"),
            std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("design-time CS loop: 2 passes, 18 B&B nodes, "
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
  const std::string trace = dir + "/small.trace.jsonl";
  ASSERT_EQ(run_cli("online --approach hybrid --iterations 5 --trace " + trace)
                .exit_code,
            0);
  for (const std::string& args :
       {"info " + graph + " --bogus", "dot " + graph + " extra",
        std::string("demo extra"), std::string("list-policies extra"),
        "trace info " + trace + " --bogus",
        "trace verify " + trace + " extra"}) {
    const CliResult result = run_cli(args);
    EXPECT_EQ(result.exit_code, 2) << args << "\n" << result.output;
    EXPECT_NE(result.output.find("usage:"), std::string::npos) << args;
    EXPECT_EQ(result.output.find("ideal makespan"), std::string::npos)
        << args;
    EXPECT_EQ(result.output.find("digraph"), std::string::npos) << args;
    for (const char* output :
         {"demo_pipeline", "description", "schema:", "replay verified"})
      EXPECT_EQ(result.output.find(output), std::string::npos) << args;
  }
}

TEST(Cli, HelpListsEveryFlagAndEveryListedFlagParses) {
  // Each command's help lists exactly these flags, so a flag added without
  // a help row, or dropped, fails here.
  const std::pair<std::string, std::vector<std::string>> commands[] = {
      {"demo", {}},
      {"info", {}},
      {"schedule", {"--tiles", "--latency-us", "--ports", "--resident"}},
      {"dot", {}},
      {"campaign",
       {"--list", "--dry-run", "--filter", "--threads", "--iterations",
        "--seed", "--catalogue", "--workload", "--workload-dir", "--json",
        "--csv", "--pivot", "--quiet"}},
      {"online",
       {"--workload", "--trace", "--trace-format", "--tiles", "--latency-us",
        "--ports", "--arrivals", "--rate", "--burst", "--think-us",
        "--period-us", "--deadline-scale", "--crit-fraction", "--preempt",
        "--discipline", "--isp", "--isp-discipline", "--replacement",
        "--lookahead", "--admission", "--contiguous", "--defrag", "--window",
        "--max-bypass", "--sched-cost-us", "--iterations", "--seed", "--perf",
        "--approach"}},
      {"genwork",
       {"--out", "--count", "--seed", "--tasks", "--variants", "--configs",
        "--min-nodes", "--max-nodes"}},
      {"trace info", {}},
      {"trace verify", {}},
      {"trace render",
       {"--format", "--out", "--width", "--from-us", "--until-us"}},
      {"list-policies", {}}};
  // Help goes to stdout, exits 0 and writes nothing to stderr.
  const std::string stderr_path = temp_dir("cli_help") + "/stderr.txt";
  const auto help = [&](const std::string& args) {
    const CliResult result = run_cli(args, "2>" + stderr_path);
    EXPECT_EQ(result.exit_code, 0) << args << "\n" << result.output;
    EXPECT_EQ(read_file(stderr_path), "") << args;
    return result.output;
  };
  const std::string overview = help("--help");
  std::size_t flags = 0;
  for (const auto& [command, expected] : commands) {
    EXPECT_NE(overview.find("drhw_sched " + command), std::string::npos)
        << command << "\n" << overview;
    const std::string text = help(command + " --help");
    EXPECT_EQ(text.rfind("usage: drhw_sched " + command, 0), 0u) << text;
    // A flag row is "  --flag METAVAR  help" (no METAVAR for a switch).
    std::vector<std::string> listed;
    std::istringstream lines(text);
    for (std::string line; std::getline(lines, line);) {
      if (line.rfind("  --", 0) != 0) continue;
      const std::string label = line.substr(2, line.find("  ", 2) - 2);
      const std::string flag = label.substr(0, label.find(' '));
      listed.push_back(flag);
      if (flag == label) continue;
      // A flag that takes a value is incomplete without one.
      const CliResult result = run_cli(command + " " + flag);
      EXPECT_EQ(result.exit_code, 2) << command << " " << flag << "\n"
                                     << result.output;
      EXPECT_NE(result.output.find("incomplete option '" + label + "'"),
                std::string::npos)
          << command << " " << flag << "\n" << result.output;
    }
    EXPECT_EQ(listed, expected) << command << "\n" << text;
    flags += listed.size();
  }
  EXPECT_EQ(flags, 59u);
  EXPECT_EQ(run_cli("").exit_code, 2);
}

TEST(Cli, OutOfRangeNumbersAreInputErrorsNotInternalFailures) {
  // Bad user input exits 1 with its own message, not an internal check.
  // A numeric flag value must be a whole number of its type: no prefix
  // read ("8x" as 8, "1e3" as 1) and no wrapped sign on a seed.
  const std::string dir = temp_dir("cli_bad_numbers");
  const std::string empty_graph = dir + "/empty.json";
  std::ofstream(empty_graph) << R"({"name":"t","subtasks":[],"edges":[]})";
  const std::string trace = dir + "/small.trace.jsonl";
  ASSERT_EQ(run_cli("online --approach hybrid --iterations 5 --trace " + trace)
                .exit_code,
            0);
  const std::string render = "trace render " + trace;
  const std::pair<std::string, std::string> cases[] = {
      {"online --iterations 0", "iterations < 1"},
      {"campaign --iterations 0 --quiet", "iterations < 1"},
      {"campaign --iterations 0 --dry-run", "iterations < 1"},
      {"online --iterations 1e3", "--iterations needs an integer, got '1e3'"},
      {"online --tiles 8x", "--tiles needs an integer, got '8x'"},
      {"online --tiles 99999999999", "--tiles value '99999999999' is out of "
                                     "range"},
      {"online --rate nan", "--rate needs a finite number, got 'nan'"},
      {"online --seed -1", "--seed needs a non-negative integer, got '-1'"},
      {"campaign --seed -3 --dry-run",
       "--seed needs a non-negative integer, got '-3'"},
      {"genwork --out " + dir + " --seed -1",
       "--seed needs a non-negative integer, got '-1'"},
      {"genwork --out " + dir + " --tasks 0", "fuzz workload: tasks < 1"},
      {"genwork --out " + dir + " --variants 0",
       "fuzz workload: variants < 1"},
      {"genwork --out " + dir + " --configs 0", "fuzz workload: configs < 1"},
      {"genwork --out " + dir + " --min-nodes 0",
       "fuzz workload: min_nodes < 1"},
      {"genwork --out " + dir + " --min-nodes 5 --max-nodes 2",
       "fuzz workload: max_nodes < min_nodes"},
      {"campaign --threads -1 --dry-run", "--threads needs a count >= 0"},
      {"schedule " + empty_graph, "graph JSON: the graph has no subtasks"},
      {"online --lookahead -1", "negative intertask_lookahead"},
      {"online --isp 0",
       "shared-ISP contention needs a platform with >= 1 ISP"},
      {"online --sched-cost-us -5", "negative scheduler cost"},
      {render + " --width 0", "--width needs a value > 0, got '0'"},
      {render + " --from-us -5", "--from-us needs a value >= 0, got '-5'"},
      {render + " --from-us 100 --until-us 50",
       "--until-us needs a value > --from-us (100), got 50"},
      {render + " --until-us 0", "--until-us needs a value > --from-us (0), "
                                 "got 0"}};
  for (const auto& [args, message] : cases) {
    const CliResult result = run_cli(args);
    EXPECT_EQ(result.exit_code, 1) << args << "\n" << result.output;
    EXPECT_NE(result.output.find("error: "), std::string::npos) << args;
    EXPECT_NE(result.output.find(message), std::string::npos)
        << args << "\n" << result.output;
    EXPECT_EQ(result.output.find("DRHW_CHECK"), std::string::npos) << args;
  }
  // The rejected genwork seed and shapes wrote no workload file.
  for (const auto& entry : std::filesystem::directory_iterator(dir))
    EXPECT_NE(entry.path().extension(), ".dwl") << entry.path();
  // Nor an output directory: a rejected shape leaves no trace on disk.
  const std::string fresh = dir + "/c";
  std::filesystem::remove_all(fresh);
  const CliResult rejected = run_cli("genwork --out " + fresh + " --tasks 0");
  EXPECT_EQ(rejected.exit_code, 1) << rejected.output;
  EXPECT_FALSE(std::filesystem::exists(fresh)) << fresh;
}

TEST(Cli, RejectedInputsPrintNothingOnStdout) {
  // An input the command rejects is rejected before any of its output: a
  // failed run leaves no partial report (Gantt charts, banner) on stdout.
  const std::string dir = temp_dir("cli_reject_before_output");
  const std::string graph = dir + "/demo.json";
  ASSERT_EQ(run_cli("demo > " + graph, "").exit_code, 0);
  const std::pair<std::string, int> cases[] = {
      {"schedule " + graph + " --resident 99", 1},
      {"online --iterations 5 --approach 'hybrid[bogus=1]'", 1},
      {"online --iterations 5 --trace " + dir +
           "/t.jsonl --approach hybrid --approach edf",
       2}};
  for (const auto& [args, exit_code] : cases) {
    const CliResult result = run_cli(args, "2>/dev/null");
    EXPECT_EQ(result.exit_code, exit_code) << args;
    EXPECT_EQ(result.output, "") << args;
  }
}

TEST(Cli, NumericFlagsAcceptWholeValues) {
  // Doubles keep their exponent form, and --sched-cost-us keeps its
  // 'paper' keyword beside a number.
  for (const char* args :
       {"online --rate 1e2 --iterations 5 --approach hybrid",
        "online --sched-cost-us paper --iterations 5 --approach hybrid",
        "online --sched-cost-us 250 --iterations 5 --approach hybrid"}) {
    const CliResult result = run_cli(args);
    EXPECT_EQ(result.exit_code, 0) << args << "\n" << result.output;
    EXPECT_NE(table_row(result.output, "hybrid").size(), 0u)
        << args << "\n" << result.output;
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
                           ", backlog walks ", "  phases: setup "})
    EXPECT_NE(result.output.find(line), std::string::npos) << line;
}

TEST(Cli, OnlineAgreesWithTheCampaignOnAWorkloadFile) {
  // `online` and `campaign --workload` describe the same Scenario (file
  // kind, online mode, 8 tiles, seed 2005, the file's mix), so the hybrid
  // row must print the campaign's numbers.
  const std::string dir = temp_dir("cli_agreement");
  const std::string workload =
      std::string(DRHW_SOURCE_DIR) + "/examples/workloads/multimedia_mix.dwl";
  const CliResult online =
      run_cli("online --workload " + workload +
              " --tiles 8 --approach hybrid --iterations 40 --seed 2005");
  ASSERT_EQ(online.exit_code, 0) << online.output;
  const CliResult campaign =
      run_cli("campaign --workload " + workload +
              " --iterations 40 --seed 2005 --quiet --csv " + dir + "/c.csv");
  ASSERT_EQ(campaign.exit_code, 0) << campaign.output;

  const std::vector<std::string> row = table_row(online.output, "hybrid");
  ASSERT_GE(row.size(), 5u) << online.output;
  bool found = false;
  for (const auto& csv_row :
       drhw::testing::csv_rows(read_file(dir + "/c.csv"))) {
    if (csv_row.at("name") != "file/multimedia_mix/hybrid") continue;
    found = true;
    EXPECT_EQ(row[2], drhw::fmt_pct(std::stod(csv_row.at("overhead_pct")), 2));
    EXPECT_EQ(row[4],
              drhw::fmt(std::stod(csv_row.at("response_ms")), 1) + " ms");
  }
  EXPECT_TRUE(found) << "no file/multimedia_mix/hybrid row in the CSV";
}

TEST(Cli, OnlineRunsPocketGlUnderEveryPolicy) {
  const CliResult result = run_cli("online --workload pocket_gl --iterations 5");
  ASSERT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("online simulation: pocket_gl,"),
            std::string::npos)
      << result.output;
  for (const std::string& policy : drhw::PolicyRegistry::instance().names())
    EXPECT_EQ(table_row(result.output, policy).size(), 14u) << policy;
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
  EXPECT_NE(info.output.find("drhw-trace-v2"), std::string::npos);
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
