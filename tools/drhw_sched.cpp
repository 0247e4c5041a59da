// drhw_sched — command-line driver for the hybrid prefetch scheduling flow.
//
// drhw-lint: allow-file(wall-clock: campaign wall-time report is host-side)
//
// Usage:
//   drhw_sched demo                         write a sample task graph JSON
//   drhw_sched info <graph.json>            graph statistics + CS set
//   drhw_sched schedule <graph.json> [opts] run the flow, print Gantt charts
//   drhw_sched dot <graph.json>             Graphviz export
//   drhw_sched campaign [opts]              run a scenario campaign
//   drhw_sched online [opts]                online (event-driven) simulation
//   drhw_sched genwork [opts]               generate fuzzed .dwl workloads
//   drhw_sched trace info|verify|render F   inspect / replay-verify / render
//                                           a recorded trace
//   drhw_sched list-policies                print the registered prefetch
//                                           policies (also available as a
//                                           --list-policies flag on the
//                                           campaign and online subcommands)
//
// Options for `schedule`:
//   --tiles N          DRHW tiles (default 8)
//   --latency-us L     reconfiguration latency in us (default 4000)
//   --ports N          reconfiguration ports (default 1)
//   --resident a,b,c   subtask ids already resident (reuse)
//
// Options for `campaign`:
//   --list             print the matching scenarios and exit
//   --dry-run          enumerate + validate the campaign, don't simulate
//   --filter STR       keep scenarios whose name or family contains STR
//   --threads N        worker threads (default: hardware concurrency)
//   --iterations N     override the per-scenario iteration count
//   --seed S           base RNG seed of the catalogue
//   --catalogue C      builtin | ablation (default builtin): the paper's
//                      experiments, or ScenarioRegistry::ablations()
//   --workload FILE    replace the built-in catalogue with one scenario
//                      family per .dwl workload file (family "file/<stem>",
//                      online mode, one scenario per registered policy;
//                      repeatable)
//   --workload-dir DIR same, over every .dwl file in DIR (sorted by name)
//   --json FILE        write the full JSON report
//   --csv FILE         write the per-scenario CSV report
//   --pivot SEG:METRIC print METRIC with the distinct values of name
//                      segment SEG (0 = family) as columns and the rest
//                      of the name as rows (repeatable; an unknown metric
//                      lists the valid ones and exits 2)
//   --quiet            suppress per-scenario progress lines
//
// Options for `online`. The flags describe one online-mode Scenario, run
// once per approach through the campaign engine's sampler and kernel
// options (one table row each, shared arrival stream); --approach,
// --perf and the --trace flags only steer the command itself:
//   --workload W       multimedia | pocket_gl | a .dwl workload file
//                      (default multimedia; a file's arrivals block is
//                      applied unless arrival flags are given)
//   --trace FILE       record a structured event trace (drhw-trace-v2) of
//                      the run; needs exactly one --approach
//   --trace-format F   jsonl | binary trace encoding (default jsonl)
//   --tiles N          DRHW tiles (default 16)
//   --latency-us L     reconfiguration latency in us (default 4000)
//   --ports N          reconfiguration ports (default 1)
//   --arrivals K       poisson | bursty | closed_loop | periodic | sporadic
//                      (default poisson; unknown kinds list the registered
//                      ones and exit 2)
//   --rate R           arrivals (or bursts) per second (default 20)
//   --burst N          instances per burst (bursty; default 4)
//   --think-us T       closed-loop think time in us (default 1000)
//   --period-us P      periodic/sporadic inter-arrival base in us
//                      (default: derived from --rate)
//   --deadline-scale X real-time mode: stamp every instance with deadline
//                      arrival + X x ideal makespan (0 = deadlines off);
//                      adds a per-policy deadline summary after the table
//   --crit-fraction F  fraction of instances drawn high-criticality
//                      (default 0.25; with --deadline-scale)
//   --preempt          checkpoint low-criticality live instances to admit
//                      blocked high-criticality arrivals (needs
//                      --deadline-scale)
//   --discipline D     fifo | priority port arbitration (default fifo)
//   --isp N            model the ISPs as a shared contended pool of N
//                      servers (default: per-instance ISPs)
//   --isp-discipline D fifo | priority arbitration between waiting ISP
//                      executions (with --isp; default fifo)
//   --replacement R    lru | weight | critical-first | random | oracle
//   --lookahead N      backlog-prefetch depth in queued instances (default 1)
//   --admission P      fifo_hol | backfill_bypass | window_reorder
//   --contiguous       require contiguous free tile runs for admission
//   --defrag           online defragmentation (implies --contiguous)
//   --window N         reorder window for window_reorder (default 4)
//   --max-bypass N     overtakes the queue head tolerates (default 8)
//   --sched-cost-us C  per-admission scheduler cost on the timeline;
//                      "paper" picks the Section 4 value per approach
//   --iterations N     sampler batches to draw (default 500)
//   --seed S           RNG seed (default 2005)
//   --perf             print the kernel perf-counter summary per approach
//                      (event counts, queue depth histogram, allocation
//                      counts, phase timings) after the table
//   --approach P       restrict to one policy, by registered name with
//                      optional parameters, e.g. hybrid[intertask=0]
//                      (default: every registered policy)
//
// Options for `genwork` (seeded workload fuzzer):
//   --out DIR          output directory (created; default ".")
//   --count N          number of workload files (default 10)
//   --seed S           base seed; file i uses seed S + i (default 1)
//   --tasks N          tasks per workload (default 4)
//   --variants N       scenario variants per task (default 2)
//   --configs N        shared configuration space (default 16)
//   --min-nodes N      minimum DAG nodes per task (default 3)
//   --max-nodes N      maximum DAG nodes per task (default 10)
//
// Options for `trace render`:
//   --format F         ascii | svg (default ascii)
//   --out FILE         write the rendering to FILE instead of stdout
//   --width N          timeline width in characters / pixels (> 0)
//   --from-us T        window start in simulated us (>= 0, default 0)
//   --until-us T       window end in simulated us (> --from-us, default:
//                      the horizon)

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <system_error>
#include <type_traits>
#include <utility>
#include <vector>

#include "graph/algorithms.hpp"
#include "graph/dot.hpp"
#include "graph/serialization.hpp"
#include "platform/platform.hpp"
#include "policy/names.hpp"
#include "policy/registry.hpp"
#include "prefetch/bnb.hpp"
#include "prefetch/critical_subtasks.hpp"
#include "runner/campaign.hpp"
#include "runner/report.hpp"
#include "runner/scenario.hpp"
#include "schedule/list_scheduler.hpp"
#include "sim/event_sim.hpp"
#include "sim/gantt.hpp"
#include "sim/system_sim.hpp"
#include "trace/trace.hpp"
#include "util/table.hpp"
#include "wio/fuzz.hpp"
#include "wio/workload_format.hpp"

namespace {

using namespace drhw;

int usage() {
  std::cerr << "usage: drhw_sched demo\n"
               "       drhw_sched info <graph.json>\n"
               "       drhw_sched schedule <graph.json> [--tiles N]"
               " [--latency-us L] [--ports N] [--resident a,b,c]\n"
               "       drhw_sched dot <graph.json>\n"
               "       drhw_sched list-policies\n"
               "       drhw_sched campaign [--list] [--list-policies]"
               " [--dry-run]"
               " [--filter STR] [--threads N] [--iterations N] [--seed S]"
               " [--catalogue builtin|ablation]"
               " [--workload FILE] [--workload-dir DIR]"
               " [--json FILE] [--csv FILE] [--pivot SEG:METRIC]"
               " [--quiet]\n"
               "       drhw_sched online [--workload W|FILE.dwl] [--tiles N]"
               " [--latency-us L] [--ports N] [--arrivals K] [--rate R]"
               " [--burst N] [--think-us T] [--discipline D]"
               " [--isp N] [--isp-discipline D] [--period-us P]"
               " [--deadline-scale X] [--crit-fraction F] [--preempt]"
               " [--replacement R] [--lookahead N] [--admission P]"
               " [--contiguous] [--defrag] [--window N] [--max-bypass N]"
               " [--sched-cost-us C]"
               " [--iterations N] [--seed S] [--perf]"
               " [--trace FILE] [--trace-format F]"
               " [--approach P] [--list-policies]\n"
               "       drhw_sched genwork [--out DIR] [--count N] [--seed S]"
               " [--tasks N] [--variants N] [--configs N]"
               " [--min-nodes N] [--max-nodes N]\n"
               "       drhw_sched trace info <trace>\n"
               "       drhw_sched trace verify <trace>\n"
               "       drhw_sched trace render <trace> [--format ascii|svg]"
               " [--out FILE] [--width N] [--from-us T] [--until-us T]\n";
  return 2;
}

/// Shared unknown-flag behaviour of the campaign/online/genwork/trace/
/// schedule/info/dot subcommands: usage plus the registered policy and
/// arrival-kind lists, exit code 2.
int usage_unknown(const char* subcommand, const std::string& flag) {
  std::cerr << "error: unknown or incomplete option '" << flag
            << "' for 'drhw_sched " << subcommand << "'\n";
  usage();
  std::cerr << "registered policies:\n";
  for (const std::string& name : PolicyRegistry::instance().names())
    std::cerr << "  " << name << "\n";
  std::cerr << "registered arrival kinds:\n";
  for (const std::string& name : arrival_kind_names())
    std::cerr << "  " << name << "\n";
  return 2;
}

/// The registered prefetch policies, one per line (--list-policies).
int cmd_list_policies() {
  TablePrinter table({"policy", "description"});
  const PolicyRegistry& registry = PolicyRegistry::instance();
  for (const std::string& name : registry.names())
    table.add_row({name, registry.description(name)});
  table.print(std::cout);
  return 0;
}

/// Parses a --approach value into a PolicySpec. An unknown policy name
/// prints the registered names and exits nonzero (exit code 2) instead of
/// surfacing an exception trace.
PolicySpec parse_policy_arg(const std::string& text) {
  const PolicySpec spec = PolicySpec::parse(text);
  if (!PolicyRegistry::instance().contains(spec.name)) {
    std::cerr << "error: unknown policy '" << spec.name
              << "'\nregistered policies:\n";
    for (const std::string& name : PolicyRegistry::instance().names())
      std::cerr << "  " << name << "\n";
    std::cerr << "(see drhw_sched list-policies)\n";
    std::exit(2);
  }
  return spec;
}

/// Parses an --arrivals value. An unknown kind prints the registered
/// arrival kinds and exits 2, mirroring parse_policy_arg().
ArrivalProcess::Kind parse_arrivals_arg(const std::string& text) {
  try {
    return arrival_kind_from_string(text);
  } catch (const std::invalid_argument&) {
    std::cerr << "error: unknown arrival kind '" << text
              << "'\nregistered arrival kinds:\n";
    for (const std::string& name : arrival_kind_names())
      std::cerr << "  " << name << "\n";
    std::exit(2);
  }
}

/// Parses a --pivot metric name. An unknown metric prints the campaign
/// metrics and exits 2, mirroring parse_policy_arg().
std::string parse_metric_arg(const std::string& text) {
  const std::vector<std::string> names = metric_names();
  if (std::find(names.begin(), names.end(), text) == names.end()) {
    std::cerr << "error: unknown metric '" << text
              << "'\ncampaign metrics:\n";
    for (const std::string& name : names) std::cerr << "  " << name << "\n";
    std::exit(2);
  }
  return text;
}

/// Parses a whole flag value as a T. std::from_chars reads no leading
/// whitespace or '+', and no '-' for an unsigned T, so a trailing character
/// ("8x"), an exponent on an integer ("1e3"), a sign on a seed and an
/// out-of-range value are input errors that name the flag, never a silently
/// read prefix or a wrapped value. Doubles must also be finite.
template <typename T>
T parse_number(const std::string& flag, const std::string& text) {
  T value{};
  const char* const last = text.data() + text.size();
  const auto [end, error] = std::from_chars(text.data(), last, value);
  if (error == std::errc::result_out_of_range)
    throw std::invalid_argument(flag + " value '" + text + "' is out of range");
  bool ok = error == std::errc() && end == last;
  if constexpr (std::is_floating_point_v<T>) ok = ok && std::isfinite(value);
  if (!ok) {
    const char* kind = std::is_floating_point_v<T> ? "a finite number"
                       : std::is_unsigned_v<T>     ? "a non-negative integer"
                                                   : "an integer";
    throw std::invalid_argument(flag + " needs " + kind + ", got '" + text +
                                "'");
  }
  return value;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::invalid_argument("cannot open '" + path + "'");
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

SubtaskGraph demo_graph() {
  SubtaskGraph g("demo_pipeline");
  const auto a = g.add_subtask({"capture", ms(6), Resource::drhw});
  const auto b = g.add_subtask({"filter", ms(12), Resource::drhw});
  const auto c = g.add_subtask({"feature", ms(9), Resource::drhw});
  const auto d = g.add_subtask({"classify", ms(7), Resource::drhw});
  const auto e = g.add_subtask({"report", ms(2), Resource::isp});
  g.add_edge(a, b);
  g.add_edge(a, c);
  g.add_edge(b, d);
  g.add_edge(c, d);
  g.add_edge(d, e);
  g.finalize();
  return g;
}

int cmd_demo() {
  std::cout << graph_to_json(demo_graph());
  return 0;
}

int cmd_info(const std::string& path) {
  const auto graph = graph_from_json(read_file(path));
  const auto platform = virtex2_platform(8);
  const auto placement = list_schedule(graph, platform.tiles, 1);
  const auto design = compute_hybrid_schedule(graph, placement, platform);
  const auto weights = subtask_weights(graph);

  std::cout << "graph: " << graph.name() << "\n"
            << "subtasks: " << graph.size() << " (" << graph.drhw_count()
            << " on DRHW)\n"
            << "critical path: " << fmt_ms(critical_path_length(graph))
            << " ms\n"
            << "ideal makespan (8 tiles): " << fmt_ms(placement.ideal_makespan)
            << " ms\n";
  TablePrinter table({"id", "name", "exec", "resource", "weight",
                      "critical"});
  for (std::size_t s = 0; s < graph.size(); ++s) {
    const auto& node = graph.subtask(static_cast<SubtaskId>(s));
    const bool critical =
        std::find(design.critical.begin(), design.critical.end(),
                  static_cast<SubtaskId>(s)) != design.critical.end();
    table.add_row({std::to_string(s), node.name,
                   fmt_ms(node.exec_time) + " ms",
                   node.resource == Resource::drhw ? "drhw" : "isp",
                   fmt_ms(weights[s]) + " ms", critical ? "yes" : ""});
  }
  table.print(std::cout);
  return 0;
}

int cmd_schedule(const std::string& path, int tiles, time_us latency,
                 int ports, const std::vector<int>& resident_ids) {
  const auto graph = graph_from_json(read_file(path));
  PlatformConfig platform = virtex2_platform(tiles);
  platform.reconfig_latency = latency;
  platform.reconfig_ports = ports;
  platform.validate();

  const PreparedScenario prep = prepare_scenario(graph, tiles, platform);
  const Placement& placement = prep.placement;
  std::cout << "ideal makespan: " << fmt_ms(placement.ideal_makespan)
            << " ms\n\n";

  const auto on_demand =
      evaluate(graph, placement, platform, on_demand_all(graph, placement));
  std::cout << "on-demand loading: " << fmt_ms(on_demand.makespan)
            << " ms\n"
            << render_gantt(graph, placement, on_demand) << "\n";

  std::vector<bool> needs(graph.size(), false);
  for (std::size_t s = 0; s < graph.size(); ++s)
    needs[s] = placement.on_drhw(static_cast<SubtaskId>(s));
  const auto optimal = optimal_prefetch(graph, placement, platform, needs);
  std::cout << "optimal prefetch: " << fmt_ms(optimal.eval.makespan)
            << " ms (B&B: " << optimal.nodes_explored << " nodes, "
            << (optimal.proven_optimal ? "proven optimal"
                                       : "node budget hit, best found")
            << ")\n"
            << render_gantt(graph, placement, optimal.eval) << "\n";

  const HybridSchedule& design = prep.hybrid;
  std::vector<bool> resident(graph.size(), false);
  for (int id : resident_ids) {
    if (id < 0 || static_cast<std::size_t>(id) >= graph.size())
      throw std::invalid_argument("--resident id out of range");
    resident[static_cast<std::size_t>(id)] = true;
  }
  const auto hybrid =
      PolicyRegistry::instance().create(PolicySpec(policy_names::hybrid));
  const SequentialSchedule run = evaluate_instance_plan(
      prep, platform, hybrid->plan(prep, resident, PolicyContext{}));
  std::cout << "hybrid (|CS| = " << design.critical.size() << ", "
            << run.init_loads.size() << " init loads, "
            << run.cancelled_loads << " cancelled): "
            << fmt_ms(run.span) << " ms\n"
            << "design-time CS loop: " << design.loop_iterations
            << " passes, " << design.bnb_nodes << " B&B nodes, "
            << design.bnb_budget_hits << " node-budget hits\n";
  GanttOptions options;
  options.init_duration = run.init_duration;
  options.init_loads = run.init_loads;
  std::cout << render_gantt(graph, placement, run.eval, options);
  return 0;
}

int cmd_dot(const std::string& path) {
  const auto graph = graph_from_json(read_file(path));
  write_dot(std::cout, graph);
  return 0;
}

struct CampaignCliOptions {
  bool list = false;
  bool dry_run = false;
  bool quiet = false;
  std::string filter;
  int threads = 0;
  int iterations = 1000;
  std::uint64_t seed = 2005;
  /// --catalogue ablation: ScenarioRegistry::ablations() instead of
  /// builtin().
  bool ablation = false;
  /// .dwl files (from --workload and --workload-dir). Non-empty replaces
  /// the catalogue with one "file/<stem>" family per file.
  std::vector<std::string> workload_files;
  std::string json_path;
  std::string csv_path;
  /// --pivot requests as (name segment, metric), one table each.
  std::vector<std::pair<std::size_t, std::string>> pivots;
};

/// One scenario family per workload file: every registered prefetch policy
/// over the file's mix under online arrivals (the file's own arrivals
/// block when present).
ScenarioRegistry file_registry(const CampaignCliOptions& cli) {
  ScenarioRegistry registry;
  for (const std::string& path : cli.workload_files) {
    // Parse up front: a bad file should fail before any simulation, with
    // its line/column diagnostic (exit 2 via the WioParseError handler).
    const WorkloadFile workload = load_workload_file(path);
    const std::string stem = std::filesystem::path(path).stem().string();
    for (const std::string& policy : PolicyRegistry::instance().names()) {
      Scenario s;
      s.name = "file/" + stem + "/" + policy;
      s.family = "file/" + stem;
      s.workload = WorkloadKind::file;
      s.workload_file = path;
      s.mode = ScenarioMode::online;
      s.sim.policy = PolicySpec{policy};
      s.sim.iterations = cli.iterations;
      s.sim.seed = cli.seed;
      if (workload.has_arrivals) s.arrivals = workload.arrivals;
      registry.add(std::move(s));
    }
  }
  return registry;
}

int cmd_campaign(const CampaignCliOptions& cli) {
  const auto registry =
      !cli.workload_files.empty() ? file_registry(cli)
      : cli.ablation ? ScenarioRegistry::ablations(cli.iterations, cli.seed)
                     : ScenarioRegistry::builtin(cli.iterations, cli.seed);
  const std::vector<Scenario> scenarios = registry.match(cli.filter);
  if (scenarios.empty()) {
    std::cerr << "no scenario matches filter '" << cli.filter << "'\n";
    return 1;
  }
  for (const auto& [segment, metric] : cli.pivots)
    for (const Scenario& s : scenarios)
      if (segment >= name_segments(s.name)) {
        std::cerr << "error: --pivot " << segment << ":" << metric
                  << ": scenario '" << s.name << "' has no segment "
                  << segment << "\n";
        return 2;
      }

  if (cli.list || cli.dry_run) {
    TablePrinter table({"name", "workload", "approach", "tiles", "latency",
                        "iterations"});
    for (const Scenario& s : scenarios) {
      s.validate();
      table.add_row({s.name, to_string(s.workload), to_string(s.sim.policy),
                     std::to_string(s.sim.platform.tiles),
                     fmt_ms(s.sim.platform.reconfig_latency, 1) + " ms",
                     std::to_string(s.sim.iterations)});
    }
    if (cli.list) table.print(std::cout);
    std::cout << (cli.dry_run ? "dry run: " : "") << scenarios.size()
              << " scenarios validated\n";
    return 0;
  }

  // Open the report files up front: an unwritable path must not cost a
  // full campaign run.
  std::ofstream json_out, csv_out;
  if (!cli.json_path.empty()) {
    json_out.open(cli.json_path);
    if (!json_out)
      throw std::invalid_argument("cannot write " + cli.json_path);
  }
  if (!cli.csv_path.empty()) {
    csv_out.open(cli.csv_path);
    if (!csv_out) throw std::invalid_argument("cannot write " + cli.csv_path);
  }

  CampaignOptions options;
  options.threads = cli.threads;
  if (!cli.quiet) {
    options.on_result = [](const ScenarioResult& result, std::size_t done,
                           std::size_t total) {
      std::cerr << "[" << done << "/" << total << "] " << result.scenario.name
                << (result.ok ? "" : "  FAILED: " + result.error) << "  ("
                << fmt(result.wall_ms, 0) << " ms)\n";
    };
  }

  const auto t0 = std::chrono::steady_clock::now();
  const auto results = CampaignRunner(options).run(scenarios);
  const auto t1 = std::chrono::steady_clock::now();
  const double wall_s = std::chrono::duration<double>(t1 - t0).count();

  StatsAggregator aggregator;
  aggregator.add(results);

  std::size_t failed = 0;
  for (const ScenarioResult& result : results) failed += !result.ok;

  TablePrinter table({"family", "scenarios", "failed", "overhead mean",
                      "overhead p95", "reuse mean", "makespan mean"});
  auto metric_cell = [](const GroupSummary& g, const char* metric,
                        double MetricSummary::*field, const char* suffix) {
    const auto it = g.metrics.find(metric);
    return it == g.metrics.end() ? std::string("-")
                                 : fmt(it->second.*field, 2) + suffix;
  };
  for (const GroupSummary& g : aggregator.by_family())
    table.add_row(
        {g.family, std::to_string(g.scenarios), std::to_string(g.failed),
         metric_cell(g, "overhead_pct", &MetricSummary::mean, "%"),
         metric_cell(g, "overhead_pct", &MetricSummary::p95, "%"),
         metric_cell(g, "reuse_pct", &MetricSummary::mean, "%"),
         metric_cell(g, "makespan_ms", &MetricSummary::mean, " ms")});
  table.print(std::cout);
  std::cout << "\n"
            << results.size() << " scenarios in " << fmt(wall_s, 1) << " s ("
            << fmt(static_cast<double>(results.size()) / wall_s, 1)
            << "/s)\n";
  for (const auto& [segment, metric] : cli.pivots) {
    std::cout << "\n";
    print_pivot(std::cout, pivot_results(results, segment, metric));
  }

  if (json_out.is_open()) {
    json_out << campaign_to_json(results, aggregator);
    std::cout << "JSON report: " << cli.json_path << "\n";
  }
  if (csv_out.is_open()) {
    csv_out << campaign_to_csv(results);
    std::cout << "CSV report: " << cli.csv_path << "\n";
  }
  return failed == 0 ? 0 : 1;
}

/// What `online` needs beyond the Scenario its flags describe.
struct OnlineCliOptions {
  /// The --workload value as given (multimedia, pocket_gl or a .dwl path),
  /// printed in the banner.
  std::string workload = "multimedia";
  /// Policies to run, one table row each; empty = every registered policy.
  std::vector<PolicySpec> policies;
  /// Print perf_summary() per approach after the table.
  bool perf = false;
  /// Record a structured event trace to this path (needs exactly one
  /// approach, so the trace maps to one report).
  std::string trace_path;
  TraceFormat trace_format = TraceFormat::jsonl;
  /// --sched-cost-us paper: each row charges its approach's Section 4
  /// per-admission cost instead of the scenario's fixed one.
  bool paper_sched_cost = false;
  /// Set when any arrival flag was given; a .dwl workload's arrivals block
  /// then stays overridden by the command line.
  bool user_arrivals = false;
};

bool ends_with(const std::string& text, const std::string& suffix) {
  return text.size() >= suffix.size() &&
         text.compare(text.size() - suffix.size(), suffix.size(), suffix) == 0;
}

ReplacementPolicy replacement_from_string(const std::string& text) {
  for (ReplacementPolicy policy :
       {ReplacementPolicy::lru, ReplacementPolicy::weight_aware,
        ReplacementPolicy::critical_first, ReplacementPolicy::random_tile,
        ReplacementPolicy::oracle})
    if (text == to_string(policy)) return policy;
  throw std::invalid_argument(
      "unknown replacement policy '" + text +
      "' (use lru, weight, critical-first, random or oracle)");
}

int cmd_online(Scenario scenario, const OnlineCliOptions& cli) {
  if (scenario.workload == WorkloadKind::file && !cli.user_arrivals) {
    const WorkloadFile file = load_workload_file(scenario.workload_file);
    if (file.has_arrivals) scenario.arrivals = file.arrivals;
  }
  scenario.validate();
  // The cache dies with this lambda: the sampler stays valid through the
  // owner handle alone, as for any caller that keeps only the result.
  const SampledWorkload workload = [&] {
    WorkloadCache cache;
    return sampled_workload(scenario, cache);
  }();

  const PlatformConfig& platform = scenario.sim.platform;
  const ArrivalProcess& arrivals = scenario.arrivals;
  std::cout << "online simulation: " << cli.workload << ", " << platform.tiles
            << " tiles, " << platform.reconfig_ports << " port(s), "
            << to_string(arrivals.kind) << " arrivals";
  if (arrivals.kind != ArrivalProcess::Kind::closed_loop)
    std::cout << " @ " << fmt(arrivals.rate_per_s, 1) << "/s";
  std::cout << ", " << to_string(scenario.port_discipline) << " port, "
            << to_string(scenario.pool.admission) << " admission";
  if (scenario.shared_isps)
    std::cout << ", " << platform.isps << " shared ISP(s) ("
              << to_string(scenario.isp_discipline) << ")";
  if (scenario.deadline_scale > 0.0)
    std::cout << ", deadlines x" << fmt(scenario.deadline_scale, 1)
              << " (crit " << fmt_pct(scenario.high_crit_fraction * 100.0)
              << (scenario.preempt ? ", preempt" : "") << ")";
  std::cout << (scenario.pool.contiguous ? " (contiguous)" : "")
            << (scenario.pool.defrag ? " + defrag" : "") << ", "
            << scenario.sim.iterations << " iterations, seed "
            << scenario.sim.seed << "\n\n";

  std::vector<PolicySpec> policies = cli.policies;
  if (policies.empty())
    for (const std::string& name : PolicyRegistry::instance().names())
      policies.emplace_back(name);
  if (!cli.trace_path.empty() && policies.size() != 1) {
    std::cerr << "error: --trace records one run; pick exactly one "
                 "--approach (got "
              << policies.size() << ")\n";
    return 2;
  }

  TablePrinter table({"policy", "instances", "overhead", "reuse",
                      "response mean", "response p95", "queueing mean",
                      "port util", "isp util", "frag", "skips", "moves",
                      "peak migs", "prefetches"});
  TablePrinter deadline_table({"policy", "jobs", "miss", "high-crit miss",
                               "mean lateness", "max tardiness",
                               "preemptions"});
  std::vector<std::pair<std::string, std::string>> perf_blocks;
  for (const PolicySpec& policy : policies) {
    scenario.sim.policy = policy;
    if (cli.paper_sched_cost)
      scenario.scheduler_cost = paper_scheduler_cost(policy);
    OnlineSimOptions options = online_sim_options(scenario);
    std::unique_ptr<TraceRecorder> recorder;
    if (!cli.trace_path.empty()) {
      recorder = std::make_unique<TraceRecorder>(cli.trace_path,
                                                 cli.trace_format, options);
      options.trace = recorder.get();
    }
    const OnlineReport report =
        run_online_simulation(options, workload.sampler);
    if (recorder) {
      recorder->finish(report);
      std::cerr << "trace: " << cli.trace_path << " ("
                << to_string(cli.trace_format) << ")\n";
    }
    if (scenario.deadline_scale > 0.0)
      deadline_table.add_row({to_string(policy),
                              std::to_string(report.deadline_jobs),
                              fmt_pct(report.deadline_miss_pct, 2),
                              fmt_pct(report.high_crit_miss_pct, 2),
                              fmt(report.mean_lateness_ms, 1) + " ms",
                              fmt(report.max_tardiness_ms, 1) + " ms",
                              std::to_string(report.preemptions)});
    if (cli.perf)
      perf_blocks.emplace_back(to_string(policy), perf_summary(report.perf));
    table.add_row({to_string(policy), std::to_string(report.sim.instances),
                   fmt_pct(report.sim.overhead_pct, 2),
                   fmt_pct(report.sim.reuse_pct),
                   fmt(report.mean_response_ms, 1) + " ms",
                   fmt(report.response_p95_ms, 1) + " ms",
                   fmt(report.mean_queueing_ms, 1) + " ms",
                   fmt_pct(report.port_utilisation_pct),
                   fmt_pct(report.isp_utilisation_pct),
                   fmt_pct(report.mean_frag_pct),
                   std::to_string(report.queue_skips),
                   std::to_string(report.defrag_moves),
                   std::to_string(report.peak_concurrent_migrations),
                   std::to_string(report.sim.intertask_prefetches)});
  }
  table.print(std::cout);
  if (scenario.deadline_scale > 0.0) {
    std::cout << "\ndeadline summary:\n";
    deadline_table.print(std::cout);
  }
  for (const auto& [name, summary] : perf_blocks)
    std::cout << "\nperf counters: " << name << "\n" << summary;
  return 0;
}

struct GenworkCliOptions {
  std::string out_dir = ".";
  int count = 10;
  /// Shape of every generated workload; `seed` is the base seed (file i
  /// uses seed + i, and the seed is part of the file name, so a directory
  /// of fuzzed workloads is reproducible from the command line alone).
  FuzzWorkloadOptions fuzz;
};

int cmd_genwork(const GenworkCliOptions& cli) {
  if (cli.count < 1)
    throw std::invalid_argument("--count needs a positive value");
  for (int i = 0; i < cli.count; ++i) {
    FuzzWorkloadOptions options = cli.fuzz;
    options.seed = cli.fuzz.seed + static_cast<std::uint64_t>(i);
    char name[32];
    std::snprintf(name, sizeof(name), "fuzz%06llu.dwl",
                  static_cast<unsigned long long>(options.seed));
    const auto path = std::filesystem::path(cli.out_dir) / name;
    // Generated before the directory and the file are created: a rejected
    // shape leaves neither behind.
    const std::string text = fuzz_workload_text(options);
    if (i == 0) std::filesystem::create_directories(cli.out_dir);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out) throw std::invalid_argument("cannot write " + path.string());
    out << text;
  }
  std::cout << cli.count << " workload(s) in " << cli.out_dir << " (seeds "
            << cli.fuzz.seed << ".."
            << (cli.fuzz.seed + static_cast<std::uint64_t>(cli.count) - 1)
            << ")\n";
  return 0;
}

int cmd_trace_info(const std::string& path) {
  const TraceData trace = read_trace(path);
  const TraceHeader& h = trace.header;
  std::cout << "schema: " << h.schema << "\n"
            << "policy: " << h.policy << ", " << h.arrivals << " arrivals\n"
            << "seed: " << h.seed << ", iterations: " << h.iterations << "\n"
            << "platform: " << h.tiles << " tiles, " << h.reconfig_ports
            << " port(s), " << h.isps << " isp(s), "
            << fmt_ms(h.reconfig_latency, 1) << " ms reconfig\n"
            << "preps: " << h.preps.size() << "\n"
            << "events: " << trace.events.size() << "\n"
            << "live report: " << (trace.has_live ? "present" : "absent")
            << "\n";
  return 0;
}

/// Replay-verifies a trace: re-derives the OnlineReport from the event
/// stream and compares it bit-for-bit against the recorded live report.
int cmd_trace_verify(const std::string& path) {
  const TraceData trace = read_trace(path);
  const std::vector<std::string> mismatches = verify_trace(trace);
  if (mismatches.empty()) {
    std::cout << "replay verified: " << trace.events.size()
              << " events reproduce the live report bit-identically\n";
    return 0;
  }
  std::cerr << "replay FAILED: " << mismatches.size() << " mismatch(es)\n";
  for (const std::string& mismatch : mismatches)
    std::cerr << "  " << mismatch << "\n";
  return 1;
}

int cmd_trace_render(const std::string& path, const std::string& format,
                     const std::string& out_path,
                     const TraceRenderOptions& options) {
  const TraceData trace = read_trace(path);
  std::string rendering;
  if (format == "ascii")
    rendering = render_trace_ascii(trace, options);
  else if (format == "svg")
    rendering = render_trace_svg(trace, options);
  else {
    std::cerr << "error: unknown render format '" << format
              << "' (expected ascii or svg)\n";
    return 2;
  }
  if (out_path.empty()) {
    std::cout << rendering;
    return 0;
  }
  std::ofstream out(out_path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::invalid_argument("cannot write " + out_path);
  out << rendering;
  std::cout << "rendered " << trace.events.size() << " events to " << out_path
            << "\n";
  return 0;
}

std::vector<int> parse_id_list(const std::string& arg) {
  std::vector<int> ids;
  std::istringstream is(arg);
  std::string token;
  while (std::getline(is, token, ','))
    ids.push_back(parse_number<int>("--resident", token));
  return ids;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty()) return usage();
  try {
    if (args[0] == "demo") return cmd_demo();
    if (args[0] == "list-policies" || args[0] == "--list-policies")
      return cmd_list_policies();
    if (args[0] == "campaign") {
      CampaignCliOptions cli;
      for (std::size_t i = 1; i < args.size(); ++i) {
        const std::string& arg = args[i];
        const bool has_value = i + 1 < args.size();
        if (arg == "--list")
          cli.list = true;
        else if (arg == "--list-policies")
          return cmd_list_policies();
        else if (arg == "--dry-run")
          cli.dry_run = true;
        else if (arg == "--quiet")
          cli.quiet = true;
        else if (arg == "--filter" && has_value)
          cli.filter = args[++i];
        else if (arg == "--threads" && has_value) {
          cli.threads = parse_number<int>(arg, args[++i]);
          if (cli.threads < 0)
            throw std::invalid_argument(
                "--threads needs a count >= 0 (0 = hardware concurrency), "
                "got '" + args[i] + "'");
        }
        else if (arg == "--iterations" && has_value)
          cli.iterations = parse_number<int>(arg, args[++i]);
        else if (arg == "--seed" && has_value)
          cli.seed = parse_number<std::uint64_t>(arg, args[++i]);
        else if (arg == "--catalogue" && has_value) {
          const std::string catalogue = args[++i];
          if (catalogue != "builtin" && catalogue != "ablation") {
            std::cerr << "error: unknown catalogue '" << catalogue
                      << "' (builtin | ablation)\n";
            return 2;
          }
          cli.ablation = catalogue == "ablation";
        }
        else if (arg == "--json" && has_value)
          cli.json_path = args[++i];
        else if (arg == "--csv" && has_value)
          cli.csv_path = args[++i];
        else if (arg == "--pivot" && has_value) {
          const std::string spec = args[++i];
          const std::size_t colon = spec.find(':');
          if (colon == std::string::npos)
            return usage_unknown("campaign", arg + " " + spec);
          cli.pivots.emplace_back(
              parse_number<std::size_t>(arg, spec.substr(0, colon)),
              parse_metric_arg(spec.substr(colon + 1)));
        }
        else if (arg == "--workload" && has_value)
          cli.workload_files.push_back(args[++i]);
        else if (arg == "--workload-dir" && has_value) {
          const std::string dir = args[++i];
          std::vector<std::string> found;
          for (const auto& entry : std::filesystem::directory_iterator(dir))
            if (entry.path().extension() == ".dwl")
              found.push_back(entry.path().string());
          // Directory iteration order is OS-dependent; sort for
          // reproducible scenario names and report order.
          std::sort(found.begin(), found.end());
          if (found.empty())
            throw std::invalid_argument("no .dwl files in '" + dir + "'");
          cli.workload_files.insert(cli.workload_files.end(), found.begin(),
                                    found.end());
        }
        else
          return usage_unknown("campaign", arg);
      }
      if (cli.ablation && !cli.workload_files.empty()) {
        std::cerr << "error: --catalogue ablation cannot be combined with "
                     "--workload/--workload-dir\n";
        return 2;
      }
      return cmd_campaign(cli);
    }
    if (args[0] == "online") {
      Scenario scenario;
      scenario.name = scenario.family = "online";
      scenario.mode = ScenarioMode::online;
      scenario.sim.platform = virtex2_platform(16);
      scenario.sim.iterations = 500;
      scenario.sim.seed = 2005;
      PlatformConfig& platform = scenario.sim.platform;
      ArrivalProcess& arrivals = scenario.arrivals;
      OnlineCliOptions cli;
      for (std::size_t i = 1; i < args.size(); ++i) {
        const std::string& arg = args[i];
        const bool has_value = i + 1 < args.size();
        if (arg == "--workload" && has_value) {
          cli.workload = args[++i];
          scenario.workload_file.clear();
          if (cli.workload == "multimedia")
            scenario.workload = WorkloadKind::multimedia;
          else if (cli.workload == "pocket_gl")
            scenario.workload = WorkloadKind::pocket_gl;
          else if (ends_with(cli.workload, ".dwl")) {
            scenario.workload = WorkloadKind::file;
            scenario.workload_file = cli.workload;
          } else
            throw std::invalid_argument("online workload must be multimedia, "
                                        "pocket_gl or a .dwl file");
        }
        else if (arg == "--tiles" && has_value)
          platform.tiles = parse_number<int>(arg, args[++i]);
        else if (arg == "--latency-us" && has_value)
          platform.reconfig_latency = parse_number<time_us>(arg, args[++i]);
        else if (arg == "--ports" && has_value)
          platform.reconfig_ports = parse_number<int>(arg, args[++i]);
        else if (arg == "--arrivals" && has_value) {
          arrivals.kind = parse_arrivals_arg(args[++i]);
          cli.user_arrivals = true;
        }
        else if (arg == "--rate" && has_value) {
          arrivals.rate_per_s = parse_number<double>(arg, args[++i]);
          cli.user_arrivals = true;
        }
        else if (arg == "--period-us" && has_value) {
          arrivals.period_us = parse_number<time_us>(arg, args[++i]);
          cli.user_arrivals = true;
        }
        else if (arg == "--deadline-scale" && has_value)
          scenario.deadline_scale = parse_number<double>(arg, args[++i]);
        else if (arg == "--crit-fraction" && has_value)
          scenario.high_crit_fraction = parse_number<double>(arg, args[++i]);
        else if (arg == "--preempt")
          scenario.preempt = true;
        else if (arg == "--burst" && has_value) {
          arrivals.burst_size = parse_number<int>(arg, args[++i]);
          cli.user_arrivals = true;
        }
        else if (arg == "--think-us" && has_value) {
          arrivals.think_time = parse_number<time_us>(arg, args[++i]);
          cli.user_arrivals = true;
        }
        else if (arg == "--discipline" && has_value)
          scenario.port_discipline = port_discipline_from_string(args[++i]);
        else if (arg == "--isp" && has_value) {
          platform.isps = parse_number<int>(arg, args[++i]);
          if (platform.isps < 1)
            throw std::invalid_argument("--isp needs a positive ISP count");
          scenario.shared_isps = true;
        }
        else if (arg == "--isp-discipline" && has_value)
          scenario.isp_discipline = port_discipline_from_string(args[++i]);
        else if (arg == "--replacement" && has_value)
          scenario.sim.replacement = replacement_from_string(args[++i]);
        else if (arg == "--lookahead" && has_value)
          scenario.sim.intertask_lookahead = parse_number<int>(arg, args[++i]);
        else if (arg == "--admission" && has_value)
          scenario.pool.admission = admission_policy_from_string(args[++i]);
        else if (arg == "--contiguous")
          scenario.pool.contiguous = true;
        else if (arg == "--defrag") {
          scenario.pool.contiguous = true;
          scenario.pool.defrag = true;
        }
        else if (arg == "--window" && has_value)
          scenario.pool.reorder_window = parse_number<int>(arg, args[++i]);
        else if (arg == "--max-bypass" && has_value)
          scenario.pool.max_bypass = parse_number<int>(arg, args[++i]);
        else if (arg == "--sched-cost-us" && has_value) {
          const std::string& value = args[++i];
          cli.paper_sched_cost = value == "paper";
          if (!cli.paper_sched_cost) {
            scenario.scheduler_cost = parse_number<time_us>(arg, value);
            if (scenario.scheduler_cost < 0)
              throw std::invalid_argument(
                  "--sched-cost-us needs a non-negative value or 'paper'");
          }
        }
        else if (arg == "--iterations" && has_value)
          scenario.sim.iterations = parse_number<int>(arg, args[++i]);
        else if (arg == "--seed" && has_value)
          scenario.sim.seed = parse_number<std::uint64_t>(arg, args[++i]);
        else if (arg == "--perf")
          cli.perf = true;
        else if (arg == "--trace" && has_value)
          cli.trace_path = args[++i];
        else if (arg == "--trace-format" && has_value)
          cli.trace_format = trace_format_from_string(args[++i]);
        else if (arg == "--approach" && has_value)
          cli.policies.push_back(parse_policy_arg(args[++i]));
        else if (arg == "--list-policies")
          return cmd_list_policies();
        else
          return usage_unknown("online", arg);
      }
      return cmd_online(std::move(scenario), cli);
    }
    if (args[0] == "genwork") {
      GenworkCliOptions cli;
      for (std::size_t i = 1; i < args.size(); ++i) {
        const std::string& arg = args[i];
        const bool has_value = i + 1 < args.size();
        if (arg == "--out" && has_value)
          cli.out_dir = args[++i];
        else if (arg == "--count" && has_value)
          cli.count = parse_number<int>(arg, args[++i]);
        else if (arg == "--seed" && has_value)
          cli.fuzz.seed = parse_number<std::uint64_t>(arg, args[++i]);
        else if (arg == "--tasks" && has_value)
          cli.fuzz.tasks = parse_number<int>(arg, args[++i]);
        else if (arg == "--variants" && has_value)
          cli.fuzz.variants = parse_number<int>(arg, args[++i]);
        else if (arg == "--configs" && has_value)
          cli.fuzz.configs = parse_number<int>(arg, args[++i]);
        else if (arg == "--min-nodes" && has_value)
          cli.fuzz.min_nodes = parse_number<int>(arg, args[++i]);
        else if (arg == "--max-nodes" && has_value)
          cli.fuzz.max_nodes = parse_number<int>(arg, args[++i]);
        else
          return usage_unknown("genwork", arg);
      }
      return cmd_genwork(cli);
    }
    if (args[0] == "trace") {
      if (args.size() < 3) return usage();
      const std::string& action = args[1];
      const std::string& path = args[2];
      if (action == "info") return cmd_trace_info(path);
      if (action == "verify") return cmd_trace_verify(path);
      if (action == "render") {
        TraceRenderOptions options;
        std::string format = "ascii";
        std::string out_path;
        bool until_given = false;
        for (std::size_t i = 3; i < args.size(); ++i) {
          const std::string& arg = args[i];
          const bool has_value = i + 1 < args.size();
          if (arg == "--format" && has_value)
            format = args[++i];
          else if (arg == "--out" && has_value)
            out_path = args[++i];
          else if (arg == "--width" && has_value) {
            options.width = parse_number<int>(arg, args[++i]);
            if (options.width <= 0)
              throw std::invalid_argument("--width needs a value > 0, got '" +
                                          args[i] + "'");
          } else if (arg == "--from-us" && has_value) {
            options.from = parse_number<time_us>(arg, args[++i]);
            if (options.from < 0)
              throw std::invalid_argument(
                  "--from-us needs a value >= 0, got '" + args[i] + "'");
          } else if (arg == "--until-us" && has_value) {
            options.until = parse_number<time_us>(arg, args[++i]);
            until_given = true;
          } else
            return usage_unknown("trace", arg);
        }
        if (until_given && options.until <= options.from)
          throw std::invalid_argument(
              "--until-us needs a value > --from-us (" +
              std::to_string(options.from) + "), got " +
              std::to_string(options.until));
        return cmd_trace_render(path, format, out_path, options);
      }
      return usage_unknown("trace", action);
    }
    if ((args[0] == "info" || args[0] == "dot") && args.size() >= 2) {
      if (args.size() > 2) return usage_unknown(args[0].c_str(), args[2]);
      return args[0] == "info" ? cmd_info(args[1]) : cmd_dot(args[1]);
    }
    if (args[0] == "schedule" && args.size() >= 2) {
      int tiles = 8, ports = 1;
      time_us latency = ms(4);
      std::vector<int> resident;
      for (std::size_t i = 2; i < args.size(); ++i) {
        const std::string& arg = args[i];
        const bool has_value = i + 1 < args.size();
        if (arg == "--tiles" && has_value)
          tiles = parse_number<int>(arg, args[++i]);
        else if (arg == "--latency-us" && has_value)
          latency = parse_number<time_us>(arg, args[++i]);
        else if (arg == "--ports" && has_value)
          ports = parse_number<int>(arg, args[++i]);
        else if (arg == "--resident" && has_value)
          resident = parse_id_list(args[++i]);
        else
          return usage_unknown("schedule", arg);
      }
      return cmd_schedule(args[1], tiles, latency, ports, resident);
    }
  } catch (const WioParseError& e) {
    // Workload parse diagnostics carry line/column and map to the same
    // exit code as flag misuse: the input was malformed, nothing ran.
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return usage();
}
