// drhw_sched — command-line driver for the hybrid prefetch scheduling flow.
//
// drhw-lint: allow-file(wall-clock: campaign wall-time report is host-side)
//
// Each command is one row of commands(): its words, positional arguments,
// summary and flag table. The parser, the usage text, `drhw_sched --help`
// and `drhw_sched <command> --help` all read that one list.

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iomanip>
#include <iostream>
#include <memory>
#include <sstream>
#include <stdexcept>
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
#include "reuse/reuse_module.hpp"
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

/// A malformed command line: main() prints it and exits 2.
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Rejects `value` of `flag` unless it is one of `valid`, with a usage
/// error that lists the valid values one per line.
void check_choice(const std::string& what, const std::string& value,
                  const std::string& flag,
                  const std::vector<std::string>& valid) {
  if (std::find(valid.begin(), valid.end(), value) != valid.end()) return;
  std::string message = "unknown " + what + " '" + value + "' for " + flag +
                        "; valid values:";
  for (const std::string& name : valid) message += "\n  " + name;
  throw UsageError(message);
}

/// The registered prefetch policies, one per line (list-policies).
int cmd_list_policies() {
  TablePrinter table({"policy", "description"});
  const PolicyRegistry& registry = PolicyRegistry::instance();
  for (const std::string& name : registry.names())
    table.add_row({name, registry.description(name)});
  table.print(std::cout);
  return 0;
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

struct ScheduleCliOptions {
  int tiles = 8;
  time_us latency = ms(4);
  int ports = 1;
  std::vector<int> resident;  ///< subtask ids already resident (reuse)
};

int cmd_schedule(const std::string& path, const ScheduleCliOptions& cli) {
  const auto graph = graph_from_json(read_file(path));
  std::vector<bool> resident(graph.size(), false);
  for (int id : cli.resident) {
    if (id < 0 || static_cast<std::size_t>(id) >= graph.size())
      throw std::invalid_argument("--resident id out of range");
    resident[static_cast<std::size_t>(id)] = true;
  }
  PlatformConfig platform = virtex2_platform(cli.tiles);
  platform.reconfig_latency = cli.latency;
  platform.reconfig_ports = cli.ports;
  platform.validate();

  const PreparedScenario prep = prepare_scenario(graph, cli.tiles, platform);
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
  const auto hybrid =
      PolicyRegistry::instance().create(PolicySpec(policy_names::hybrid));
  LoadPlan plan;
  hybrid->plan(prep, resident, PolicyContext{}, plan);
  const EvalResult run = evaluate(graph, placement, platform, plan);
  std::cout << "hybrid (|CS| = " << design.critical.size() << ", "
            << plan.init_count << " init loads, " << plan.cancelled_loads
            << " cancelled): " << fmt_ms(run.makespan) << " ms\n"
            << "design-time CS loop: " << design.loop_iterations
            << " passes, " << design.bnb_nodes << " B&B nodes, "
            << design.bnb_budget_hits << " node-budget hits\n";
  GanttOptions options;
  options.init_loads.assign(
      plan.loads.begin(),
      plan.loads.begin() + static_cast<std::ptrdiff_t>(plan.init_count));
  std::cout << render_gantt(graph, placement, run, options);
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
  if (cli.ablation && !cli.workload_files.empty())
    throw UsageError("--catalogue ablation cannot be combined with "
                     "--workload/--workload-dir");
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
      if (segment >= name_segments(s.name))
        throw UsageError("--pivot " + std::to_string(segment) + ":" + metric +
                         ": scenario '" + s.name + "' has no segment " +
                         std::to_string(segment));

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

  std::vector<PolicySpec> policies = cli.policies;
  if (policies.empty())
    for (const std::string& name : PolicyRegistry::instance().names())
      policies.emplace_back(name);
  if (!cli.trace_path.empty() && policies.size() != 1)
    throw UsageError(
        "--trace records one run; pick exactly one --approach (got " +
        std::to_string(policies.size()) + ")");
  // Creates each policy once, before any output: an unknown parameter is
  // rejected with nothing printed.
  std::vector<time_us> scheduler_costs;
  for (const PolicySpec& policy : policies)
    scheduler_costs.push_back(paper_scheduler_cost(policy));

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

  TablePrinter table({"policy", "instances", "overhead", "reuse",
                      "response mean", "response p95", "queueing mean",
                      "port util", "isp util", "frag", "skips", "moves",
                      "peak migs", "prefetches"});
  TablePrinter deadline_table({"policy", "jobs", "miss", "high-crit miss",
                               "mean lateness", "max tardiness",
                               "preemptions"});
  std::vector<std::pair<std::string, std::string>> perf_blocks;
  for (std::size_t i = 0; i < policies.size(); ++i) {
    const PolicySpec& policy = policies[i];
    scenario.sim.policy = policy;
    if (cli.paper_sched_cost) scenario.scheduler_cost = scheduler_costs[i];
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

/// What `trace render` reads beyond the trace path.
struct RenderCliOptions {
  std::string format = "ascii";
  std::string out_path;  ///< empty: stdout
  TraceRenderOptions window;
  bool until_given = false;
};

int cmd_trace_render(const std::string& path, const RenderCliOptions& cli) {
  const TraceData trace = read_trace(path);
  const std::string rendering = cli.format == "svg"
                                    ? render_trace_svg(trace, cli.window)
                                    : render_trace_ascii(trace, cli.window);
  const std::string& out_path = cli.out_path;
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

/// The Scenario `online` starts from before its flags apply.
Scenario online_scenario() {
  Scenario scenario;
  scenario.name = scenario.family = "online";
  scenario.mode = ScenarioMode::online;
  scenario.sim.platform = virtex2_platform(16);
  scenario.sim.iterations = 500;
  scenario.sim.seed = 2005;
  return scenario;
}

/// A flag's value as given, with the flag's name for messages.
struct Value {
  const std::string& flag;
  const std::string& text;
};

using Setter = std::function<void(const Value&)>;

template <typename T>
Setter number(T& field) {
  return [&field](const Value& v) { field = parse_number<T>(v.flag, v.text); };
}

Setter text(std::string& field) {
  return [&field](const Value& v) { field = v.text; };
}

/// A switch.
Setter on(bool& field) {
  return [&field](const Value&) { field = true; };
}

/// A choice flag's setter; the parser has checked the value already.
template <typename Enum>
Setter choice(Enum& field, Enum (*from_string)(const std::string&)) {
  return [&field, from_string](const Value& v) { field = from_string(v.text); };
}

/// One row of a command's flag table.
struct Flag {
  std::string name;     ///< "--tiles"
  std::string metavar;  ///< placeholder of the value; empty for a switch
  std::string help;
  Setter set;
  /// Non-empty for a choice flag: the parser rejects any other value.
  std::vector<std::string> choices = {};
};

/// One command: its words, positional arguments, flags and entry point.
struct Command {
  std::string name;                      ///< "campaign", "trace render"
  std::vector<std::string> positionals;  ///< placeholders, e.g. <graph.json>
  std::string summary;
  std::vector<Flag> flags;
  std::function<int(const std::vector<std::string>& positionals)> run;
};

std::vector<Flag> schedule_flags(ScheduleCliOptions& cli) {
  return {
      {"--tiles", "N", "DRHW tiles (default 8)", number(cli.tiles)},
      {"--latency-us", "L", "reconfiguration latency in us (default 4000)",
       number(cli.latency)},
      {"--ports", "N", "reconfiguration ports (default 1)", number(cli.ports)},
      {"--resident", "a,b,c", "subtask ids already resident (reuse)",
       [&cli](const Value& v) {
         cli.resident.clear();
         std::istringstream ids(v.text);
         for (std::string id; std::getline(ids, id, ',');)
           cli.resident.push_back(parse_number<int>(v.flag, id));
       }},
  };
}

std::vector<Flag> campaign_flags(CampaignCliOptions& cli) {
  return {
      {"--list", "", "print the matching scenarios and exit", on(cli.list)},
      {"--dry-run", "", "enumerate + validate the campaign, don't simulate",
       on(cli.dry_run)},
      {"--filter", "STR", "keep scenarios whose name or family contains STR",
       text(cli.filter)},
      {"--threads", "N", "worker threads (default: hardware concurrency)",
       [&cli](const Value& v) {
         cli.threads = parse_number<int>(v.flag, v.text);
         if (cli.threads < 0)
           throw std::invalid_argument(
               "--threads needs a count >= 0 (0 = hardware concurrency), "
               "got '" + v.text + "'");
       }},
      {"--iterations", "N", "override the per-scenario iteration count",
       number(cli.iterations)},
      {"--seed", "S", "base RNG seed of the catalogue", number(cli.seed)},
      {"--catalogue", "C",
       "the paper's experiments or ScenarioRegistry::ablations()",
       [&cli](const Value& v) { cli.ablation = v.text == "ablation"; },
       {"builtin", "ablation"}},
      {"--workload", "FILE",
       "one file/<stem> family per .dwl file, every policy online (repeatable)",
       [&cli](const Value& v) { cli.workload_files.push_back(v.text); }},
      {"--workload-dir", "DIR", "same, for every .dwl file in DIR (sorted)",
       [&cli](const Value& v) {
         std::vector<std::string> found;
         for (const auto& entry : std::filesystem::directory_iterator(v.text))
           if (entry.path().extension() == ".dwl")
             found.push_back(entry.path().string());
         // Directory iteration order is OS-dependent; sort for
         // reproducible scenario names and report order.
         std::sort(found.begin(), found.end());
         if (found.empty())
           throw std::invalid_argument("no .dwl files in '" + v.text + "'");
         cli.workload_files.insert(cli.workload_files.end(), found.begin(),
                                   found.end());
       }},
      {"--json", "FILE", "write the full JSON report", text(cli.json_path)},
      {"--csv", "FILE", "write the per-scenario CSV report",
       text(cli.csv_path)},
      {"--pivot", "SEG:METRIC",
       "METRIC with name segment SEG (0 = family) as columns (repeatable)",
       [&cli](const Value& v) {
         const std::size_t colon = v.text.find(':');
         if (colon == std::string::npos)
           throw UsageError("--pivot needs SEG:METRIC, got '" + v.text + "'");
         const auto segment =
             parse_number<std::size_t>(v.flag, v.text.substr(0, colon));
         const std::string metric = v.text.substr(colon + 1);
         check_choice("metric", metric, v.flag, metric_names());
         cli.pivots.emplace_back(segment, metric);
       }},
      {"--quiet", "", "suppress per-scenario progress lines", on(cli.quiet)},
  };
}

std::vector<Flag> online_flags(Scenario& scenario, OnlineCliOptions& cli) {
  PlatformConfig& platform = scenario.sim.platform;
  ArrivalProcess& arrivals = scenario.arrivals;
  PoolOptions& pool = scenario.pool;
  // An arrival flag also overrides a workload file's arrivals block.
  const auto arrival = [&cli](Setter set) -> Setter {
    return [&cli, set = std::move(set)](const Value& v) {
      set(v);
      cli.user_arrivals = true;
    };
  };
  std::vector<std::string> replacements;
  for (ReplacementPolicy policy : k_replacement_policies)
    replacements.emplace_back(to_string(policy));
  const std::vector<std::string> disciplines = {
      to_string(PortDiscipline::fifo), to_string(PortDiscipline::priority)};
  return {
      {"--workload", "W",
       "multimedia (default), pocket_gl or a .dwl file (its arrivals apply)",
       [&scenario, &cli](const Value& v) {
         cli.workload = v.text;
         scenario.workload_file.clear();
         if (v.text == "multimedia")
           scenario.workload = WorkloadKind::multimedia;
         else if (v.text == "pocket_gl")
           scenario.workload = WorkloadKind::pocket_gl;
         else if (ends_with(v.text, ".dwl")) {
           scenario.workload = WorkloadKind::file;
           scenario.workload_file = v.text;
         } else
           throw std::invalid_argument(
               "online workload must be multimedia, pocket_gl or a .dwl "
               "file");
       }},
      {"--trace", "FILE", "record a drhw-trace-v2 trace (one --approach)",
       text(cli.trace_path)},
      {"--trace-format", "F", "trace encoding (default jsonl)",
       choice(cli.trace_format, trace_format_from_string),
       {to_string(TraceFormat::jsonl), to_string(TraceFormat::binary)}},
      {"--tiles", "N", "DRHW tiles (default 16)", number(platform.tiles)},
      {"--latency-us", "L", "reconfiguration latency in us (default 4000)",
       number(platform.reconfig_latency)},
      {"--ports", "N", "reconfiguration ports (default 1)",
       number(platform.reconfig_ports)},
      {"--arrivals", "K", "arrival process (default poisson)",
       arrival(choice(arrivals.kind, arrival_kind_from_string)),
       arrival_kind_names()},
      {"--rate", "R", "arrivals (or bursts) per second (default 20)",
       arrival(number(arrivals.rate_per_s))},
      {"--burst", "N", "instances per burst (bursty; default 4)",
       arrival(number(arrivals.burst_size))},
      {"--think-us", "T", "closed-loop think time in us (default 1000)",
       arrival(number(arrivals.think_time))},
      {"--period-us", "P", "periodic/sporadic inter-arrival base in us",
       arrival(number(arrivals.period_us))},
      {"--deadline-scale", "X",
       "deadline = arrival + X x ideal makespan (0 = no deadlines)",
       number(scenario.deadline_scale)},
      {"--crit-fraction", "F", "high-criticality fraction (default 0.25)",
       number(scenario.high_crit_fraction)},
      {"--preempt", "",
       "checkpoint low-criticality instances to admit high-criticality ones",
       on(scenario.preempt)},
      {"--discipline", "D", "reconfiguration port arbitration (default fifo)",
       choice(scenario.port_discipline, port_discipline_from_string),
       disciplines},
      {"--isp", "N", "share N contended ISPs (default: one per instance)",
       [&scenario](const Value& v) {
         scenario.sim.platform.isps = parse_number<int>(v.flag, v.text);
         scenario.shared_isps = true;
       }},
      {"--isp-discipline", "D", "ISP arbitration with --isp (default fifo)",
       choice(scenario.isp_discipline, port_discipline_from_string),
       disciplines},
      {"--replacement", "R", "tile replacement policy (default lru)",
       choice(scenario.sim.replacement, replacement_from_string),
       replacements},
      {"--lookahead", "N", "backlog-prefetch depth in instances (default 1)",
       number(scenario.sim.intertask_lookahead)},
      {"--admission", "P", "tile-pool admission policy (default fifo_hol)",
       choice(pool.admission, admission_policy_from_string),
       {to_string(AdmissionPolicy::fifo_hol),
        to_string(AdmissionPolicy::backfill_bypass),
        to_string(AdmissionPolicy::window_reorder)}},
      {"--contiguous", "", "admit onto contiguous free tile runs only",
       on(pool.contiguous)},
      {"--defrag", "", "online defragmentation (implies --contiguous)",
       [&pool](const Value&) { pool.contiguous = pool.defrag = true; }},
      {"--window", "N", "reorder window for window_reorder (default 4)",
       number(pool.reorder_window)},
      {"--max-bypass", "N", "overtakes the queue head tolerates (default 8)",
       number(pool.max_bypass)},
      {"--sched-cost-us", "C",
       "per-admission scheduler cost in us, or paper (Section 4, per approach)",
       [&scenario, &cli](const Value& v) {
         cli.paper_sched_cost = v.text == "paper";
         if (!cli.paper_sched_cost)
           scenario.scheduler_cost = parse_number<time_us>(v.flag, v.text);
       }},
      {"--iterations", "N", "sampler batches to draw (default 500)",
       number(scenario.sim.iterations)},
      {"--seed", "S", "RNG seed (default 2005)", number(scenario.sim.seed)},
      {"--perf", "", "print each approach's kernel perf counters",
       on(cli.perf)},
      {"--approach", "P",
       "run this policy, e.g. hybrid[intertask=0] (default: every policy)",
       [&cli](const Value& v) {
         PolicySpec spec = PolicySpec::parse(v.text);
         check_choice("policy", spec.name, v.flag,
                      PolicyRegistry::instance().names());
         cli.policies.push_back(std::move(spec));
       }},
  };
}

std::vector<Flag> genwork_flags(GenworkCliOptions& cli) {
  FuzzWorkloadOptions& fuzz = cli.fuzz;
  return {
      {"--out", "DIR", "output directory (created; default .)",
       text(cli.out_dir)},
      {"--count", "N", "number of workload files (default 10)",
       [&cli](const Value& v) {
         cli.count = parse_number<int>(v.flag, v.text);
         if (cli.count < 1)
           throw std::invalid_argument("--count needs a positive value");
       }},
      {"--seed", "S", "base seed; file i uses seed S + i (default 1)",
       number(fuzz.seed)},
      {"--tasks", "N", "tasks per workload (default 4)", number(fuzz.tasks)},
      {"--variants", "N", "scenario variants per task (default 2)",
       number(fuzz.variants)},
      {"--configs", "N", "shared configuration space (default 16)",
       number(fuzz.configs)},
      {"--min-nodes", "N", "minimum DAG nodes per task (default 3)",
       number(fuzz.min_nodes)},
      {"--max-nodes", "N", "maximum DAG nodes per task (default 10)",
       number(fuzz.max_nodes)},
  };
}

std::vector<Flag> render_flags(RenderCliOptions& cli) {
  TraceRenderOptions& window = cli.window;
  // The window ends after it starts, whichever flag came last.
  const auto check_window = [&cli, &window] {
    if (cli.until_given && window.until <= window.from)
      throw std::invalid_argument(
          "--until-us needs a value > --from-us (" +
          std::to_string(window.from) + "), got " +
          std::to_string(window.until));
  };
  return {
      {"--format", "F", "output format (default ascii)", text(cli.format),
       {"ascii", "svg"}},
      {"--out", "FILE", "write the rendering to FILE instead of stdout",
       text(cli.out_path)},
      {"--width", "N", "timeline width in characters / pixels (> 0)",
       [&window](const Value& v) {
         window.width = parse_number<int>(v.flag, v.text);
         if (window.width <= 0)
           throw std::invalid_argument("--width needs a value > 0, got '" +
                                       v.text + "'");
       }},
      {"--from-us", "T", "window start in simulated us (>= 0, default 0)",
       [&window, check_window](const Value& v) {
         window.from = parse_number<time_us>(v.flag, v.text);
         if (window.from < 0)
           throw std::invalid_argument("--from-us needs a value >= 0, got '" +
                                       v.text + "'");
         check_window();
       }},
      {"--until-us", "T", "window end in simulated us (default: the horizon)",
       [&cli, &window, check_window](const Value& v) {
         window.until = parse_number<time_us>(v.flag, v.text);
         cli.until_given = true;
         check_window();
       }},
  };
}

/// Every command, its flags bound to the options one command line fills.
const std::vector<Command>& commands() {
  static ScheduleCliOptions schedule;
  static CampaignCliOptions campaign;
  static Scenario scenario = online_scenario();
  static OnlineCliOptions online;
  static GenworkCliOptions genwork;
  static RenderCliOptions render;
  static const std::vector<Command> table = {
      {"demo", {}, "write a sample task graph JSON", {},
       [](const auto&) { return cmd_demo(); }},
      {"info", {"<graph.json>"}, "graph statistics + CS set", {},
       [](const auto& args) { return cmd_info(args[0]); }},
      {"schedule", {"<graph.json>"}, "run the flow, print Gantt charts",
       schedule_flags(schedule),
       [](const auto& args) { return cmd_schedule(args[0], schedule); }},
      {"dot", {"<graph.json>"}, "Graphviz export", {},
       [](const auto& args) { return cmd_dot(args[0]); }},
      {"campaign", {}, "run a scenario campaign", campaign_flags(campaign),
       [](const auto&) { return cmd_campaign(campaign); }},
      {"online", {}, "online (event-driven) simulation, a row per approach",
       online_flags(scenario, online),
       [](const auto&) { return cmd_online(scenario, online); }},
      {"genwork", {}, "generate seeded fuzzed .dwl workloads",
       genwork_flags(genwork),
       [](const auto&) { return cmd_genwork(genwork); }},
      {"trace info", {"<trace>"}, "summarise a recorded trace", {},
       [](const auto& args) { return cmd_trace_info(args[0]); }},
      {"trace verify", {"<trace>"}, "replay-verify a recorded trace", {},
       [](const auto& args) { return cmd_trace_verify(args[0]); }},
      {"trace render", {"<trace>"}, "render a recorded trace's timeline",
       render_flags(render),
       [](const auto& args) { return cmd_trace_render(args[0], render); }},
      {"list-policies", {}, "print the registered prefetch policies", {},
       [](const auto&) { return cmd_list_policies(); }},
  };
  return table;
}

std::string flag_label(const Flag& flag) {
  return flag.metavar.empty() ? flag.name : flag.name + " " + flag.metavar;
}

/// The usage text: the synopsis of `command`, or of every command.
void write_usage(std::ostream& os, const Command* command) {
  const char* lead = "usage: ";
  for (const Command& c : commands()) {
    if (command != nullptr && c.name != command->name) continue;
    os << lead << "drhw_sched " << c.name;
    for (const std::string& positional : c.positionals) os << " " << positional;
    for (const Flag& flag : c.flags) os << " [" << flag_label(flag) << "]";
    os << "\n";
    lead = "       ";
  }
  if (command == nullptr) os << lead << "drhw_sched [<command>] --help\n";
}

/// `drhw_sched <command> --help`: the synopsis, the summary and one row
/// per flag.
void write_help(std::ostream& os, const Command& command) {
  write_usage(os, &command);
  os << "\n" << command.summary << "\n";
  if (!command.flags.empty()) os << "\nflags:\n";
  for (const Flag& flag : command.flags) {
    std::string help = flag.help;
    for (std::size_t i = 0; i < flag.choices.size(); ++i)
      help += (i == 0 ? ": " : " | ") + flag.choices[i];
    os << "  " << std::left << std::setw(20) << flag_label(flag) << "  "
       << help << "\n";
  }
}

/// A malformed command line: `message`, the usage of `command` (of every
/// command when null), and the registered policies and arrival kinds.
UsageError usage_error(const Command* command, const std::string& message) {
  std::ostringstream os;
  os << message << "\n";
  write_usage(os, command);
  os << "registered policies:";
  for (const std::string& name : PolicyRegistry::instance().names())
    os << "\n  " << name;
  os << "\nregistered arrival kinds:";
  for (const std::string& name : arrival_kind_names()) os << "\n  " << name;
  return UsageError(os.str());
}

/// The command named by the first one or two words of `args`.
const Command& find_command(const std::vector<std::string>& args) {
  if (args.empty()) throw usage_error(nullptr, "no command given");
  const std::string two = args.size() > 1 ? args[0] + " " + args[1] : "";
  for (const Command& command : commands())
    if (command.name == args[0] || command.name == two) return command;
  throw usage_error(nullptr,
                    "unknown command '" + (two.empty() ? args[0] : two) + "'");
}

/// Parses the arguments after `command`'s words: a `--flag` through its
/// row (with the next argument as its value unless it is a switch), and
/// returns the others, the positional arguments.
std::vector<std::string> parse(const Command& command,
                               const std::vector<std::string>& args) {
  std::vector<std::string> positionals;
  std::size_t i = 1 + static_cast<std::size_t>(std::count(
                          command.name.begin(), command.name.end(), ' '));
  for (; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg.rfind("--", 0) != 0) {
      positionals.push_back(arg);
      continue;
    }
    const auto flag =
        std::find_if(command.flags.begin(), command.flags.end(),
                     [&](const Flag& f) { return f.name == arg; });
    if (flag == command.flags.end())
      throw usage_error(&command, "unknown option '" + arg + "'");
    const bool takes_value = !flag->metavar.empty();
    if (takes_value && i + 1 == args.size())
      throw usage_error(&command,
                        "incomplete option '" + flag_label(*flag) + "'");
    const Value value{arg, takes_value ? args[++i] : arg};
    if (!flag->choices.empty())
      check_choice("value", value.text, arg, flag->choices);
    flag->set(value);
  }
  if (positionals.size() != command.positionals.size())
    throw usage_error(&command, "wrong number of arguments");
  return positionals;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  try {
    const bool help =
        std::find(args.begin(), args.end(), "--help") != args.end();
    if (help && args[0] == "--help") {
      write_usage(std::cout, nullptr);
      return 0;
    }
    const Command& command = find_command(args);
    if (help) {
      write_help(std::cout, command);
      return 0;
    }
    return command.run(parse(command, args));
  } catch (const UsageError& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  } catch (const WioParseError& e) {
    // Workload parse diagnostics carry line/column and map to the same
    // exit code as flag misuse: the input was malformed, nothing ran.
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
