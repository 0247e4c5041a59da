#include "runner/report.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "util/numfmt.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace drhw {

bool operator==(const MetricSummary& a, const MetricSummary& b) {
  return a.count == b.count && a.mean == b.mean && a.stddev == b.stddev &&
         a.min == b.min && a.max == b.max && a.p50 == b.p50 && a.p95 == b.p95;
}

namespace {

/// Which results carry a metric. Failed results carry only host metrics.
enum class Scope {
  simulation,  ///< simulate and online mode: deterministic, aggregated
  online,      ///< online mode only: deterministic, aggregated
  sched_cost,  ///< sched_cost mode: wall-clock timings, never aggregated
  host,        ///< every result: wall-clock, never aggregated
};

struct MetricColumn {
  const char* name;
  Scope scope;
  double (*get)(const ScenarioResult&);
};

using Result = ScenarioResult;

template <auto Field>
double field(const Result& r) {
  return static_cast<double>(r.*Field);
}

template <auto Field>
double sim_field(const Result& r) {
  return static_cast<double>(r.report.*Field);
}

double makespan_ms(const Result& r) {
  return static_cast<double>(r.report.total_actual) / 1000.0;
}

/// The one list of campaign metrics, in CSV column order (the JSON
/// "metrics" objects and the aggregate blocks list them by name). Kernel
/// perf counters are deterministic per scenario, so they aggregate like
/// simulated-time metrics; real-time metrics are zero when a scenario runs
/// without deadlines.
const MetricColumn k_metric_columns[] = {
    {"makespan_ms", Scope::simulation, makespan_ms},
    {"overhead_pct", Scope::simulation, sim_field<&SimReport::overhead_pct>},
    {"reuse_pct", Scope::simulation, sim_field<&SimReport::reuse_pct>},
    {"reuse_hits", Scope::simulation, sim_field<&SimReport::reused_subtasks>},
    {"loads", Scope::simulation, sim_field<&SimReport::loads>},
    {"energy", Scope::simulation, sim_field<&SimReport::energy>},
    {"energy_saved", Scope::simulation, sim_field<&SimReport::energy_saved>},
    {"response_ms", Scope::online, field<&Result::mean_response_ms>},
    {"response_max_ms", Scope::online, field<&Result::max_response_ms>},
    {"response_p50_ms", Scope::online, field<&Result::response_p50_ms>},
    {"response_p95_ms", Scope::online, field<&Result::response_p95_ms>},
    {"response_p99_ms", Scope::online, field<&Result::response_p99_ms>},
    {"queueing_ms", Scope::online, field<&Result::mean_queueing_ms>},
    {"queueing_max_ms", Scope::online, field<&Result::max_queueing_ms>},
    {"port_util_pct", Scope::online, field<&Result::port_utilisation_pct>},
    {"isp_util_pct", Scope::online, field<&Result::isp_utilisation_pct>},
    {"peak_concurrent_migrations", Scope::online,
     field<&Result::peak_concurrent_migrations>},
    {"horizon_ms", Scope::online, field<&Result::horizon_ms>},
    {"frag_pct", Scope::online, field<&Result::frag_pct>},
    {"queue_skips", Scope::online, field<&Result::queue_skips>},
    {"defrag_moves", Scope::online, field<&Result::defrag_moves>},
    {"perf_events", Scope::online, field<&Result::perf_events_total>},
    {"perf_queue_depth_max", Scope::online,
     field<&Result::perf_queue_depth_max>},
    {"perf_steady_allocs", Scope::online, field<&Result::perf_steady_allocs>},
    {"deadline_jobs", Scope::online, field<&Result::deadline_jobs>},
    {"deadline_misses", Scope::online, field<&Result::deadline_misses>},
    {"deadline_miss_pct", Scope::online, field<&Result::deadline_miss_pct>},
    {"high_crit_miss_pct", Scope::online, field<&Result::high_crit_miss_pct>},
    {"mean_lateness_ms", Scope::online, field<&Result::mean_lateness_ms>},
    {"max_tardiness_ms", Scope::online, field<&Result::max_tardiness_ms>},
    {"preemptions", Scope::online, field<&Result::preemptions>},
    {"list_sched_us", Scope::sched_cost, field<&Result::list_sched_us>},
    {"hybrid_sched_us", Scope::sched_cost, field<&Result::hybrid_sched_us>},
    {"wall_ms", Scope::host, field<&Result::wall_ms>},
};

bool carries(const ScenarioResult& result, Scope scope) {
  const ScenarioMode mode = result.scenario.mode;
  switch (scope) {
    case Scope::simulation:
      return result.ok && mode != ScenarioMode::sched_cost;
    case Scope::online:
      return result.ok && mode == ScenarioMode::online;
    case Scope::sched_cost:
      return result.ok && mode == ScenarioMode::sched_cost;
    case Scope::host:
      return true;
  }
  return false;
}

bool deterministic(Scope scope) {
  return scope == Scope::simulation || scope == Scope::online;
}

/// The metrics `result` carries, by name; `all` adds the wall-clock ones.
std::map<std::string, double> metrics_of(const ScenarioResult& result,
                                         bool all) {
  std::map<std::string, double> metrics;
  for (const MetricColumn& column : k_metric_columns)
    if ((all || deterministic(column.scope)) && carries(result, column.scope))
      metrics[column.name] = column.get(result);
  return metrics;
}

}  // namespace

std::map<std::string, double> deterministic_metrics(
    const ScenarioResult& result) {
  return metrics_of(result, /*all=*/false);
}

void StatsAggregator::add(const ScenarioResult& result) {
  for (Group* group : {&total_, &groups_[result.scenario.family]}) {
    ++group->scenarios;
    if (!result.ok) ++group->failed;
    for (const auto& [name, value] : deterministic_metrics(result))
      group->samples[name].push_back(value);
  }
}

void StatsAggregator::add(const std::vector<ScenarioResult>& results) {
  for (const ScenarioResult& result : results) add(result);
}

namespace {

GroupSummary summarize_group(const std::string& family, std::size_t scenarios,
                             std::size_t failed,
                             const std::map<std::string, std::vector<double>>&
                                 samples) {
  GroupSummary summary;
  summary.family = family;
  summary.scenarios = scenarios;
  summary.failed = failed;
  for (const auto& [name, values] : samples) {
    RunningStats stats;
    for (double v : values) stats.add(v);
    MetricSummary m;
    m.count = stats.count();
    m.mean = stats.mean();
    m.stddev = stats.stddev();
    m.min = stats.min();
    m.max = stats.max();
    m.p50 = stats.percentile(50);
    m.p95 = stats.percentile(95);
    summary.metrics[name] = m;
  }
  return summary;
}

}  // namespace

std::vector<GroupSummary> StatsAggregator::by_family() const {
  std::vector<GroupSummary> out;
  for (const auto& [family, group] : groups_)
    out.push_back(summarize_group(family, group.scenarios, group.failed,
                                  group.samples));
  return out;
}

GroupSummary StatsAggregator::overall() const {
  return summarize_group("", total_.scenarios, total_.failed, total_.samples);
}

// --- JSON / CSV writers ----------------------------------------------------

namespace {

/// CSV spelling of a non-finite value: an empty cell.
std::string fmt_csv_double(double value) {
  char buffer[64];
  return fmt_shortest_double(value, buffer) ? std::string(buffer)
                                            : std::string();
}

void write_summary_json(std::ostream& os, const GroupSummary& summary,
                        int indent) {
  const std::string pad(static_cast<std::size_t>(indent), ' ');
  os << "{\n"
     << pad << "  \"family\": \"" << json_escape(summary.family) << "\",\n"
     << pad << "  \"scenarios\": " << summary.scenarios << ",\n"
     << pad << "  \"failed\": " << summary.failed << ",\n"
     << pad << "  \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : summary.metrics) {
    os << (first ? "" : ",") << "\n"
       << pad << "    \"" << name << "\": {\"count\": " << m.count
       << ", \"mean\": " << fmt_json_double(m.mean)
       << ", \"stddev\": " << fmt_json_double(m.stddev)
       << ", \"min\": " << fmt_json_double(m.min)
       << ", \"max\": " << fmt_json_double(m.max)
       << ", \"p50\": " << fmt_json_double(m.p50)
       << ", \"p95\": " << fmt_json_double(m.p95) << "}";
    first = false;
  }
  os << "\n" << pad << "  }\n" << pad << "}";
}

}  // namespace

std::string campaign_to_json(const std::vector<ScenarioResult>& results,
                             const StatsAggregator& aggregator) {
  std::ostringstream os;
  os << "{\n  \"schema\": \"drhw-campaign-v1\",\n  \"scenarios\": [";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const ScenarioResult& result = results[i];
    const Scenario& s = result.scenario;
    os << (i == 0 ? "" : ",") << "\n    {\n"
       << "      \"name\": \"" << json_escape(s.name) << "\",\n"
       << "      \"family\": \"" << json_escape(s.family) << "\",\n"
       << "      \"workload\": \"" << to_string(s.workload) << "\",\n";
    if (!s.workload_file.empty())
      os << "      \"workload_file\": \"" << json_escape(s.workload_file)
         << "\",\n";
    os << "      \"mode\": \"" << to_string(s.mode) << "\",\n"
       << "      \"approach\": \"" << json_escape(s.sim.policy.name)
       << "\",\n"
       << "      \"policy_params\": {";
    {
      bool first_param = true;
      for (const auto& [key, value] : s.sim.policy.params) {
        os << (first_param ? "" : ", ") << "\"" << json_escape(key)
           << "\": \"" << json_escape(value) << "\"";
        first_param = false;
      }
    }
    os << "},\n"
       << "      \"replacement\": \"" << to_string(s.sim.replacement)
       << "\",\n"
       << "      \"tiles\": " << s.sim.platform.tiles << ",\n"
       << "      \"reconfig_latency_us\": " << s.sim.platform.reconfig_latency
       << ",\n"
       << "      \"ports\": " << s.sim.platform.reconfig_ports << ",\n"
       << "      \"isps\": " << s.sim.platform.isps << ",\n"
       << "      \"seed\": " << s.sim.seed << ",\n"
       << "      \"iterations\": " << s.sim.iterations << ",\n";
    if (s.mode == ScenarioMode::online) {
      os << "      \"arrival_kind\": \"" << to_string(s.arrivals.kind)
         << "\",\n"
         << "      \"arrival_rate_per_s\": "
         << fmt_json_double(s.arrivals.rate_per_s) << ",\n"
         << "      \"port_discipline\": \"" << to_string(s.port_discipline)
         << "\",\n"
         << "      \"admission_policy\": \"" << to_string(s.pool.admission)
         << "\",\n"
         << "      \"contiguous\": " << (s.pool.contiguous ? "true" : "false")
         << ",\n"
         << "      \"defrag\": " << (s.pool.defrag ? "true" : "false")
         << ",\n"
         << "      \"scheduler_cost_us\": " << s.scheduler_cost << ",\n"
         << "      \"shared_isps\": " << (s.shared_isps ? "true" : "false")
         << ",\n"
         << "      \"isp_discipline\": \"" << to_string(s.isp_discipline)
         << "\",\n"
         << "      \"deadline_scale\": " << fmt_json_double(s.deadline_scale)
         << ",\n"
         << "      \"high_crit_fraction\": "
         << fmt_json_double(s.high_crit_fraction) << ",\n"
         << "      \"preempt\": " << (s.preempt ? "true" : "false") << ",\n"
         << "      \"port_util_per_port_pct\": [";
      for (std::size_t p = 0; p < result.port_utilisation_per_port_pct.size();
           ++p)
        os << (p == 0 ? "" : ", ")
           << fmt_json_double(result.port_utilisation_per_port_pct[p]);
      os << "],\n";
    }
    os
       << "      \"ok\": " << (result.ok ? "true" : "false") << ",\n"
       << "      \"error\": \"" << json_escape(result.error) << "\",\n"
       << "      \"metrics\": {";
    bool first = true;
    for (const auto& [name, value] : metrics_of(result, /*all=*/true)) {
      os << (first ? "" : ", ") << "\"" << name
         << "\": " << fmt_json_double(value);
      first = false;
    }
    os << "}\n    }";
  }
  os << "\n  ],\n  \"families\": [";
  const auto families = aggregator.by_family();
  for (std::size_t i = 0; i < families.size(); ++i) {
    os << (i == 0 ? "" : ",") << "\n    ";
    write_summary_json(os, families[i], 4);
  }
  os << "\n  ],\n  \"overall\": ";
  write_summary_json(os, aggregator.overall(), 2);
  os << "\n}\n";
  return os.str();
}

namespace {

/// The per-port utilisation vector as one fixed-width CSV cell:
/// ';'-joined doubles (empty for non-online rows).
std::string fmt_port_vector(const std::vector<double>& per_port) {
  std::string out;
  for (std::size_t p = 0; p < per_port.size(); ++p) {
    if (p > 0) out += ';';
    out += fmt_csv_double(per_port[p]);
  }
  return out;
}

/// Policy parameters as one fixed-width CSV cell: ';'-joined "k=v" pairs
/// (empty for parameterless policies). Parameter values are arbitrary
/// strings, so the separators — and the escape itself — are
/// backslash-escaped: every cell splits back into exactly one parameter
/// map, as unambiguous as the JSON object form.
std::string escape_param_text(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    if (c == '\\' || c == ';' || c == '=') out += '\\';
    out += c;
  }
  return out;
}

std::string fmt_policy_params(const PolicyParams& params) {
  std::string out;
  for (const auto& [key, value] : params) {
    if (!out.empty()) out += ';';
    out += escape_param_text(key) + "=" + escape_param_text(value);
  }
  return out;
}

std::string csv_escape(const std::string& text) {
  if (text.find_first_of(",\"\n") == std::string::npos) return text;
  std::string out = "\"";
  for (char c : text) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

}  // namespace

std::string campaign_to_csv(const std::vector<ScenarioResult>& results) {
  std::ostringstream os;
  os << "name,family,workload,workload_file,mode,approach,policy_params,"
        "replacement,tiles,"
        "reconfig_latency_us,ports,isps,seed,iterations,admission_policy,"
        "contiguous,defrag,scheduler_cost_us,shared_isps,isp_discipline,"
        "deadline_scale,high_crit_fraction,preempt,"
        "port_util_per_port_pct,ok,error";
  for (const MetricColumn& column : k_metric_columns)
    os << "," << column.name;
  os << "\n";
  for (const ScenarioResult& result : results) {
    const Scenario& s = result.scenario;
    os << csv_escape(s.name) << "," << csv_escape(s.family) << ","
       << to_string(s.workload) << "," << csv_escape(s.workload_file) << ","
       << to_string(s.mode) << ","
       << csv_escape(s.sim.policy.name) << ","
       << csv_escape(fmt_policy_params(s.sim.policy.params)) << ","
       << to_string(s.sim.replacement)
       << "," << s.sim.platform.tiles << "," << s.sim.platform.reconfig_latency
       << "," << s.sim.platform.reconfig_ports << ","
       << s.sim.platform.isps << "," << s.sim.seed << ","
       << s.sim.iterations << "," << to_string(s.pool.admission) << ","
       << (s.pool.contiguous ? "1" : "0") << ","
       << (s.pool.defrag ? "1" : "0") << "," << s.scheduler_cost << ","
       << (s.shared_isps ? "1" : "0") << "," << to_string(s.isp_discipline)
       << "," << fmt_csv_double(s.deadline_scale) << ","
       << fmt_csv_double(s.high_crit_fraction) << ","
       << (s.preempt ? "1" : "0") << ","
       << fmt_port_vector(result.port_utilisation_per_port_pct) << ","
       << (result.ok ? "1" : "0") << "," << csv_escape(result.error);
    for (const MetricColumn& column : k_metric_columns) {
      os << ",";
      if (carries(result, column.scope))
        os << fmt_csv_double(column.get(result));
    }
    os << "\n";
  }
  return os.str();
}

// --- pivot tables ----------------------------------------------------------

std::vector<std::string> metric_names() {
  std::vector<std::string> names;
  for (const MetricColumn& column : k_metric_columns)
    names.push_back(column.name);
  return names;
}

std::size_t name_segments(const std::string& name) {
  return static_cast<std::size_t>(std::count(name.begin(), name.end(), '/')) +
         1;
}

namespace {

/// `name` split at segment `segment`: {the name without it, the segment}.
std::pair<std::string, std::string> split_at_segment(const std::string& name,
                                                     std::size_t segment) {
  if (segment >= name_segments(name))
    throw std::invalid_argument("scenario '" + name + "' has no segment " +
                                std::to_string(segment));
  std::size_t begin = 0;
  for (std::size_t i = 0; i < segment; ++i) begin = name.find('/', begin) + 1;
  const std::size_t end = std::min(name.find('/', begin), name.size());
  std::string rest =
      segment == 0 ? name.substr(std::min(end + 1, name.size()))
                   : name.substr(0, begin - 1) + name.substr(end);
  return {std::move(rest), name.substr(begin, end - begin)};
}

/// The position of `key` in `order`, appending it when first seen.
std::size_t first_seen_index(std::map<std::string, std::size_t>& index_of,
                             std::vector<std::string>& order,
                             const std::string& key) {
  const auto [it, inserted] = index_of.emplace(key, order.size());
  if (inserted) order.push_back(key);
  return it->second;
}

}  // namespace

PivotTable pivot_results(const std::vector<ScenarioResult>& results,
                         std::size_t segment, const std::string& metric) {
  const auto column = std::find_if(
      std::begin(k_metric_columns), std::end(k_metric_columns),
      [&](const MetricColumn& c) { return metric == c.name; });
  if (column == std::end(k_metric_columns))
    throw std::invalid_argument("unknown metric '" + metric + "'");

  PivotTable table;
  table.metric = metric;
  table.segment = segment;
  std::map<std::string, std::size_t> row_of, column_of;
  std::vector<std::pair<std::size_t, std::size_t>> cell_of;  // per result
  for (const ScenarioResult& result : results) {
    const auto [row, value] = split_at_segment(result.scenario.name, segment);
    cell_of.emplace_back(first_seen_index(row_of, table.rows, row),
                         first_seen_index(column_of, table.columns, value));
  }
  table.cells.assign(table.rows.size(), std::vector<std::optional<double>>(
                                            table.columns.size()));
  for (std::size_t i = 0; i < results.size(); ++i)
    if (results[i].ok && carries(results[i], column->scope))
      table.cells[cell_of[i].first][cell_of[i].second] =
          column->get(results[i]);
  return table;
}

void print_pivot(std::ostream& os, const PivotTable& table) {
  std::vector<std::string> headers{"scenario"};
  headers.insert(headers.end(), table.columns.begin(), table.columns.end());
  TablePrinter printer(std::move(headers));
  for (std::size_t r = 0; r < table.rows.size(); ++r) {
    std::vector<std::string> line{table.rows[r]};
    for (const std::optional<double>& cell : table.cells[r])
      line.push_back(cell ? fmt(*cell, 2) : std::string());
    printer.add_row(std::move(line));
  }
  os << table.metric << " by name segment " << table.segment << "\n";
  printer.print(os);
}

}  // namespace drhw
