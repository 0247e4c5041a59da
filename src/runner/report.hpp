#pragma once

/// \file report.hpp
/// Campaign result aggregation and serialisation. The StatsAggregator
/// folds per-scenario SimReport metrics into per-family and whole-campaign
/// summary distributions (mean/stddev/min/max/p50/p95); the JSON and CSV
/// writers produce machine-readable reports. Reports are output only: no
/// tool reads one back, so no reader ships. The tests check the writers
/// against literal fixtures and read their output with util/json's parser
/// and a test-side CSV splitter; CI loads its smoke campaigns' reports
/// with Python's json and csv modules. pivot_results() lays one metric out
/// as a table over a scenario-name segment (`drhw_sched campaign
/// --pivot`), reading the same metric list as the writers.
///
/// Only deterministic metrics enter the aggregates; wall-clock fields
/// (wall_ms, the sched_cost timings) are reported per scenario but never
/// aggregated, so aggregate blocks are bit-identical across thread counts
/// and machines.

#include <iosfwd>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "runner/campaign.hpp"

namespace drhw {

/// Summary of one metric's distribution over a scenario group.
struct MetricSummary {
  std::size_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
};

bool operator==(const MetricSummary& a, const MetricSummary& b);

/// Aggregated statistics for one family (or the whole campaign).
struct GroupSummary {
  std::string family;  ///< empty for the whole-campaign summary
  std::size_t scenarios = 0;
  std::size_t failed = 0;
  /// metric name -> distribution, one entry per deterministic metric the
  /// group's results carry (the simulate/online and online-only rows of
  /// report.cpp's k_metric_columns table; never the wall-clock ones).
  std::map<std::string, MetricSummary> metrics;
};

/// Folds ScenarioResults into group summaries keyed by scenario family.
class StatsAggregator {
 public:
  void add(const ScenarioResult& result);
  void add(const std::vector<ScenarioResult>& results);

  /// Per-family summaries, ordered by family name.
  std::vector<GroupSummary> by_family() const;
  /// One summary over every aggregated scenario.
  GroupSummary overall() const;

 private:
  struct Group {
    std::size_t scenarios = 0;
    std::size_t failed = 0;
    /// metric name -> samples, in insertion order.
    std::map<std::string, std::vector<double>> samples;
  };
  Group total_;
  std::map<std::string, Group> groups_;
};

/// The deterministic metric samples extracted from one result (the values
/// the aggregator folds). Exposed so tests and writers agree on one list.
std::map<std::string, double> deterministic_metrics(
    const ScenarioResult& result);

// --- serialisation ---------------------------------------------------------

/// Whole campaign as JSON: schema tag, one object per scenario (descriptor
/// + metrics), per-family aggregate blocks and the overall block. Doubles
/// are printed with round-trip precision.
std::string campaign_to_json(const std::vector<ScenarioResult>& results,
                             const StatsAggregator& aggregator);

/// Per-scenario results as CSV (one header row, one row per scenario).
std::string campaign_to_csv(const std::vector<ScenarioResult>& results);

// --- pivot tables ----------------------------------------------------------

/// Every campaign metric name, in CSV column order: the names a report
/// row and a pivot cell can carry.
std::vector<std::string> metric_names();

/// The number of '/'-separated segments in a scenario name.
std::size_t name_segments(const std::string& name);

/// One metric spread over one segment of the '/'-separated scenario names
/// (segment 0 is the family). Columns are the segment's distinct values
/// and rows the names with that segment removed, both in the order the
/// results list them (catalogue order), so every result lands in exactly
/// one cell.
struct PivotTable {
  std::string metric;
  std::size_t segment = 0;
  std::vector<std::string> columns;
  std::vector<std::string> rows;
  /// cells[row][column]; empty where no result landed, where the result
  /// failed, or where it does not carry the metric.
  std::vector<std::vector<std::optional<double>>> cells;
};

/// Pivots `results` over name segment `segment` with `metric` in the
/// cells. Reads the results only.
/// \throws std::invalid_argument when `metric` is not a campaign metric or
///         a result's name has no segment `segment`.
PivotTable pivot_results(const std::vector<ScenarioResult>& results,
                         std::size_t segment, const std::string& metric);

/// Renders a pivot as an aligned text table, cells with two decimals.
void print_pivot(std::ostream& os, const PivotTable& table);

}  // namespace drhw
