#pragma once

/// \file report.hpp
/// Campaign result aggregation and serialisation. The StatsAggregator
/// folds per-scenario SimReport metrics into per-family and whole-campaign
/// summary distributions (mean/stddev/min/max/p50/p95); the JSON and CSV
/// writers produce machine-readable reports, and the matching readers
/// round-trip them. Only the tests call the readers (round-trip and
/// forward-compatibility checks); no tool reads a campaign report back.
///
/// Only deterministic metrics enter the aggregates; wall-clock fields
/// (wall_ms, the sched_cost timings) are reported per scenario but never
/// aggregated, so aggregate blocks are bit-identical across thread counts
/// and machines.

#include <map>
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

/// Parsed form of a campaign report (reader side of the round trip).
struct ParsedScenario {
  std::string name;
  std::string family;
  std::string workload;
  /// WorkloadKind::file scenarios only: the .dwl path (empty otherwise and
  /// in reports written before the workload-file column existed).
  std::string workload_file;
  std::string mode;
  /// The prefetch policy's registered name (the column keeps its historic
  /// "approach" spelling in both report formats).
  std::string approach;
  /// The policy's parameters, exactly as in the scenario's PolicySpec.
  /// JSON: a "policy_params" object; CSV: one ';'-joined "k=v" cell.
  std::map<std::string, std::string> policy_params;
  std::string replacement;
  int tiles = 0;
  long long reconfig_latency_us = 0;
  int ports = 0;
  std::uint64_t seed = 0;
  int iterations = 0;
  /// Online scenarios only (empty / 0 otherwise).
  std::string arrival_kind;
  double arrival_rate_per_s = 0.0;
  std::string port_discipline;
  std::string admission_policy;
  bool contiguous = false;
  bool defrag = false;
  double scheduler_cost_us = 0.0;
  int isps = 0;
  bool shared_isps = false;
  std::string isp_discipline;
  /// Real-time task model (online scenarios; 0/false in reports written
  /// before the deadline columns existed — readers treat the fields as
  /// optional).
  double deadline_scale = 0.0;
  double high_crit_fraction = 0.0;
  bool preempt = false;
  /// Event-queue backend of online scenarios (empty in pre-backend
  /// reports; the default backend is "calendar").
  std::string queue_backend;
  bool ok = false;
  std::string error;
  /// metric name -> value, exactly the columns/keys of the writers.
  std::map<std::string, double> metrics;
  /// Per-port utilisation vector (online scenarios; empty otherwise or in
  /// pre-multiport reports). JSON: a "port_util_per_port_pct" array; CSV:
  /// one ';'-joined cell, so the row stays fixed-width.
  std::vector<double> port_util_per_port;
};

struct ParsedCampaign {
  std::string schema;
  std::vector<ParsedScenario> scenarios;
  std::vector<GroupSummary> families;
  GroupSummary overall;
};

/// Parses campaign_to_json() output. Throws std::invalid_argument on
/// malformed input.
ParsedCampaign campaign_from_json(const std::string& json);

/// Parses campaign_to_csv() output (scenario rows only).
std::vector<ParsedScenario> campaign_from_csv(const std::string& csv);

}  // namespace drhw
