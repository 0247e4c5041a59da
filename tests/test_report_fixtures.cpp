// Frozen report bytes. The campaign JSON/CSV writers and the trace
// writers (header, events, footer) are fed hand-built results — every
// metric set to a distinct value, so a swapped, dropped or renamed field
// changes the output — and compared against literal strings. Any change to these literals is a
// report format change: older readers and stored reports depend on them.
// The frozen binary trace also seeds the reader's hostile-bytes test:
// every prefix of it and seeded bit flips must read or be rejected.

#include <gtest/gtest.h>

#include <fstream>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "runner/report.hpp"
#include "trace/trace.hpp"
#include "util/rng.hpp"

namespace drhw {
namespace {

Scenario fixture_scenario(const std::string& name, ScenarioMode mode) {
  Scenario s;
  s.name = name;
  s.family = "fixture";
  s.mode = mode;
  s.sim.seed = 7;
  s.sim.iterations = 3;
  return s;
}

/// Fills every SimReport metric with a distinct value.
SimReport fixture_sim_report() {
  SimReport r;
  r.total_ideal = 90000;
  r.total_actual = 100250;
  r.overhead_pct = 11.388888888888889;
  r.instances = 12;
  r.drhw_subtask_instances = 40;
  r.reused_subtasks = 9;
  r.reuse_pct = 22.5;
  r.loads = 31;
  r.init_loads = 4;
  r.cancelled_loads = 2;
  r.intertask_prefetches = 3;
  r.energy = 812.75;
  r.energy_saved = 0.1;
  return r;
}

std::vector<ScenarioResult> fixture_results() {
  std::vector<ScenarioResult> results;

  ScenarioResult simulate;
  simulate.scenario = fixture_scenario("fx/simulate", ScenarioMode::simulate);
  simulate.report = fixture_sim_report();
  simulate.wall_ms = 1.5;
  simulate.ok = true;
  results.push_back(simulate);

  ScenarioResult online;
  online.scenario = fixture_scenario("fx/online", ScenarioMode::online);
  online.scenario.family = "fixture_online";
  online.scenario.sim.platform.reconfig_ports = 2;
  online.scenario.deadline_scale = 1.5;
  online.scenario.preempt = true;
  online.report = fixture_sim_report();
  online.report.total_actual = 123456;
  online.mean_response_ms = 4.25;
  online.max_response_ms = 19.5;
  online.mean_queueing_ms = 1.125;
  online.max_queueing_ms = 7.75;
  online.port_utilisation_pct = 37.5;
  online.port_utilisation_per_port_pct = {50.0, 25.0};
  online.isp_utilisation_pct = 12.0625;
  online.peak_concurrent_migrations = 2;
  online.horizon_ms = 250.5;
  online.response_p50_ms = 3.5;
  online.response_p95_ms = 15.25;
  online.response_p99_ms = 18.875;
  online.frag_pct = 6.5;
  online.queue_skips = 5;
  online.defrag_moves = 6;
  online.perf_events_total = 1001;
  online.perf_queue_depth_max = 17;
  online.perf_steady_allocs = 8;
  online.deadline_jobs = 12;
  online.deadline_misses = 3;
  online.deadline_miss_pct = 25.0;
  online.high_crit_jobs = 4;
  online.high_crit_misses = 1;
  online.high_crit_miss_pct = 33.333333333333336;
  online.mean_lateness_ms = -0.75;
  online.max_tardiness_ms = 2.25;
  online.preemptions = 1;
  online.wall_ms = 2.5;
  online.ok = true;
  results.push_back(online);

  ScenarioResult sched_cost;
  sched_cost.scenario =
      fixture_scenario("fx/sched_cost", ScenarioMode::sched_cost);
  sched_cost.list_sched_us = 12.5;
  sched_cost.hybrid_sched_us = 0.625;
  sched_cost.wall_ms = 3.5;
  sched_cost.ok = true;
  results.push_back(sched_cost);

  ScenarioResult failed;
  failed.scenario = fixture_scenario("fx/failed", ScenarioMode::simulate);
  failed.error = "bad \"tiles\", expected > 0";
  failed.wall_ms = 0.25;
  results.push_back(failed);

  ScenarioResult nan_metric;
  nan_metric.scenario = fixture_scenario("fx/nan", ScenarioMode::simulate);
  nan_metric.report = fixture_sim_report();
  nan_metric.report.energy = std::numeric_limits<double>::quiet_NaN();
  nan_metric.wall_ms = 4.5;
  nan_metric.ok = true;
  results.push_back(nan_metric);

  return results;
}

/// Every OnlineReport field except the wall-clock `perf` counters, each set
/// to a distinct value (one NaN: non-finite doubles are written as null).
OnlineReport fixture_online_report() {
  OnlineReport r;
  r.sim = fixture_sim_report();
  r.sim.spans = {7000, 8125};
  r.horizon = 250500;
  r.mean_response_ms = 4.25;
  r.max_response_ms = 19.5;
  r.mean_queueing_ms = 1.125;
  r.max_queueing_ms = 7.75;
  r.port_utilisation_pct = 37.5;
  r.port_utilisation_per_port_pct = {50.0, 25.0};
  r.isp_utilisation_pct = 12.0625;
  r.peak_concurrent_migrations = 2;
  r.response_p50_ms = 3.5;
  r.response_p95_ms = 15.25;
  r.response_p99_ms = 18.875;
  r.mean_frag_pct = 6.5;
  r.queue_skips = 5;
  r.defrag_moves = 6;
  r.deadline_jobs = 12;
  r.deadline_misses = 3;
  r.high_crit_jobs = 4;
  r.high_crit_misses = 1;
  r.deadline_miss_pct = 25.0;
  r.high_crit_miss_pct = 33.333333333333336;
  r.mean_lateness_ms = -0.75;
  r.max_tardiness_ms = std::numeric_limits<double>::quiet_NaN();
  r.preemptions = 1;
  r.spans = {3000, 4500, 6000};
  r.perf.events_total = 99;  // never serialised
  return r;
}

// campaign_to_json() of fixture_results(): descriptor blocks, metrics in
// name order, NaN written as null, per-family and overall aggregates.
const char* const k_campaign_json = R"json({
  "schema": "drhw-campaign-v1",
  "scenarios": [
    {
      "name": "fx/simulate",
      "family": "fixture",
      "workload": "multimedia",
      "mode": "simulate",
      "approach": "hybrid",
      "policy_params": {},
      "replacement": "lru",
      "tiles": 8,
      "reconfig_latency_us": 4000,
      "ports": 1,
      "isps": 1,
      "seed": 7,
      "iterations": 3,
      "ok": true,
      "error": "",
      "metrics": {"energy": 812.75, "energy_saved": 0.1, "loads": 31, "makespan_ms": 100.25, "overhead_pct": 11.38888888888889, "reuse_hits": 9, "reuse_pct": 22.5, "wall_ms": 1.5}
    },
    {
      "name": "fx/online",
      "family": "fixture_online",
      "workload": "multimedia",
      "mode": "online",
      "approach": "hybrid",
      "policy_params": {},
      "replacement": "lru",
      "tiles": 8,
      "reconfig_latency_us": 4000,
      "ports": 2,
      "isps": 1,
      "seed": 7,
      "iterations": 3,
      "arrival_kind": "poisson",
      "arrival_rate_per_s": 20,
      "port_discipline": "fifo",
      "admission_policy": "fifo_hol",
      "contiguous": false,
      "defrag": false,
      "scheduler_cost_us": 0,
      "shared_isps": false,
      "isp_discipline": "fifo",
      "deadline_scale": 1.5,
      "high_crit_fraction": 0.25,
      "preempt": true,
      "port_util_per_port_pct": [50, 25],
      "ok": true,
      "error": "",
      "metrics": {"deadline_jobs": 12, "deadline_miss_pct": 25, "deadline_misses": 3, "defrag_moves": 6, "energy": 812.75, "energy_saved": 0.1, "frag_pct": 6.5, "high_crit_miss_pct": 33.333333333333336, "horizon_ms": 250.5, "isp_util_pct": 12.0625, "loads": 31, "makespan_ms": 123.456, "max_tardiness_ms": 2.25, "mean_lateness_ms": -0.75, "overhead_pct": 11.38888888888889, "peak_concurrent_migrations": 2, "perf_events": 1001, "perf_queue_depth_max": 17, "perf_steady_allocs": 8, "port_util_pct": 37.5, "preemptions": 1, "queue_skips": 5, "queueing_max_ms": 7.75, "queueing_ms": 1.125, "response_max_ms": 19.5, "response_ms": 4.25, "response_p50_ms": 3.5, "response_p95_ms": 15.25, "response_p99_ms": 18.875, "reuse_hits": 9, "reuse_pct": 22.5, "wall_ms": 2.5}
    },
    {
      "name": "fx/sched_cost",
      "family": "fixture",
      "workload": "multimedia",
      "mode": "sched_cost",
      "approach": "hybrid",
      "policy_params": {},
      "replacement": "lru",
      "tiles": 8,
      "reconfig_latency_us": 4000,
      "ports": 1,
      "isps": 1,
      "seed": 7,
      "iterations": 3,
      "ok": true,
      "error": "",
      "metrics": {"hybrid_sched_us": 0.625, "list_sched_us": 12.5, "wall_ms": 3.5}
    },
    {
      "name": "fx/failed",
      "family": "fixture",
      "workload": "multimedia",
      "mode": "simulate",
      "approach": "hybrid",
      "policy_params": {},
      "replacement": "lru",
      "tiles": 8,
      "reconfig_latency_us": 4000,
      "ports": 1,
      "isps": 1,
      "seed": 7,
      "iterations": 3,
      "ok": false,
      "error": "bad \"tiles\", expected > 0",
      "metrics": {"wall_ms": 0.25}
    },
    {
      "name": "fx/nan",
      "family": "fixture",
      "workload": "multimedia",
      "mode": "simulate",
      "approach": "hybrid",
      "policy_params": {},
      "replacement": "lru",
      "tiles": 8,
      "reconfig_latency_us": 4000,
      "ports": 1,
      "isps": 1,
      "seed": 7,
      "iterations": 3,
      "ok": true,
      "error": "",
      "metrics": {"energy": null, "energy_saved": 0.1, "loads": 31, "makespan_ms": 100.25, "overhead_pct": 11.38888888888889, "reuse_hits": 9, "reuse_pct": 22.5, "wall_ms": 4.5}
    }
  ],
  "families": [
    {
      "family": "fixture",
      "scenarios": 4,
      "failed": 1,
      "metrics": {
        "energy": {"count": 2, "mean": null, "stddev": 0, "min": 812.75, "max": 812.75, "p50": null, "p95": null},
        "energy_saved": {"count": 2, "mean": 0.1, "stddev": 0, "min": 0.1, "max": 0.1, "p50": 0.1, "p95": 0.1},
        "loads": {"count": 2, "mean": 31, "stddev": 0, "min": 31, "max": 31, "p50": 31, "p95": 31},
        "makespan_ms": {"count": 2, "mean": 100.25, "stddev": 0, "min": 100.25, "max": 100.25, "p50": 100.25, "p95": 100.25},
        "overhead_pct": {"count": 2, "mean": 11.38888888888889, "stddev": 0, "min": 11.38888888888889, "max": 11.38888888888889, "p50": 11.38888888888889, "p95": 11.38888888888889},
        "reuse_hits": {"count": 2, "mean": 9, "stddev": 0, "min": 9, "max": 9, "p50": 9, "p95": 9},
        "reuse_pct": {"count": 2, "mean": 22.5, "stddev": 0, "min": 22.5, "max": 22.5, "p50": 22.5, "p95": 22.5}
      }
    },
    {
      "family": "fixture_online",
      "scenarios": 1,
      "failed": 0,
      "metrics": {
        "deadline_jobs": {"count": 1, "mean": 12, "stddev": 0, "min": 12, "max": 12, "p50": 12, "p95": 12},
        "deadline_miss_pct": {"count": 1, "mean": 25, "stddev": 0, "min": 25, "max": 25, "p50": 25, "p95": 25},
        "deadline_misses": {"count": 1, "mean": 3, "stddev": 0, "min": 3, "max": 3, "p50": 3, "p95": 3},
        "defrag_moves": {"count": 1, "mean": 6, "stddev": 0, "min": 6, "max": 6, "p50": 6, "p95": 6},
        "energy": {"count": 1, "mean": 812.75, "stddev": 0, "min": 812.75, "max": 812.75, "p50": 812.75, "p95": 812.75},
        "energy_saved": {"count": 1, "mean": 0.1, "stddev": 0, "min": 0.1, "max": 0.1, "p50": 0.1, "p95": 0.1},
        "frag_pct": {"count": 1, "mean": 6.5, "stddev": 0, "min": 6.5, "max": 6.5, "p50": 6.5, "p95": 6.5},
        "high_crit_miss_pct": {"count": 1, "mean": 33.333333333333336, "stddev": 0, "min": 33.333333333333336, "max": 33.333333333333336, "p50": 33.333333333333336, "p95": 33.333333333333336},
        "horizon_ms": {"count": 1, "mean": 250.5, "stddev": 0, "min": 250.5, "max": 250.5, "p50": 250.5, "p95": 250.5},
        "isp_util_pct": {"count": 1, "mean": 12.0625, "stddev": 0, "min": 12.0625, "max": 12.0625, "p50": 12.0625, "p95": 12.0625},
        "loads": {"count": 1, "mean": 31, "stddev": 0, "min": 31, "max": 31, "p50": 31, "p95": 31},
        "makespan_ms": {"count": 1, "mean": 123.456, "stddev": 0, "min": 123.456, "max": 123.456, "p50": 123.456, "p95": 123.456},
        "max_tardiness_ms": {"count": 1, "mean": 2.25, "stddev": 0, "min": 2.25, "max": 2.25, "p50": 2.25, "p95": 2.25},
        "mean_lateness_ms": {"count": 1, "mean": -0.75, "stddev": 0, "min": -0.75, "max": -0.75, "p50": -0.75, "p95": -0.75},
        "overhead_pct": {"count": 1, "mean": 11.38888888888889, "stddev": 0, "min": 11.38888888888889, "max": 11.38888888888889, "p50": 11.38888888888889, "p95": 11.38888888888889},
        "peak_concurrent_migrations": {"count": 1, "mean": 2, "stddev": 0, "min": 2, "max": 2, "p50": 2, "p95": 2},
        "perf_events": {"count": 1, "mean": 1001, "stddev": 0, "min": 1001, "max": 1001, "p50": 1001, "p95": 1001},
        "perf_queue_depth_max": {"count": 1, "mean": 17, "stddev": 0, "min": 17, "max": 17, "p50": 17, "p95": 17},
        "perf_steady_allocs": {"count": 1, "mean": 8, "stddev": 0, "min": 8, "max": 8, "p50": 8, "p95": 8},
        "port_util_pct": {"count": 1, "mean": 37.5, "stddev": 0, "min": 37.5, "max": 37.5, "p50": 37.5, "p95": 37.5},
        "preemptions": {"count": 1, "mean": 1, "stddev": 0, "min": 1, "max": 1, "p50": 1, "p95": 1},
        "queue_skips": {"count": 1, "mean": 5, "stddev": 0, "min": 5, "max": 5, "p50": 5, "p95": 5},
        "queueing_max_ms": {"count": 1, "mean": 7.75, "stddev": 0, "min": 7.75, "max": 7.75, "p50": 7.75, "p95": 7.75},
        "queueing_ms": {"count": 1, "mean": 1.125, "stddev": 0, "min": 1.125, "max": 1.125, "p50": 1.125, "p95": 1.125},
        "response_max_ms": {"count": 1, "mean": 19.5, "stddev": 0, "min": 19.5, "max": 19.5, "p50": 19.5, "p95": 19.5},
        "response_ms": {"count": 1, "mean": 4.25, "stddev": 0, "min": 4.25, "max": 4.25, "p50": 4.25, "p95": 4.25},
        "response_p50_ms": {"count": 1, "mean": 3.5, "stddev": 0, "min": 3.5, "max": 3.5, "p50": 3.5, "p95": 3.5},
        "response_p95_ms": {"count": 1, "mean": 15.25, "stddev": 0, "min": 15.25, "max": 15.25, "p50": 15.25, "p95": 15.25},
        "response_p99_ms": {"count": 1, "mean": 18.875, "stddev": 0, "min": 18.875, "max": 18.875, "p50": 18.875, "p95": 18.875},
        "reuse_hits": {"count": 1, "mean": 9, "stddev": 0, "min": 9, "max": 9, "p50": 9, "p95": 9},
        "reuse_pct": {"count": 1, "mean": 22.5, "stddev": 0, "min": 22.5, "max": 22.5, "p50": 22.5, "p95": 22.5}
      }
    }
  ],
  "overall": {
    "family": "",
    "scenarios": 5,
    "failed": 1,
    "metrics": {
      "deadline_jobs": {"count": 1, "mean": 12, "stddev": 0, "min": 12, "max": 12, "p50": 12, "p95": 12},
      "deadline_miss_pct": {"count": 1, "mean": 25, "stddev": 0, "min": 25, "max": 25, "p50": 25, "p95": 25},
      "deadline_misses": {"count": 1, "mean": 3, "stddev": 0, "min": 3, "max": 3, "p50": 3, "p95": 3},
      "defrag_moves": {"count": 1, "mean": 6, "stddev": 0, "min": 6, "max": 6, "p50": 6, "p95": 6},
      "energy": {"count": 3, "mean": null, "stddev": 0, "min": 812.75, "max": 812.75, "p50": null, "p95": null},
      "energy_saved": {"count": 3, "mean": 0.10000000000000002, "stddev": 0, "min": 0.1, "max": 0.1, "p50": 0.1, "p95": 0.1},
      "frag_pct": {"count": 1, "mean": 6.5, "stddev": 0, "min": 6.5, "max": 6.5, "p50": 6.5, "p95": 6.5},
      "high_crit_miss_pct": {"count": 1, "mean": 33.333333333333336, "stddev": 0, "min": 33.333333333333336, "max": 33.333333333333336, "p50": 33.333333333333336, "p95": 33.333333333333336},
      "horizon_ms": {"count": 1, "mean": 250.5, "stddev": 0, "min": 250.5, "max": 250.5, "p50": 250.5, "p95": 250.5},
      "isp_util_pct": {"count": 1, "mean": 12.0625, "stddev": 0, "min": 12.0625, "max": 12.0625, "p50": 12.0625, "p95": 12.0625},
      "loads": {"count": 3, "mean": 31, "stddev": 0, "min": 31, "max": 31, "p50": 31, "p95": 31},
      "makespan_ms": {"count": 3, "mean": 107.98533333333334, "stddev": 13.3979903468143, "min": 100.25, "max": 123.456, "p50": 100.25, "p95": 121.1354},
      "max_tardiness_ms": {"count": 1, "mean": 2.25, "stddev": 0, "min": 2.25, "max": 2.25, "p50": 2.25, "p95": 2.25},
      "mean_lateness_ms": {"count": 1, "mean": -0.75, "stddev": 0, "min": -0.75, "max": -0.75, "p50": -0.75, "p95": -0.75},
      "overhead_pct": {"count": 3, "mean": 11.388888888888891, "stddev": 0, "min": 11.38888888888889, "max": 11.38888888888889, "p50": 11.38888888888889, "p95": 11.38888888888889},
      "peak_concurrent_migrations": {"count": 1, "mean": 2, "stddev": 0, "min": 2, "max": 2, "p50": 2, "p95": 2},
      "perf_events": {"count": 1, "mean": 1001, "stddev": 0, "min": 1001, "max": 1001, "p50": 1001, "p95": 1001},
      "perf_queue_depth_max": {"count": 1, "mean": 17, "stddev": 0, "min": 17, "max": 17, "p50": 17, "p95": 17},
      "perf_steady_allocs": {"count": 1, "mean": 8, "stddev": 0, "min": 8, "max": 8, "p50": 8, "p95": 8},
      "port_util_pct": {"count": 1, "mean": 37.5, "stddev": 0, "min": 37.5, "max": 37.5, "p50": 37.5, "p95": 37.5},
      "preemptions": {"count": 1, "mean": 1, "stddev": 0, "min": 1, "max": 1, "p50": 1, "p95": 1},
      "queue_skips": {"count": 1, "mean": 5, "stddev": 0, "min": 5, "max": 5, "p50": 5, "p95": 5},
      "queueing_max_ms": {"count": 1, "mean": 7.75, "stddev": 0, "min": 7.75, "max": 7.75, "p50": 7.75, "p95": 7.75},
      "queueing_ms": {"count": 1, "mean": 1.125, "stddev": 0, "min": 1.125, "max": 1.125, "p50": 1.125, "p95": 1.125},
      "response_max_ms": {"count": 1, "mean": 19.5, "stddev": 0, "min": 19.5, "max": 19.5, "p50": 19.5, "p95": 19.5},
      "response_ms": {"count": 1, "mean": 4.25, "stddev": 0, "min": 4.25, "max": 4.25, "p50": 4.25, "p95": 4.25},
      "response_p50_ms": {"count": 1, "mean": 3.5, "stddev": 0, "min": 3.5, "max": 3.5, "p50": 3.5, "p95": 3.5},
      "response_p95_ms": {"count": 1, "mean": 15.25, "stddev": 0, "min": 15.25, "max": 15.25, "p50": 15.25, "p95": 15.25},
      "response_p99_ms": {"count": 1, "mean": 18.875, "stddev": 0, "min": 18.875, "max": 18.875, "p50": 18.875, "p95": 18.875},
      "reuse_hits": {"count": 3, "mean": 9, "stddev": 0, "min": 9, "max": 9, "p50": 9, "p95": 9},
      "reuse_pct": {"count": 3, "mean": 22.5, "stddev": 0, "min": 22.5, "max": 22.5, "p50": 22.5, "p95": 22.5}
    }
  }
}
)json";

// campaign_to_csv() of fixture_results(): fixed-width rows, empty cells
// for metrics a mode does not report and for non-finite values.
const char* const k_campaign_csv =
    "name,family,workload,workload_file,mode,approach,policy_params"
    ",replacement,tiles,reconfig_latency_us,ports,isps,seed"
    ",iterations,admission_policy,contiguous,defrag,scheduler_cost_us"
    ",shared_isps,isp_discipline,deadline_scale,high_crit_fraction"
    ",preempt,port_util_per_port_pct,ok,error"
    ",makespan_ms,overhead_pct,reuse_pct,reuse_hits,loads,energy"
    ",energy_saved,response_ms,response_max_ms,response_p50_ms"
    ",response_p95_ms,response_p99_ms,queueing_ms,queueing_max_ms"
    ",port_util_pct,isp_util_pct,peak_concurrent_migrations"
    ",horizon_ms,frag_pct,queue_skips,defrag_moves,perf_events"
    ",perf_queue_depth_max,perf_steady_allocs,deadline_jobs"
    ",deadline_misses,deadline_miss_pct,high_crit_miss_pct"
    ",mean_lateness_ms,max_tardiness_ms,preemptions,list_sched_us"
    ",hybrid_sched_us,wall_ms\n"
    "fx/simulate,fixture,multimedia,,simulate,hybrid,,lru,8,4000,1,1"
    ",7,3,fifo_hol,0,0,0,0,fifo,0,0.25,0,,1,,100.25"
    ",11.38888888888889,22.5,9,31,812.75,0.1,,,,,,,,,,,,,,,,,,,,,,,,,"
    ",,1.5\n"
    "fx/online,fixture_online,multimedia,,online,hybrid,,lru,8,4000,2"
    ",1,7,3,fifo_hol,0,0,0,0,fifo,1.5,0.25,1,50;25,1,"
    ",123.456,11.38888888888889,22.5,9,31,812.75,0.1,4.25,19.5,3.5"
    ",15.25,18.875,1.125,7.75,37.5,12.0625,2,250.5,6.5,5,6,1001,17,8"
    ",12,3,25,33.333333333333336,-0.75,2.25,1,,,2.5\n"
    "fx/sched_cost,fixture,multimedia,,sched_cost,hybrid,,lru,8,4000"
    ",1,1,7,3,fifo_hol,0,0,0,0,fifo,0,0.25,0,,1,,,,,,,,,,,,,"
    ",,,,,,,,,,,,,,,,,,,,12.5,0.625,3.5\n"
    "fx/failed,fixture,multimedia,,simulate,hybrid,,lru,8,4000,1,1,7"
    ",3,fifo_hol,0,0,0,0,fifo,0,0.25,0,,0,\"bad \"\"tiles\"\""
    ", expected > 0\",,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,0.25\n"
    "fx/nan,fixture,multimedia,,simulate,hybrid,,lru,8,4000,1,1,7,3"
    ",fifo_hol,0,0,0,0,fifo,0,0.25,0,,1,,100.25"
    ",11.38888888888889,22.5,9,31,,0.1,,,,,,,,,,,,,,,,,,,,,,,,,,,4.5\n";

// online_report_to_json() of fixture_online_report(): the trace footer.
const char* const k_footer_json =
    "{\"sim\":{\"total_ideal\":90000,\"total_actual\":100250"
    ",\"overhead_pct\":11.38888888888889,\"instances\":12"
    ",\"drhw_subtask_instances\":40,\"reused_subtasks\":9"
    ",\"reuse_pct\":22.5,\"loads\":31,\"init_loads\":4,\"cancelled_loads\":2"
    ",\"intertask_prefetches\":3,\"energy\":812.75,\"energy_saved\":0.1"
    ",\"spans\":[7000,8125]},\"horizon\":250500,\"mean_response_ms\":4.25"
    ",\"max_response_ms\":19.5,\"mean_queueing_ms\":1.125"
    ",\"max_queueing_ms\":7.75,\"port_utilisation_pct\":37.5"
    ",\"port_utilisation_per_port_pct\":[50,25]"
    ",\"isp_utilisation_pct\":12.0625,\"peak_concurrent_migrations\":2"
    ",\"response_p50_ms\":3.5,\"response_p95_ms\":15.25"
    ",\"response_p99_ms\":18.875,\"mean_frag_pct\":6.5,\"queue_skips\":5"
    ",\"defrag_moves\":6,\"deadline_jobs\":12,\"deadline_misses\":3"
    ",\"high_crit_jobs\":4,\"high_crit_misses\":1,\"deadline_miss_pct\":25"
    ",\"high_crit_miss_pct\":33.333333333333336"
    ",\"mean_lateness_ms\":-0.75,\"max_tardiness_ms\":null"
    ",\"preemptions\":1,\"spans\":[3000,4500,6000]}";

TEST(ReportFixtures, CampaignJsonBytesAreFrozen) {
  const auto results = fixture_results();
  StatsAggregator aggregator;
  aggregator.add(results);
  EXPECT_EQ(campaign_to_json(results, aggregator), k_campaign_json);
}

TEST(ReportFixtures, CampaignCsvBytesAreFrozen) {
  EXPECT_EQ(campaign_to_csv(fixture_results()), k_campaign_csv);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

TEST(ReportFixtures, TraceFooterBytesAreFrozenInBothEncodings) {
  const OnlineReport report = fixture_online_report();
  EXPECT_EQ(online_report_to_json(report), k_footer_json);
  const std::string footer = k_footer_json;
  const std::string jsonl_path = testing::TempDir() + "/fixture.trace.jsonl";
  const std::string binary_path = testing::TempDir() + "/fixture.trace.bin";
  for (const auto& [path, format] :
       {std::pair{jsonl_path, TraceFormat::jsonl},
        std::pair{binary_path, TraceFormat::binary}}) {
    TraceRecorder recorder(path, format, OnlineSimOptions{});
    recorder.finish(report);
  }
  // JSONL: the last line wraps the report; binary: the footer frame's
  // payload is the report bytes themselves.
  const std::string jsonl = read_file(jsonl_path);
  const std::string jsonl_footer = "{\"report\":" + footer + "}\n";
  ASSERT_GE(jsonl.size(), jsonl_footer.size());
  EXPECT_EQ(jsonl.substr(jsonl.size() - jsonl_footer.size()), jsonl_footer);
  const std::string binary = read_file(binary_path);
  ASSERT_GE(binary.size(), footer.size());
  EXPECT_EQ(binary.substr(binary.size() - footer.size()), footer);
}


// The header line / block of a trace recorded with fixture_trace_options()
// and fixture_trace_preps().
const char* const k_trace_header_json =
    "{\"schema\":\"drhw-trace-v2\",\"policy\":\"edf_hybrid[intertask=0]\""
    ",\"arrivals\":\"bursty\""
    ",\"seed\":9876543210123,\"iterations\":42,\"tiles\":12"
    ",\"reconfig_ports\":2,\"isps\":3,\"reconfig_latency\":2500"
    ",\"reconfig_energy\":0.1,\"deadline_scale\":1.25,\"shared_isps\":true"
    ",\"record_spans\":false,\"preps\":[{\"name\":\"jpeg \\\"dec\\\"\""
    ",\"ideal\":18000,\"drhw_subtasks\":5,\"exec_energy\":2.5"
    ",\"subtasks\":7},{\"name\":\"mpeg\",\"ideal\":33000"
    ",\"drhw_subtasks\":3,\"exec_energy\":0.75,\"subtasks\":4}]}";

// Every header field off its default.
OnlineSimOptions fixture_trace_options() {
  OnlineSimOptions options;
  options.policy = PolicySpec("edf_hybrid").with("intertask", "0");
  options.arrivals.kind = ArrivalProcess::Kind::bursty;
  options.seed = 9876543210123ull;
  options.iterations = 42;
  options.platform.tiles = 12;
  options.platform.reconfig_ports = 2;
  options.platform.isps = 3;
  options.platform.reconfig_latency = 2500;
  options.platform.reconfig_energy = 0.1;
  options.deadline_scale = 1.25;
  options.shared_isps = true;
  options.record_spans = false;
  return options;
}

std::vector<TracePrep> fixture_trace_preps() {
  TracePrep jpeg;
  jpeg.name = "jpeg \"dec\"";
  jpeg.ideal = 18000;
  jpeg.drhw_subtasks = 5;
  jpeg.exec_energy = 2.5;
  jpeg.subtasks = 7;
  TracePrep mpeg;
  mpeg.name = "mpeg";
  mpeg.ideal = 33000;
  mpeg.drhw_subtasks = 3;
  mpeg.exec_energy = 0.75;
  mpeg.subtasks = 4;
  return {jpeg, mpeg};
}

/// "4452..." -> "DR...".
std::string from_hex(const std::string& hex) {
  std::string bytes;
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2)
    bytes.push_back(
        static_cast<char>(std::stoi(hex.substr(i, 2), nullptr, 16)));
  return bytes;
}

// Two events, one with every payload field off its default (and a 3-tile
// admit list), one with every field at its default: both encodings omit
// defaults except `t`, which the binary payload carries as a delta from
// the previous event's (here a negative one).
void write_fixture_trace(const std::string& path, TraceFormat format) {
  const PhysTileId tiles[] = {5, 1, 3};
  TraceEvent full(TraceEvent::Kind::admit, 1234567, 3);
  full.subtask = 4;
  full.prep = 1;
  full.config = 77;
  full.unit = 2;
  full.duration = 5000;
  full.src = 6;
  full.dst = -2;
  full.loads = 8;
  full.aux = 9;
  full.init = 10;
  full.deadline = 250000;
  full.value = 0.1;
  full.tiles = tiles;
  full.tile_count = 3;
  TraceRecorder recorder(path, format, fixture_trace_options());
  recorder.on_preps(fixture_trace_preps());
  recorder.record(full);
  recorder.record(TraceEvent{});
  recorder.finish(fixture_online_report());
}

TEST(ReportFixtures, TraceHeaderAndEventBytesAreFrozenInBothEncodings) {
  const std::string jsonl_path = testing::TempDir() + "/fixture.events.jsonl";
  const std::string binary_path = testing::TempDir() + "/fixture.events.bin";
  write_fixture_trace(jsonl_path, TraceFormat::jsonl);
  write_fixture_trace(binary_path, TraceFormat::binary);

  const std::string header = k_trace_header_json;
  const std::string footer = k_footer_json;
  EXPECT_EQ(read_file(jsonl_path),
            header +
                "\n{\"ev\":\"admit\",\"t\":1234567,\"job\":3,\"sub\":4"
                ",\"prep\":1,\"cfg\":77,\"unit\":2,\"dur\":5000,\"src\":6"
                ",\"dst\":-2,\"loads\":8,\"aux\":9,\"init\":10,\"dl\":250000"
                ",\"val\":0.1,\"tiles\":[5,1,3]}\n"
                "{\"ev\":\"arrival\",\"t\":0}\n"
                "{\"report\":" +
                footer + "}\n");

  const std::string admit_record = from_hex(
      "01" "22"          // kind admit, 34-byte payload
      "ff7f"             // presence mask: all 13 optional fields + tiles
      "8eda9601"         // t: +1234567
      "06" "08" "02"     // job 3, subtask 4, prep 1
      "9a01"             // config 77
      "04"               // unit 2
      "904e"             // duration 5000
      "0c" "03"          // src 6, dst -2
      "10" "12" "14"     // loads 8, aux 9, init 10
      "a0c21e"           // deadline 250000
      "9a9999999999b93f" // value 0.1, raw bits
      "03" "0a" "02" "06");  // 3 tiles: 5, 1, 3
  const std::string default_record = from_hex(
      "00" "05"          // kind arrival, 5-byte payload
      "00"               // presence mask: every field at its default
      "8dda9601");       // t: -1234567, back to 0
  EXPECT_EQ(read_file(binary_path),
            from_hex("4452485754524332" "ba010000") + header + admit_record +
                default_record + from_hex("ff" "f706") + footer);
}

// Hostile bytes: every prefix of the fixture's binary trace, and 1,000
// seeded single-bit flips of it, either read or are rejected with
// std::invalid_argument — never another exception, a crash or (under the
// sanitizers) an out-of-bounds read.
TEST(ReportFixtures, BinaryReaderReadsOrRejectsEveryPrefixAndBitFlip) {
  const std::string fixture_path = testing::TempDir() + "/fixture.hostile.bin";
  write_fixture_trace(fixture_path, TraceFormat::binary);
  const std::string fixture = read_file(fixture_path);
  ASSERT_TRUE(read_trace(fixture_path).has_live);
  const std::string path = testing::TempDir() + "/hostile.bin";
  const auto reads_or_rejects = [&](const std::string& bytes,
                                    const std::string& what) {
    std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
    try {
      read_trace(path);
    } catch (const std::invalid_argument&) {
    } catch (const std::exception& e) {
      ADD_FAILURE() << what << ": " << e.what();
    }
  };
  for (std::size_t size = 0; size < fixture.size(); ++size)
    reads_or_rejects(fixture.substr(0, size),
                     "prefix of " + std::to_string(size) + " bytes");
  Rng rng(20260101);
  for (int flip = 0; flip < 1000; ++flip) {
    std::string bytes = fixture;
    const std::size_t at = rng.next_below(bytes.size());
    const int bit = static_cast<int>(rng.next_below(8));
    bytes[at] = static_cast<char>(bytes[at] ^ (1 << bit));
    reads_or_rejects(bytes, "bit " + std::to_string(bit) + " of byte " +
                                std::to_string(at) + " flipped");
  }
}

}  // namespace
}  // namespace drhw
