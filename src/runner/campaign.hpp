#pragma once

/// \file campaign.hpp
/// Parallel campaign engine: executes batches of Scenario descriptors on a
/// worker-thread pool and collects per-scenario results. Scenarios are
/// fully independent (each builds its own workload and seeds its own RNG
/// from the descriptor), so the aggregated simulation metrics are
/// bit-identical at any thread count; only the wall-clock fields vary.

#include <cstddef>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "runner/scenario.hpp"
#include "sim/workloads.hpp"
#include "wio/workload_build.hpp"

namespace drhw {

/// Graphs and design-time preparation for a synthetic scenario. Owns the
/// graphs; PreparedScenario entries point into them.
struct SyntheticWorkload {
  std::vector<SubtaskGraph> graphs;
  std::vector<PreparedScenario> prepared;
};

/// Memoises design-time workload preparation across scenarios: the five
/// approaches of a Figure 6/7 grid point share one prepared workload
/// instead of redoing the B&B and hybrid design flow. Thread-safe; each
/// workload is built exactly once even under concurrent lookups, and a
/// build failure propagates to every scenario that needs it.
class WorkloadCache {
 public:
  /// The identity of the workload `scenario` reads: its kind (pocket_gl
  /// and pocket_gl_frames share one tag, only their samplers differ) plus
  /// every field preparation reads — platform shape and design options,
  /// then the task filter (multimedia), the generator parameters
  /// (synthetic) or the path (file). Doubles are written exactly, so
  /// scenarios share a workload only when preparation cannot tell them
  /// apart. Every accessor below looks its workload up under this key.
  static std::string key(const Scenario& scenario);

  /// Each accessor throws std::invalid_argument when the scenario's kind
  /// is not the one it builds.
  std::shared_ptr<const MultimediaWorkload> multimedia(
      const Scenario& scenario);
  /// WorkloadKind::pocket_gl and pocket_gl_frames.
  std::shared_ptr<const PocketGlWorkload> pocket_gl(const Scenario& scenario);
  std::shared_ptr<const SyntheticWorkload> synthetic(
      const Scenario& scenario);
  /// WorkloadKind::file: parses + builds scenario.workload_file.
  std::shared_ptr<const FileWorkload> file(const Scenario& scenario);

 private:
  template <typename T, typename Build>
  std::shared_ptr<const T> lookup(const Scenario& scenario, WorkloadKind kind,
                                  Build build);

  std::mutex mutex_;
  std::map<std::string, std::shared_future<std::shared_ptr<const void>>>
      workloads_;
};

/// Outcome of one scenario execution.
struct ScenarioResult {
  Scenario scenario;
  /// Simulation metrics (zero in sched_cost mode; in online mode these are
  /// the OnlineReport's embedded SimReport metrics).
  SimReport report;
  /// Online mode only: response time (arrival -> retire), queueing delay
  /// (arrival -> admission), reconfiguration-port utilisation and the
  /// completion time of the last instance. Simulated time — deterministic.
  double mean_response_ms = 0.0;
  double max_response_ms = 0.0;
  double mean_queueing_ms = 0.0;
  double max_queueing_ms = 0.0;
  /// Port busy time normalised by the port count (always <= 100).
  double port_utilisation_pct = 0.0;
  /// Per-port busy time over the run's busy horizon, index = port id
  /// (size = reconfig_ports; empty outside online mode). Sums to
  /// port_utilisation_pct * ports.
  std::vector<double> port_utilisation_per_port_pct;
  /// ISP execution time / (isps * horizon): a true utilisation under
  /// shared-ISP contention, the offered ISP load otherwise.
  double isp_utilisation_pct = 0.0;
  /// Highest number of defragmentation migrations in flight at once.
  long peak_concurrent_migrations = 0;
  double horizon_ms = 0.0;
  /// Online mode only: streaming response-time percentiles (P² sketch).
  double response_p50_ms = 0.0;
  double response_p95_ms = 0.0;
  double response_p99_ms = 0.0;
  /// Online mode only: time-weighted mean tile-pool fragmentation,
  /// admissions that overtook an older queued instance, and
  /// defragmentation relocations.
  double frag_pct = 0.0;
  long queue_skips = 0;
  long defrag_moves = 0;
  /// Online mode only: the kernel's deterministic perf counters
  /// (util/perf_stats.hpp) — events dispatched, event-queue high-water
  /// depth, tracked allocations after warm-up. Pure functions of the
  /// scenario, so they aggregate like any simulated-time metric; the
  /// wall-clock phase timers deliberately stay out of campaign results.
  std::uint64_t perf_events_total = 0;
  std::uint64_t perf_queue_depth_max = 0;
  std::uint64_t perf_steady_allocs = 0;
  /// Online mode with deadline_scale > 0 only: real-time outcome. Jobs
  /// retired past their absolute deadline, split out for the
  /// high-criticality class, mean lateness over all deadline-carrying jobs
  /// (negative = early), worst tardiness, and preemptive checkpoints
  /// performed. All zero when deadlines are off.
  long deadline_jobs = 0;
  long deadline_misses = 0;
  double deadline_miss_pct = 0.0;
  long high_crit_jobs = 0;
  long high_crit_misses = 0;
  double high_crit_miss_pct = 0.0;
  double mean_lateness_ms = 0.0;
  double max_tardiness_ms = 0.0;
  long preemptions = 0;
  /// Mean run-time scheduling cost of the list heuristic of ref. [7] in
  /// microseconds (sched_cost mode only).
  double list_sched_us = 0.0;
  /// Mean cost of the hybrid run-time phase in microseconds (sched_cost
  /// mode only).
  double hybrid_sched_us = 0.0;
  /// Wall-clock execution time of this scenario in milliseconds.
  /// Non-deterministic; excluded from aggregate statistics. On a cold
  /// cache it includes building the scenario's workload (for a leader,
  /// see CampaignRunner) or waiting for another thread's build of it (for
  /// a follower at the tail of the campaign).
  double wall_ms = 0.0;
  bool ok = false;
  /// Exception text when ok is false.
  std::string error;
};

struct CampaignOptions {
  /// Worker threads; 0 picks std::thread::hardware_concurrency().
  int threads = 0;
  /// Record host-clock readings: per-scenario wall-clock times and the
  /// sched_cost timings (list_sched_us, hybrid_sched_us, left at 0 when
  /// off). Disable for bit-identical reports across runs and thread counts.
  bool record_wall_time = true;
  /// Progress callback, invoked under a mutex after each scenario with
  /// (result, completed count, total count).
  std::function<void(const ScenarioResult&, std::size_t, std::size_t)>
      on_result;
};

/// Executes one scenario synchronously (the engine's unit of work).
/// Exceptions are captured into the result's `error`. Pass a cache to
/// share workload preparation with other executions.
ScenarioResult run_scenario(const Scenario& scenario,
                            bool record_wall_time = true,
                            WorkloadCache* cache = nullptr);

/// The online kernel's options for an online-mode scenario — what
/// run_scenario() simulates, without per-instance spans (the quantile
/// sketch reports response percentiles in O(1) memory).
OnlineSimOptions online_sim_options(const Scenario& scenario);

/// The scenario's iteration sampler plus an owner handle keeping the cached
/// workload (which the sampler captures by pointer) alive.
struct SampledWorkload {
  std::shared_ptr<const void> owner;
  IterationSampler sampler;
};

/// The instance source of a scenario, as run_scenario() draws it: looks up
/// (or prepares) the scenario's workload in `cache` and returns the sampler
/// its kind and sampler fields select (random mix or exhaustive multimedia,
/// Pocket GL by task or by merged frame, synthetic mix, .dwl file mix).
/// The sampler stays valid while the returned `owner` lives, even after
/// the cache is gone.
SampledWorkload sampled_workload(const Scenario& scenario,
                                 WorkloadCache& cache);

/// Thread-pool campaign executor. Simulation scenarios run on the worker
/// pool; sched_cost scenarios (wall-clock microbenchmarks) run serially
/// afterwards so their timings never compete for cores. Their workloads
/// are built on the pool, as leaders of their workload keys.
///
/// Dispatch order: leaders first. The pool's cursor walks the first
/// scenario of each distinct WorkloadCache::key ("leaders") in catalogue
/// order, then every other scenario ("followers") in catalogue order. The
/// catalogue lists the approaches of a grid point side by side, so in
/// catalogue order a cold cache would start several workers on one
/// workload, one building it and the rest blocked on that build; leaders
/// first starts the distinct builds side by side instead, and a follower
/// finds its workload ready except at the very tail of the campaign. The
/// order is a pure function of the scenario list. It is the order in which
/// scenarios start, so the completion order `on_result` sees follows it:
/// exactly at one thread (leaders, followers, then sched_cost), roughly at
/// more. Results are returned in scenario order either way.
class CampaignRunner {
 public:
  explicit CampaignRunner(CampaignOptions options = {});

  /// Runs all scenarios and returns results in scenario order, regardless
  /// of the execution interleaving.
  std::vector<ScenarioResult> run(const std::vector<Scenario>& scenarios) const;

  /// Same, sharing (and populating) an external workload cache, so
  /// callers can reuse the prepared workloads after the campaign.
  std::vector<ScenarioResult> run(const std::vector<Scenario>& scenarios,
                                  WorkloadCache& cache) const;

 private:
  CampaignOptions options_;
};

}  // namespace drhw
