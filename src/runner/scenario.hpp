#pragma once

/// \file scenario.hpp
/// Declarative scenario descriptors for the campaign engine: one Scenario
/// fully determines a simulation experiment (platform shape, workload
/// source, scheduling approach, RNG seed, iteration count), so campaigns
/// can be enumerated, filtered, sharded across worker threads, and
/// reproduced bit-identically from the descriptor alone.
///
/// The ScenarioRegistry catalogues the paper's experiments (Table 1
/// deterministic columns, the Figure 6 multimedia mix, the Figure 7
/// Pocket GL frame loop, JPEG/MPEG subset mixes and synthetic generator
/// sweeps); build_sweep() produces cartesian-product parameter sweeps
/// (tiles x latency x ports x policy x seed) on top of any workload.

#include <cstdint>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "sim/event_sim.hpp"
#include "sim/system_sim.hpp"

namespace drhw {

/// Where a scenario's task graphs come from.
enum class WorkloadKind {
  /// The 4-task multimedia set of Table 1 / Figure 6 (optionally a named
  /// subset, e.g. the JPEG/MPEG mixes).
  multimedia,
  /// The Pocket GL renderer, scheduled task by task (Figure 7 run-time
  /// approaches).
  pocket_gl,
  /// The Pocket GL renderer as merged whole-frame graphs (Figure 7
  /// design-time baseline).
  pocket_gl_frames,
  /// Randomly generated layered task graphs (Section 4 scaling sweeps).
  synthetic,
  /// A textual workload file (.dwl, wio/workload_format.hpp): the
  /// scenario's `workload_file` path is parsed, built for the scenario's
  /// platform and sampled with the file's mix weights.
  file,
};

const char* to_string(WorkloadKind kind);

/// What the campaign engine measures for a scenario.
enum class ScenarioMode {
  /// Run the Section 7 system simulation and report the SimReport metrics.
  simulate,
  /// Time the run-time scheduler itself (list heuristic of ref. [7] vs the
  /// hybrid run-time phase) on the scenario's graphs — the Section 4
  /// scalability experiment. Wall-clock based, so excluded from the
  /// deterministic aggregate statistics.
  sched_cost,
  /// Run the event-driven online simulation (event_sim.hpp): stochastic
  /// arrivals contending for the tile pool and the reconfiguration port.
  /// Reports the SimReport metrics plus response/queueing/port-utilisation.
  online,
};

const char* to_string(ScenarioMode mode);

/// Parameters of the synthetic-workload generator (WorkloadKind::synthetic).
struct SyntheticParams {
  /// Number of independently generated task graphs in the mix.
  int tasks = 4;
  /// Per-graph generator parameters.
  LayeredGraphParams graph;
  /// Seed for graph generation (independent of the simulation seed so the
  /// same task set can be simulated under many seeds).
  std::uint64_t graph_seed = 1;
};

/// A fully self-contained experiment description.
struct Scenario {
  /// Unique name within a campaign, e.g. "fig6/tiles12/hybrid".
  std::string name;
  /// Grouping key for aggregate statistics, e.g. "fig6".
  std::string family;
  WorkloadKind workload = WorkloadKind::multimedia;
  ScenarioMode mode = ScenarioMode::simulate;
  /// Restrict the multimedia set to these task names (empty = all four).
  /// Valid names: jpeg_dec, parallel_jpeg, mpeg_enc, pattern_rec.
  std::vector<std::string> task_filter;
  /// WorkloadKind::file only: path of the .dwl workload file.
  std::string workload_file;
  /// Per-iteration task inclusion probability of the random mix sampler.
  double include_prob = 0.8;
  /// Deterministic sampler: every iteration emits each (task, scenario)
  /// pair exactly once in declaration order (the Table 1 columns).
  bool exhaustive = false;
  SyntheticParams synthetic;
  /// Design-time flow options (scheduler selection, placement style).
  HybridDesignOptions design;
  /// Platform, prefetch policy (sim.policy — any name registered in the
  /// PolicyRegistry, plus parameters), replacement policy, seed and
  /// iteration count.
  SimOptions sim;
  /// Online mode only: the arrival process of the instance stream.
  ArrivalProcess arrivals;
  /// Online mode only: arbitration between live instances at the port.
  PortDiscipline port_discipline = PortDiscipline::fifo;
  /// Online mode only: tile-pool admission policy, contiguity and
  /// defragmentation knobs (defaults reproduce the FIFO head-of-line
  /// behaviour bit-identically).
  PoolOptions pool;
  /// Online mode only: per-admission run-time scheduling cost charged on
  /// the simulated timeline (0 = scheduling is free, the paper's Section 7
  /// assumption; see paper_scheduler_cost()).
  time_us scheduler_cost = 0;
  /// Online mode only: model the platform's ISPs as one shared contended
  /// pool instead of per-instance contexts (default off reproduces the
  /// PR 3 kernel bit-identically).
  bool shared_isps = false;
  /// Online mode only: arbitration between waiting ISP executions when
  /// shared_isps is on.
  PortDiscipline isp_discipline = PortDiscipline::fifo;
  /// Online mode only: real-time task model. 0 keeps deadlines off
  /// (bit-identical best-effort behaviour); > 0 stamps every instance with
  /// an absolute deadline of arrival + deadline_scale x ideal makespan.
  double deadline_scale = 0.0;
  /// Online mode only: fraction of instances drawn high-criticality when
  /// deadlines are on.
  double high_crit_fraction = 0.25;
  /// Online mode only: preemptive checkpointing of low-criticality live
  /// instances when a high-criticality arrival cannot be admitted.
  /// Requires deadline_scale > 0.
  bool preempt = false;
  /// Read by nothing; perfbench.cpp:381 copies it; deleted with ROADMAP
  /// item 1.
  QueueBackend queue_backend = QueueBackend::calendar;
  /// Timed calls per measurement in sched_cost mode.
  int timing_calls = 50;
  /// sched_cost mode: schedule every subtask as a pending load (the
  /// paper's "20 tasks with 14 subtasks" batch claim) instead of only the
  /// DRHW-placed subset.
  bool time_all_loads = false;

  /// Throws std::invalid_argument when the descriptor is inconsistent.
  void validate() const;
};

/// Ordered, name-unique collection of scenarios.
class ScenarioRegistry {
 public:
  /// Adds one scenario. Throws std::invalid_argument on duplicate names or
  /// an invalid descriptor.
  void add(Scenario scenario);
  /// Adds a batch of scenarios (same checks as add()).
  void add(std::vector<Scenario> scenarios);

  const std::vector<Scenario>& scenarios() const { return scenarios_; }
  std::size_t size() const { return scenarios_.size(); }

  /// Scenarios whose name or family contains `substring` (empty matches
  /// everything).
  std::vector<Scenario> match(const std::string& substring) const;

  /// The built-in catalogue of the paper's experiments:
  ///   table1/*         deterministic on-demand vs optimal-prefetch columns
  ///   fig6/*           multimedia mix, tiles 8..16, all five approaches
  ///   fig7/*           Pocket GL frame loop, tiles 5..10, all five approaches
  ///   mix/*            JPEG-only and JPEG+MPEG subset mixes
  ///   synthetic/*      layered-generator mixes at three graph sizes
  ///   sweep/*          cartesian tiles x latency x ports x approach sweep
  ///   scalability/*    run-time scheduler cost vs subtask count (sched_cost)
  ///   online_poisson/* online mode, Poisson arrivals, all five approaches
  ///   online_burst/*   online mode, bursty arrivals, all five approaches
  ///   online_sweep/*   online arrival-rate x tile-count cartesian sweep
  ///   online_defrag/*  contiguous pool: admission policy x defrag x
  ///                    arrival rate x tile count
  ///   online_multiport/* reconfig_ports x approach x admission policy on
  ///                    a port-bound contiguous+defrag pool with shared
  ///                    ISP contention
  ///   online_policy/*  one contended online scenario per *registered*
  ///                    prefetch policy (PolicyRegistry enumeration, so
  ///                    new policies are campaign-covered automatically)
  ///   online_deadline/* real-time mode: sporadic arrivals, utilization x
  ///                    criticality-mix sweep over the edf/llf/edf_hybrid
  ///                    family, plus preemption on/off pairs
  static ScenarioRegistry builtin(int iterations = 1000,
                                  std::uint64_t seed = 2005);

  /// The ablation catalogue (`drhw_sched campaign --catalogue ablation`),
  /// kept out of builtin() so the built-in campaign, its goldens and its
  /// reports do not move:
  ///   ablation_replacement/* {multimedia t8, t12; Pocket GL t5, t8} x
  ///                        replacement policy x {run-time,
  ///                        run-time+inter-task, hybrid}
  ///   ablation_intertask/* hybrid with/without the tail prefetch, the
  ///                        lookahead depth, cross-iteration lookahead and
  ///                        beyond_critical, on three workload points
  ///   ablation_latency/*   reconfiguration latency 4..0.25 ms x four
  ///                        approaches, multimedia at 8 tiles
  ///   ablation_ports/*     reconfiguration ports 1..4, Table 1 columns
  ///   ablation_scalability/batch20x14  the Section 4 "20 tasks with 14
  ///                        subtasks" batch (sched_cost, every load timed)
  /// Every name starts with "ablation_", so none collides with builtin().
  static ScenarioRegistry ablations(int iterations = 1000,
                                    std::uint64_t seed = 2005);

 private:
  std::vector<Scenario> scenarios_;
};

/// Cartesian-product sweep description. Every combination of the axis
/// vectors becomes one scenario; empty axes default to a single value taken
/// from `base`.
struct SweepConfig {
  std::string family = "sweep";
  /// Template scenario: workload, mode, sampler settings and any SimOptions
  /// not covered by an axis are copied from here.
  Scenario base;
  std::vector<int> tiles;
  std::vector<time_us> latencies;
  std::vector<int> ports;
  /// Prefetch-policy axis: any specs whose names are registered in the
  /// PolicyRegistry (so new policies sweep without code changes here).
  std::vector<PolicySpec> policies;
  std::vector<std::uint64_t> seeds;
  /// Online scenarios only: arrival-rate axis (instances or bursts per
  /// second, depending on the base scenario's arrival kind).
  std::vector<double> arrival_rates;
  /// Online scenarios only: tile-pool admission-policy axis.
  std::vector<AdmissionPolicy> admission_policies;
  /// Online scenarios only: defragmentation on/off axis (the base
  /// scenario's pool must be contiguous for `true`).
  std::vector<bool> defrag_modes;
};

/// Expands the sweep. Scenario names are
/// "<family>/t<tiles>/l<latency_us>/p<ports>/<approach>/s<seed>".
std::vector<Scenario> build_sweep(const SweepConfig& config);

}  // namespace drhw
