#pragma once

/// \file system_sim.hpp
/// The experimental rig of the paper's Section 7: a multi-iteration
/// simulation of task instances arriving in a dynamic, randomised order on
/// one platform, with configuration reuse across instances and — for the
/// inter-task-optimising approaches — prefetching into the reconfiguration
/// port's final idle period of the preceding task.

#include <cstdint>
#include <functional>
#include <vector>

#include "platform/platform.hpp"
#include "policy/policy_spec.hpp"
#include "prefetch/critical_subtasks.hpp"
#include "prefetch/evaluator.hpp"
#include "reuse/reuse_module.hpp"
#include "schedule/placement.hpp"
#include "util/rng.hpp"

namespace drhw {

// The per-approach scheduling decisions live in the pluggable policy layer
// (policy/prefetch_policy.hpp); SimOptions names the policy by its
// registered PolicySpec and this rig stays a pure timing engine.

/// Real-time attributes of a prepared task scenario. Neutral defaults mean
/// "derive everything from the kernel's knobs": the online kernel only
/// reads them when OnlineSimOptions::deadline_scale > 0, and a zero field
/// falls back to the derived value (deadline_scale x ideal makespan for the
/// deadline, the ArrivalProcess pace for the period, the seeded criticality
/// draw for the level). See sim/workloads.hpp's assign_rt_attributes().
struct RtAttributes {
  time_us relative_deadline_us = 0;  ///< 0 = deadline_scale x ideal
  time_us period_us = 0;             ///< 0 = the ArrivalProcess pace
  int criticality = 0;               ///< > 0 forces high criticality
};

/// Everything precomputed at design time for one (task, scenario) pair on a
/// given platform. Instances reference these by pointer, so the owning
/// container must outlive the simulation.
struct PreparedScenario {
  const SubtaskGraph* graph = nullptr;
  Placement placement;
  std::vector<time_us> weights;           ///< ALAP weights
  std::vector<SubtaskId> design_order;    ///< the CS loop's first pass
  /// Statistics of that pass's B&B search (zero when the list heuristic
  /// produced it): nodes explored, and 1 when the search hit its node
  /// budget.
  std::uint64_t design_bnb_nodes = 0;
  int design_bnb_budget_hits = 0;
  HybridSchedule hybrid;                  ///< CS set + stored schedule
  /// weights plus a large bonus for critical subtasks; the value vector of
  /// the critical_first replacement policy.
  std::vector<time_us> replacement_values;
  time_us ideal = 0;
  RtAttributes rt;  ///< real-time task model (neutral by default)
};

/// Runs the full design-time tool flow for one scenario graph.
PreparedScenario prepare_scenario(const SubtaskGraph& graph, int tiles,
                                  const PlatformConfig& platform,
                                  const HybridDesignOptions& options = {});

/// Next-use index for the oracle replacement policy: per-config stream
/// positions, added in non-decreasing order. rank_from(p) yields, per
/// config, the absolute position of its first use at or after p (or a
/// large value when it is never used again) — order-preserving, which is
/// all the replacement module compares. Shared by both simulators so their
/// oracle semantics stay in lockstep.
class NextUseIndex {
 public:
  void add(ConfigId config, long position) {
    const auto idx = static_cast<std::size_t>(config);
    if (idx >= positions_.size()) positions_.resize(idx + 1);
    positions_[idx].push_back(position);
  }
  /// The returned closure references this index and must not outlive it.
  NextUseRank rank_from(long position) const;

 private:
  /// Dense per-ConfigId stream positions. Config ids are small and dense by
  /// construction (apps/config_space.hpp allocates them sequentially), and a
  /// hash map here would be an unordered-iteration hazard waiting for its
  /// first range-for — see tools/drhw_lint.cpp.
  std::vector<std::vector<long>> positions_;
};

/// Replaces the per-scenario replacement values of one task's scenarios by
/// scenario-mix-stable values: criticality *fraction* times the bonus plus
/// the mean weight per subtask position. Without this, a configuration
/// loaded under a rare scenario in which it happens to be critical would
/// keep a pinned value forever and displace genuinely critical
/// configurations from the pool. Requires all scenarios to share the task's
/// subtask structure (true for scenario variants by construction).
void harmonize_replacement_values(std::vector<PreparedScenario>& scenarios);

/// Draws the task-instance sequence of one iteration. Returned pointers
/// must stay valid for the whole simulation.
using IterationSampler =
    std::function<std::vector<const PreparedScenario*>(Rng&)>;

struct SimOptions {
  PlatformConfig platform;
  /// The prefetch scheduling policy, by registered name + parameters
  /// (policy/registry.hpp). Policy-specific knobs — e.g. the hybrid's
  /// inter-task toggle or its beyond-critical tail prefetch — are policy
  /// parameters: PolicySpec("hybrid").with("intertask", "0").
  PolicySpec policy = PolicySpec("hybrid");
  ReplacementPolicy replacement = ReplacementPolicy::lru;
  /// Whether the inter-task optimisation may look across iteration
  /// boundaries. False models independent run-time scheduler invocations
  /// (the multimedia mix: the next iteration's tasks are unknown); true
  /// models a streaming pipeline whose task order repeats (the Pocket GL
  /// frame loop, where the upcoming task is always known).
  bool cross_iteration_lookahead = false;
  /// How many upcoming tasks of the emitted sequence the inter-task
  /// optimisation may prefetch for. 1 is the paper's literal "subsequent
  /// task"; deeper values exploit the same idle windows for later tasks of
  /// the sequence the run-time scheduler has already emitted.
  int intertask_lookahead = 1;
  std::uint64_t seed = 1;
  int iterations = 1000;
  /// Collect the per-instance spans into SimReport::spans (equivalence
  /// tests against the online kernel; off by default to keep reports small).
  bool record_spans = false;
};

/// Aggregate results over all iterations.
struct SimReport {
  time_us total_ideal = 0;
  time_us total_actual = 0;
  double overhead_pct = 0.0;  ///< 100 * (actual - ideal) / ideal
  long instances = 0;
  long drhw_subtask_instances = 0;
  long reused_subtasks = 0;  ///< resident at bind time (incl. prefetched)
  double reuse_pct = 0.0;
  long loads = 0;            ///< loads performed (incl. init + prefetches)
  long init_loads = 0;       ///< loads in hybrid initialization phases
  long cancelled_loads = 0;  ///< stored loads cancelled by the hybrid
  long intertask_prefetches = 0;
  double energy = 0.0;        ///< exec + reconfiguration energy
  double energy_saved = 0.0;  ///< reconfiguration energy avoided via reuse
  /// Per-instance spans in stream order (only when SimOptions::record_spans).
  std::vector<time_us> spans;

  /// Folds one completed instance into the totals: its ideal makespan and
  /// actual span, its DRHW subtask count, the port loads it performed
  /// (`instance_init` of them in a hybrid initialization phase) and its
  /// execution energy. Each load costs `reconfig_energy`; each DRHW subtask
  /// it did not load saves that much. Shared by both simulators.
  void account_instance(time_us ideal, time_us span, long drhw,
                        long instance_loads, long instance_init,
                        double exec_energy, double reconfig_energy);
  /// Derives overhead_pct and reuse_pct from the totals.
  void finish();
};

/// Simulates `options.iterations` iterations of the sampler's stream.
SimReport run_simulation(const SimOptions& options,
                         const IterationSampler& sampler);

}  // namespace drhw
