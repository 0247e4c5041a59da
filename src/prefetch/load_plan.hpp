#pragma once

/// \file load_plan.hpp
/// Which configurations must be loaded for one task instance, in which
/// order, and in what discipline the reconfiguration port serves them: a
/// prefetch policy's whole answer for one instance, which both timing
/// engines (the evaluator and the online kernel) consume.

#include <vector>

#include "graph/subtask_graph.hpp"
#include "schedule/placement.hpp"
#include "util/time.hpp"

namespace drhw {

/// Discipline of the reconfiguration port.
enum class LoadPolicy {
  /// "Without prefetch": the load of a subtask is requested only once all of
  /// its predecessors have finished; pending requests are served
  /// first-come-first-served among the currently loadable ones.
  on_demand,
  /// The run-time list-scheduling heuristic of ref. [7]: whenever a port is
  /// free, start the first load in the plan's order whose subtask has
  /// arrived on its unit, regardless of whether the subtask is ready. No
  /// head-of-line block: a later arrived load overtakes an earlier one
  /// that has not arrived. The paper's order is order_by_weight().
  priority,
  /// A fixed load order decided at design time (branch & bound or a stored
  /// hybrid schedule). Head-of-line semantics: the port serves the order
  /// strictly, waiting if the next load's tile is still executing.
  explicit_order,
};

/// One instance's loads under one port discipline.
struct LoadPlan {
  LoadPolicy policy = LoadPolicy::on_demand;
  /// Subtasks whose configuration must be loaded before they execute, each
  /// DRHW-placed and listed once; resident (reused) and ISP subtasks are
  /// absent. For explicit_order and priority this is the port order (a
  /// run-time policy orders its own loads, usually with order_by_weight());
  /// for on_demand it is a need set and its order is ignored. An explicit
  /// order lists its initialization prefix first.
  std::vector<SubtaskId> loads;
  /// Leading entries of `loads` that form an initialization phase (the
  /// hybrid's critical loads): they dispatch back to back on the
  /// earliest-free port, exempt from the head-of-line unit-order gate, and
  /// every other load and every execution waits until the last of them has
  /// completed.
  std::size_t init_count = 0;
  /// Stored loads cancelled because the configuration was resident.
  int cancelled_loads = 0;

  /// Empties the plan for a new instance under `discipline`, keeping the
  /// capacity of `loads`.
  void reset(LoadPolicy discipline) {
    policy = discipline;
    loads.clear();
    init_count = 0;
    cancelled_loads = 0;
  }
};

/// The plan invariants that do not depend on the graph: the initialization
/// prefix fits in `loads`, and only an explicit order has one. A plan that
/// broke them would stall the online kernel, so both timing engines reject
/// it. \throws InternalError (a policy bug) on a violation.
void check_load_plan(const LoadPlan& plan);

/// Writes into `out` the plan loading every DRHW subtask on demand (the
/// no-prefetch baseline).
void on_demand_all(const SubtaskGraph& graph, const Placement& placement,
                   LoadPlan& out);

/// on_demand_all() into a fresh plan.
inline LoadPlan on_demand_all(const SubtaskGraph& graph,
                              const Placement& placement) {
  LoadPlan plan;
  on_demand_all(graph, placement, plan);
  return plan;
}

/// Sorts `ids` into the paper's reconfiguration order: heaviest weight
/// first (usually the ALAP weights of subtask_weights()), lower id on ties.
/// The run-time heuristic, the branch & bound's candidate order and the
/// hybrid's initialization phase all use it.
void order_by_weight(std::vector<SubtaskId>& ids,
                     const std::vector<time_us>& weights);

}  // namespace drhw
