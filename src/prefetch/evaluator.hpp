#pragma once

/// \file evaluator.hpp
/// The timing engine shared by every prefetch scheduler: an event-driven
/// simulation of one task instance executing on the placed units while the
/// serialised reconfiguration port pushes configuration loads.
///
/// Semantics (Section 3 of DESIGN.md):
///  * a tile holds one configuration; the load of subtask `s` may start only
///    after the previous subtask on s's tile finished executing;
///  * the port performs one load at a time (latency platform.reconfig_latency);
///  * execution of `s` starts when its predecessors finished, its
///    configuration is present, and the previous subtask on its unit is done;
///  * executions on one unit follow the placement order strictly.

#include <vector>

#include "platform/platform.hpp"
#include "prefetch/load_plan.hpp"
#include "schedule/placement.hpp"

namespace drhw {

/// Timing of one evaluated task instance. All times are relative to the
/// instance's own start (t = 0); the caller offsets into global time.
struct EvalResult {
  time_us makespan = 0;
  std::vector<time_us> exec_start;
  std::vector<time_us> exec_end;
  /// k_no_time when the subtask was not loaded (resident or ISP).
  std::vector<time_us> load_start;
  std::vector<time_us> load_end;
  /// True iff the subtask's own load completion was the strict binding
  /// constraint on its execution start — the paper's "generates a delay due
  /// to its reconfiguration" test used by the critical-subtask loop.
  std::vector<bool> delayed_by_load;
  /// Loads in the order the port actually served them.
  std::vector<SubtaskId> load_order;
  /// Completion time of the last load, or k_no_time when nothing was loaded.
  /// The window [last_load_end, makespan] is the "final idle period of the
  /// reconfiguration circuitry" exploited by the inter-task optimisation.
  time_us last_load_end = k_no_time;
  /// Last execution end per virtual tile (size = placement.tiles_used);
  /// after this instant a tile may be reconfigured for a future task.
  std::vector<time_us> tile_last_exec_end;
  int loads = 0;
};

/// Simulates one task instance; the reconfiguration ports are free at its
/// start (an initialization phase is timed before it, see
/// evaluate_instance_plan in policy/prefetch_policy.hpp).
///
/// \throws std::invalid_argument if the plan is malformed (needs_load on an
///         ISP subtask, explicit order not matching needs_load, duplicate
///         entries) or if an explicit order is infeasible (head-of-line
///         deadlock against the unit orders).
EvalResult evaluate(const SubtaskGraph& graph, const Placement& placement,
                    const PlatformConfig& platform, const LoadPlan& plan);

/// Ideal makespan: evaluate with no loads at all. Equals
/// placement.ideal_makespan for placements built by list_schedule.
time_us ideal_makespan(const SubtaskGraph& graph, const Placement& placement,
                       const PlatformConfig& platform);

}  // namespace drhw
