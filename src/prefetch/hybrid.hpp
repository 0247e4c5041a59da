#pragma once

/// \file hybrid.hpp
/// The run-time phase of the hybrid heuristic (paper Section 6).
///
/// Given the design-time HybridSchedule and the set of configurations the
/// reuse module found resident, the run-time phase only has to:
///  1. run the *initialization phase*: load the critical subtasks that are
///     not resident, in the pre-decided weight order, before the stored
///     schedule starts;
///  2. *cancel* the stored loads of non-critical subtasks that turn out to
///     be resident ("it is an unnecessary waste of energy to load them
///     again"), leaving the rest of the schedule untouched.
/// Everything else was fixed at design time, which is why the run-time
/// overhead of the hybrid approach is negligible.
///
/// The `hybrid` policy turns hybrid_decide() into an InstancePlan, which
/// evaluate_instance_plan() (policy/prefetch_policy.hpp) times.

#include <vector>

#include "prefetch/critical_subtasks.hpp"

namespace drhw {

/// The run-time phase's decision — what actually executes
/// inside the scheduler's time slot on the embedded processor: pick the
/// initialization loads (CS minus resident) and cancel resident stored
/// loads. O(N) with no timing computation; this is why the hybrid approach
/// "is not generating any run-time overhead" (Section 6).
struct HybridDecision {
  std::vector<SubtaskId> init_loads;
  std::vector<SubtaskId> load_order;  ///< stored order minus cancellations
  int cancelled_loads = 0;
};

/// `resident[s]` marks subtasks whose configuration is already on their
/// bound tile; every id the design names must index it (checked).
HybridDecision hybrid_decide(const HybridSchedule& design,
                             const std::vector<bool>& resident);

}  // namespace drhw
