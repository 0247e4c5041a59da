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
/// The `hybrid` policy's plan() is hybrid_decide(), and
/// EvalWorkspace::evaluate() (prefetch/evaluator.hpp) times it, the
/// initialization phase included.

#include <vector>

#include "prefetch/critical_subtasks.hpp"
#include "prefetch/load_plan.hpp"

namespace drhw {

/// Writes into `plan` the run-time phase's decision — what actually
/// executes inside the scheduler's time slot on the embedded processor: an
/// explicit order whose initialization prefix is the critical subtasks not
/// resident (in the design-time weight order), followed by the stored order
/// minus the resident loads, which are counted as cancelled. O(N) with no
/// timing computation; this is why the hybrid approach "is not generating
/// any run-time overhead" (Section 6).
///
/// `resident[s]` marks subtasks whose configuration is already on their
/// bound tile; every id the design names must index it (checked).
void hybrid_decide(const HybridSchedule& design,
                   const std::vector<bool>& resident, LoadPlan& plan);

}  // namespace drhw
