#pragma once

// The hybrid's run-time phase for one task instance, run the way both
// simulators run it: the registry's `hybrid` policy plans the instance and
// evaluate() times the plan, its initialization phase included. Lets the
// run-time tests work from a bare (graph, placement, design) triple.

#include <algorithm>
#include <vector>

#include "policy/names.hpp"
#include "policy/registry.hpp"
#include "sim/system_sim.hpp"

namespace drhw::testing {

/// One planned and timed instance, with the views of its initialization
/// phase the tests read.
struct HybridRun {
  LoadPlan plan;
  EvalResult eval;

  /// The initialization loads, in plan order.
  std::vector<SubtaskId> init_loads() const {
    return {plan.loads.begin(),
            plan.loads.begin() + static_cast<std::ptrdiff_t>(plan.init_count)};
  }
  /// Completion time of each initialization load, aligned with
  /// init_loads().
  std::vector<time_us> init_load_ends() const {
    std::vector<time_us> ends;
    for (SubtaskId s : init_loads())
      ends.push_back(eval.load_end[static_cast<std::size_t>(s)]);
    return ends;
  }
  /// End of the initialization phase: its last load's completion, 0
  /// without one.
  time_us init_phase_end() const {
    time_us end = 0;
    for (time_us t : init_load_ends()) end = std::max(end, t);
    return end;
  }
};

inline HybridRun run_hybrid(const SubtaskGraph& graph,
                            const Placement& placement,
                            const PlatformConfig& platform,
                            const HybridSchedule& design,
                            const std::vector<bool>& resident) {
  PreparedScenario prep;
  prep.graph = &graph;
  prep.placement = placement;
  prep.hybrid = design;
  const auto hybrid =
      PolicyRegistry::instance().create(PolicySpec(policy_names::hybrid));
  HybridRun run;
  hybrid->plan(prep, resident, PolicyContext{}, run.plan);
  run.eval = evaluate(graph, placement, platform, run.plan);
  return run;
}

}  // namespace drhw::testing
