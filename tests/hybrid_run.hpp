#pragma once

// The hybrid's run-time phase for one task instance, run the way both
// simulators run it: the registry's `hybrid` policy plans the instance and
// evaluate_instance_plan() times the plan. Lets the run-time tests work from
// a bare (graph, placement, design) triple.

#include <vector>

#include "policy/names.hpp"
#include "policy/registry.hpp"
#include "sim/system_sim.hpp"

namespace drhw::testing {

inline SequentialSchedule run_hybrid(const SubtaskGraph& graph,
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
  return evaluate_instance_plan(prep, platform,
                                hybrid->plan(prep, resident, PolicyContext{}));
}

}  // namespace drhw::testing
