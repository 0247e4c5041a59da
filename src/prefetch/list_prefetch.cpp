#include "prefetch/list_prefetch.hpp"

#include "graph/algorithms.hpp"

namespace drhw {

EvalResult list_prefetch(const SubtaskGraph& graph, const Placement& placement,
                         const PlatformConfig& platform,
                         const std::vector<bool>& needs_load) {
  LoadPlan plan{LoadPolicy::priority, {}};
  for (std::size_t s = 0; s < needs_load.size(); ++s)
    if (needs_load[s]) plan.loads.push_back(static_cast<SubtaskId>(s));
  order_by_weight(plan.loads, subtask_weights(graph));
  return evaluate(graph, placement, platform, plan);
}

}  // namespace drhw
