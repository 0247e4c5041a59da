#include "prefetch/list_prefetch.hpp"

#include "graph/algorithms.hpp"

namespace drhw {

EvalResult list_prefetch(const SubtaskGraph& graph, const Placement& placement,
                         const PlatformConfig& platform,
                         const std::vector<bool>& needs_load) {
  return list_prefetch_with_priority(graph, placement, platform, needs_load,
                                     subtask_weights(graph));
}

EvalResult list_prefetch_with_priority(const SubtaskGraph& graph,
                                       const Placement& placement,
                                       const PlatformConfig& platform,
                                       const std::vector<bool>& needs_load,
                                       const std::vector<time_us>& priority) {
  LoadPlan plan;
  plan.policy = LoadPolicy::priority;
  plan.needs_load = needs_load;
  plan.priority = priority;
  return evaluate(graph, placement, platform, plan);
}

}  // namespace drhw
