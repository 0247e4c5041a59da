#include "prefetch/load_plan.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace drhw {

void check_load_plan(const LoadPlan& plan) {
  DRHW_CHECK_LE_MSG(plan.init_count, plan.loads.size(),
                    "load plan: init prefix longer than the load list");
  DRHW_CHECK_MSG(
      plan.init_count == 0 || plan.policy == LoadPolicy::explicit_order,
      "load plan: an initialization phase requires an explicit order");
}

void on_demand_all(const SubtaskGraph& graph, const Placement& placement,
                   LoadPlan& out) {
  out.reset(LoadPolicy::on_demand);
  for (std::size_t s = 0; s < graph.size(); ++s)
    if (placement.on_drhw(static_cast<SubtaskId>(s)))
      out.loads.push_back(static_cast<SubtaskId>(s));
}

void order_by_weight(std::vector<SubtaskId>& ids,
                     const std::vector<time_us>& weights) {
  std::sort(ids.begin(), ids.end(), [&](SubtaskId a, SubtaskId b) {
    const time_us wa = weights[static_cast<std::size_t>(a)];
    const time_us wb = weights[static_cast<std::size_t>(b)];
    return wa != wb ? wa > wb : a < b;
  });
}

}  // namespace drhw
