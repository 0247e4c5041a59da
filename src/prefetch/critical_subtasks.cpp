#include "prefetch/critical_subtasks.hpp"

#include <utility>

#include "graph/algorithms.hpp"
#include "prefetch/bnb.hpp"
#include "prefetch/list_prefetch.hpp"
#include "util/check.hpp"

namespace drhw {

namespace {

/// One pass of the design-time prefetch scheduler over `needs_load`; adds
/// the B&B statistics of the pass to `result`.
EvalResult schedule_pass(const SubtaskGraph& graph, const Placement& placement,
                         const PlatformConfig& platform,
                         const std::vector<bool>& needs_load,
                         const HybridDesignOptions& options,
                         HybridSchedule& result) {
  int loads = 0;
  for (bool b : needs_load) loads += b;
  if (loads <= options.bnb_load_threshold) {
    BnbResult bnb = optimal_prefetch(graph, placement, platform, needs_load);
    result.bnb_nodes += bnb.nodes_explored;
    result.bnb_budget_hits += bnb.proven_optimal ? 0 : 1;
    return std::move(bnb.eval);
  }
  return list_prefetch(graph, placement, platform, needs_load);
}

}  // namespace

HybridSchedule compute_hybrid_schedule(const SubtaskGraph& graph,
                                       const Placement& placement,
                                       const PlatformConfig& platform,
                                       const HybridDesignOptions& options,
                                       FirstPass* first_pass) {
  const auto weights = subtask_weights(graph);
  const time_us ideal = ideal_makespan(graph, placement, platform);

  HybridSchedule result;
  result.ideal_makespan = ideal;

  std::vector<bool> in_cs(graph.size(), false);
  std::vector<bool> needs(graph.size(), false);
  for (std::size_t s = 0; s < graph.size(); ++s)
    needs[s] = placement.on_drhw(static_cast<SubtaskId>(s));

  for (;;) {
    ++result.loop_iterations;
    const EvalResult eval =
        schedule_pass(graph, placement, platform, needs, options, result);
    if (first_pass != nullptr && result.loop_iterations == 1)
      *first_pass = {eval.load_order, result.bnb_nodes,
                     result.bnb_budget_hits};
    const time_us penalty = eval.makespan - ideal;
    DRHW_CHECK_MSG(penalty >= 0, "schedule beat the ideal makespan");
    if (penalty == 0) {
      result.stored_order = eval.load_order;
      break;
    }
    // S := subtasks that generate delays; S1 := MAX_weight(S);
    // add_subtask(S1, CS).
    SubtaskId pick = k_no_subtask;
    for (std::size_t s = 0; s < graph.size(); ++s) {
      if (!eval.delayed_by_load[s]) continue;
      if (pick == k_no_subtask ||
          weights[s] > weights[static_cast<std::size_t>(pick)])
        pick = static_cast<SubtaskId>(s);
    }
    DRHW_CHECK_MSG(pick != k_no_subtask,
                   "non-zero penalty but no subtask delayed by its load");
    in_cs[static_cast<std::size_t>(pick)] = true;
    needs[static_cast<std::size_t>(pick)] = false;
    result.critical.push_back(pick);
  }

  // Initialization order: descending weight ("the subtask with the greatest
  // weight is loaded first"), ties toward the lower id.
  order_by_weight(result.critical, weights);
  return result;
}

}  // namespace drhw
