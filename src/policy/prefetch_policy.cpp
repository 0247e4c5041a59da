#include "policy/prefetch_policy.hpp"

#include <algorithm>

#include "policy/registry.hpp"
#include "prefetch/list_prefetch.hpp"
#include "prefetch/load_plan.hpp"
#include "sim/port_set.hpp"
#include "sim/system_sim.hpp"
#include "util/check.hpp"

namespace drhw {

std::vector<SubtaskId> PrefetchPolicy::intertask_candidates(
    const PreparedScenario&) const {
  return {};
}

const std::vector<time_us>& PrefetchPolicy::replacement_values(
    const PreparedScenario& prep, ReplacementPolicy replacement) const {
  return replacement == ReplacementPolicy::critical_first
             ? prep.replacement_values
             : prep.weights;
}

SequentialSchedule evaluate_instance_plan(const PreparedScenario& prep,
                                          const PlatformConfig& platform,
                                          const InstancePlan& plan) {
  const SubtaskGraph& graph = *prep.graph;
  const Placement& placement = prep.placement;
  DRHW_CHECK_MSG(plan.init_count <= plan.loads.size(),
                 "instance plan: init prefix longer than the load list");
  DRHW_CHECK_MSG(
      plan.init_count == 0 || plan.load_policy == LoadPolicy::explicit_order,
      "instance plan: an initialization phase requires an explicit order");
  SequentialSchedule sched;
  sched.cancelled_loads = plan.cancelled_loads;
  switch (plan.load_policy) {
    case LoadPolicy::on_demand: {
      LoadPlan lp;
      lp.policy = LoadPolicy::on_demand;
      lp.needs_load.assign(graph.size(), false);
      for (SubtaskId s : plan.loads)
        lp.needs_load[static_cast<std::size_t>(s)] = true;
      sched.eval = evaluate(graph, placement, platform, lp);
      break;
    }
    case LoadPolicy::priority: {
      std::vector<bool> needs(graph.size(), false);
      for (SubtaskId s : plan.loads)
        needs[static_cast<std::size_t>(s)] = true;
      sched.eval = list_prefetch_with_priority(
          graph, placement, platform, needs,
          plan.priority.empty() ? prep.weights : plan.priority);
      break;
    }
    case LoadPolicy::explicit_order: {
      const auto body = plan.loads.begin() +
                        static_cast<std::ptrdiff_t>(plan.init_count);
      sched.init_loads.assign(plan.loads.begin(), body);
      // The initialization loads dispatch in order onto the earliest-free
      // port, as in the online kernel (where they are exempt from the
      // unit-order gate): this keeps the two rigs' spans equal at arrival
      // rate -> 0 on multi-port platforms too.
      PortSet ports(platform.reconfig_ports);
      for (SubtaskId s : sched.init_loads) {
        const time_us own = graph.subtask(s).load_time;
        const std::size_t port = ports.earliest();
        sched.init_load_ends.push_back(
            ports.dispatch(port, ports.free_at(port),
                           own != k_no_time ? own : platform.reconfig_latency));
        sched.init_duration =
            std::max(sched.init_duration, sched.init_load_ends.back());
      }
      const std::vector<SubtaskId> order(body, plan.loads.end());
      sched.eval =
          evaluate(graph, placement, platform, explicit_plan(graph, order));
      break;
    }
  }
  sched.span = sched.init_duration + sched.eval.makespan;
  return sched;
}

time_us paper_scheduler_cost(const PolicySpec& spec) {
  return PolicyRegistry::instance().create(spec)->scheduler_cost();
}

}  // namespace drhw
