#include "policy/prefetch_policy.hpp"

#include <algorithm>

#include "policy/registry.hpp"
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

void check_instance_plan(const InstancePlan& plan) {
  DRHW_CHECK_LE_MSG(plan.init_count, plan.loads.size(),
                    "instance plan: init prefix longer than the load list");
  DRHW_CHECK_MSG(
      plan.init_count == 0 || plan.load_policy == LoadPolicy::explicit_order,
      "instance plan: an initialization phase requires an explicit order");
}

void evaluate_instance_plan(const PreparedScenario& prep,
                            const PlatformConfig& platform,
                            const InstancePlan& plan,
                            SequentialWorkspace& workspace,
                            SequentialSchedule& sched) {
  check_instance_plan(plan);
  const SubtaskGraph& graph = *prep.graph;
  const auto body =
      plan.loads.begin() + static_cast<std::ptrdiff_t>(plan.init_count);
  sched.cancelled_loads = plan.cancelled_loads;
  sched.init_loads.assign(plan.loads.begin(), body);
  sched.init_load_ends.clear();
  sched.init_duration = 0;
  // The initialization loads dispatch in order onto the earliest-free
  // port, as in the online kernel (where they are exempt from the
  // unit-order gate): this keeps the two rigs' spans equal at arrival
  // rate -> 0 on multi-port platforms too.
  PortSet& ports = workspace.init_ports;
  ports.reset(platform.reconfig_ports);
  for (SubtaskId s : sched.init_loads) {
    const time_us own = graph.subtask(s).load_time;
    const std::size_t port = ports.earliest();
    sched.init_load_ends.push_back(
        ports.dispatch(port, ports.free_at(port),
                       own != k_no_time ? own : platform.reconfig_latency));
    sched.init_duration =
        std::max(sched.init_duration, sched.init_load_ends.back());
  }
  workspace.body.policy = plan.load_policy;
  workspace.body.loads.assign(body, plan.loads.end());
  workspace.eval.evaluate(graph, prep.placement, platform, workspace.body,
                          sched.eval);
  sched.span = sched.init_duration + sched.eval.makespan;
}

SequentialSchedule evaluate_instance_plan(const PreparedScenario& prep,
                                          const PlatformConfig& platform,
                                          const InstancePlan& plan) {
  SequentialWorkspace workspace;
  SequentialSchedule sched;
  evaluate_instance_plan(prep, platform, plan, workspace, sched);
  return sched;
}

time_us paper_scheduler_cost(const PolicySpec& spec) {
  return PolicyRegistry::instance().create(spec)->scheduler_cost();
}

}  // namespace drhw
