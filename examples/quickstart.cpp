// Quickstart: builds the 4-subtask example of the paper's Figure 3, shows
// (a) the ideal schedule, (b) the damage done by on-demand loading, (c) the
// optimal prefetch schedule, and then walks through the hybrid heuristic's
// design-time and run-time phases including the Figure 5 situation
// (initialization phase, a cancelled load, and the inter-task slot).

#include <iostream>

#include "platform/platform.hpp"
#include "policy/names.hpp"
#include "policy/registry.hpp"
#include "prefetch/bnb.hpp"
#include "schedule/list_scheduler.hpp"
#include "sim/gantt.hpp"
#include "sim/system_sim.hpp"
#include "util/table.hpp"

int main() {
  using namespace drhw;

  // --- 1. Describe the task: a subtask DAG mapped to DRHW --------------
  SubtaskGraph graph("figure3");
  const auto s1 = graph.add_subtask({"ex1", ms(10), Resource::drhw});
  const auto s2 = graph.add_subtask({"ex2", ms(8), Resource::drhw});
  const auto s3 = graph.add_subtask({"ex3", ms(9), Resource::drhw});
  const auto s4 = graph.add_subtask({"ex4", ms(7), Resource::drhw});
  graph.add_edge(s1, s2);
  graph.add_edge(s1, s3);
  graph.add_edge(s2, s4);
  graph.add_edge(s3, s4);
  graph.finalize();

  // --- 2. Platform and initial schedule (reconfiguration neglected) ----
  const auto platform = virtex2_platform(3);  // 3 tiles, 4 ms loads
  const auto placement = list_schedule(graph, platform.tiles);
  std::cout << "ideal makespan (Fig 3a): "
            << fmt_ms(placement.ideal_makespan) << " ms\n\n";

  const LoadPlan none{LoadPolicy::explicit_order, {}};
  std::cout << render_gantt(graph, placement,
                            evaluate(graph, placement, platform, none))
            << "\n";

  // --- 3. Without prefetch every load delays the system (Fig 3b) -------
  const auto on_demand =
      evaluate(graph, placement, platform, on_demand_all(graph, placement));
  std::cout << "on-demand loading (Fig 3b): "
            << fmt_ms(on_demand.makespan) << " ms (+"
            << fmt_ms(on_demand.makespan - placement.ideal_makespan)
            << " ms)\n\n"
            << render_gantt(graph, placement, on_demand) << "\n";

  // --- 4. Optimal configuration prefetch (Fig 3c) -----------------------
  std::vector<bool> all(graph.size(), true);
  const auto optimal = optimal_prefetch(graph, placement, platform, all);
  std::cout << "optimal prefetch (Fig 3c): " << fmt_ms(optimal.eval.makespan)
            << " ms — only the first load is exposed\n\n"
            << render_gantt(graph, placement, optimal.eval) << "\n";

  // --- 5. Hybrid heuristic: design-time phase ---------------------------
  // prepare_scenario runs the whole design-time flow: the same placement as
  // above, then the Figure 4 critical-subtask loop.
  const PreparedScenario prep =
      prepare_scenario(graph, platform.tiles, platform);
  const HybridSchedule& design = prep.hybrid;
  std::cout << "design-time phase: critical subtasks = {";
  for (SubtaskId s : design.critical) std::cout << " " << graph.subtask(s).name;
  std::cout << " }, stored load order = {";
  for (SubtaskId s : design.stored_order)
    std::cout << " " << graph.subtask(s).name;
  std::cout << " }\n";

  // --- 6. Run-time phase (Fig 5): subtask 3 reused, CS not resident -----
  // The hybrid policy makes the run-time decision: a load plan whose
  // init_count leading loads are the initialization phase. evaluate()
  // times it, that phase included, exactly as the simulators do.
  const auto hybrid =
      PolicyRegistry::instance().create(PolicySpec(policy_names::hybrid));
  std::vector<bool> resident(graph.size(), false);
  resident[static_cast<std::size_t>(s3)] = true;  // L3 gets cancelled
  LoadPlan plan;
  hybrid->plan(prep, resident, PolicyContext{}, plan);
  const EvalResult run = evaluate(graph, placement, platform, plan);
  std::cout << "\nrun-time phase (Fig 5b): initialization loads = "
            << plan.init_count << " (b.1), cancelled loads = "
            << plan.cancelled_loads << ", total = " << fmt_ms(run.makespan)
            << " ms\n\n";
  GanttOptions options;
  options.init_loads.assign(
      plan.loads.begin(),
      plan.loads.begin() + static_cast<std::ptrdiff_t>(plan.init_count));
  std::cout << render_gantt(graph, placement, run, options) << "\n";

  // --- 7. And if the critical subtask is resident: zero overhead --------
  resident[static_cast<std::size_t>(s1)] = true;
  hybrid->plan(prep, resident, PolicyContext{}, plan);
  const EvalResult warm = evaluate(graph, placement, platform, plan);
  std::cout << "with ex1 reused as well: " << fmt_ms(warm.makespan)
            << " ms — equal to the ideal makespan; the tail of the port is\n"
               "idle and would prefetch the next task's initialization "
               "phase (Fig 5 b.3).\n";
  return 0;
}
