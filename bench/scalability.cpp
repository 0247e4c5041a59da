// Reproduces the scalability discussion of Section 4: the fully run-time
// list-scheduling heuristic of ref. [7] is O(N log N) in the number of
// loads ("able to schedule 20 tasks with 14 subtasks on average in less
// than 0.1 ms", but "increasing the size of the subtask graph by a factor
// of 32 was leading to a 192-increase factor in the scheduling execution
// time"), whereas the hybrid heuristic's run-time phase only filters the
// stored schedule by the reuse set: linear in N with a small constant.
//
// The size sweep runs as sched_cost scenarios of the campaign engine
// (built-in family "scalability"), so the per-size measurements execute
// concurrently on the worker pool.

#include <iostream>

#include "runner/campaign.hpp"
#include "runner/scenario.hpp"
#include "util/table.hpp"

int main() {
  using namespace drhw;

  std::cout << "Section 4 scalability — scheduling cost vs subtask count\n\n";

  const auto scenarios = ScenarioRegistry::builtin().match("scalability");
  // sched_cost scenarios are executed serially by the engine, so the
  // timings never compete for cores.
  const auto results = CampaignRunner().run(scenarios);

  TablePrinter table({"subtasks", "run-time heuristic [7] (us)",
                      "hybrid run-time phase (us)", "ratio vs N=14"});
  double base_list = 0.0;
  for (const ScenarioResult& result : results) {
    if (!result.ok) {
      std::cerr << result.scenario.name << " failed: " << result.error
                << "\n";
      return 1;
    }
    const int subtasks = result.scenario.synthetic.graph.subtasks;
    if (base_list == 0.0) base_list = result.list_sched_us;
    table.add_row({std::to_string(subtasks), fmt(result.list_sched_us, 1),
                   fmt(result.hybrid_sched_us, 2),
                   fmt(result.list_sched_us / base_list, 1) + "x"});
  }
  table.print(std::cout);

  // The "<0.1 ms for 20 tasks with 14 subtasks" claim: one sched_cost
  // scenario over a 20-graph task set; the batch cost is 20x the mean
  // per-graph scheduling cost.
  Scenario batch;
  batch.name = "scalability/batch20x14";
  batch.family = "scalability";
  batch.mode = ScenarioMode::sched_cost;
  batch.workload = WorkloadKind::synthetic;
  batch.synthetic.tasks = 20;
  batch.synthetic.graph.subtasks = 14;
  batch.synthetic.graph_seed = 100;
  batch.timing_calls = 50;
  batch.time_all_loads = true;  // the paper schedules all 14 loads per task
  const ScenarioResult batch_result = run_scenario(batch);
  if (!batch_result.ok) {
    std::cerr << batch.name << " failed: " << batch_result.error << "\n";
    return 1;
  }
  std::cout << "\n20 tasks x 14 subtasks scheduled by [7]-style heuristic in "
            << fmt(batch_result.list_sched_us * 20.0 / 1000.0, 3)
            << " ms  (paper: < 0.1 ms)\n";
  std::cout << "Note: the hybrid run-time phase (hybrid_decide) is linear "
               "in N with a small constant: one pass over the critical set "
               "and one over the stored order, because all schedule "
               "computation happened at design time.\n";
  return 0;
}
