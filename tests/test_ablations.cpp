// Pins of the ablation catalogue (ScenarioRegistry::ablations(), `drhw_sched
// campaign --catalogue ablation`) on the columns a campaign report does not
// carry: the inter-task ablation's initialization loads and tail
// prefetches, the hybrid's cancelled loads at the Figure 6/7 8-tile points,
// the latency sweep's critical-subtask counts. Also the priority-function
// ablation of the run-time list heuristic [7]: the paper's ALAP weight
// against three naive priorities, with the optimal B&B order as the bound.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "apps/multimedia.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "policy/names.hpp"
#include "prefetch/bnb.hpp"
#include "prefetch/load_plan.hpp"
#include "runner/campaign.hpp"
#include "runner/scenario.hpp"
#include "schedule/list_scheduler.hpp"

namespace drhw {
namespace {

struct LoadCounts {
  long init_loads = 0;
  long intertask_prefetches = 0;
  friend bool operator==(const LoadCounts& a, const LoadCounts& b) {
    return a.init_loads == b.init_loads &&
           a.intertask_prefetches == b.intertask_prefetches;
  }
};

void PrintTo(const LoadCounts& c, std::ostream* os) {
  *os << c.init_loads << "/" << c.intertask_prefetches;
}

TEST(AblationCatalogue, IntertaskInitLoadsAndTailPrefetches) {
  // Rows: no inter-task, next task only (the paper), cross-iteration at
  // depth 1 and 3, depth 3 plus the loads beyond the critical set.
  const std::vector<std::pair<std::string, std::vector<LoadCounts>>>
      expected = {
          {"mm_t8",
           {{1461, 0}, {367, 1087}, {1, 1448}, {1, 2153}, {1, 3717}}},
          {"gl_t5",
           {{1284, 0}, {1242, 42}, {843, 441}, {843, 1238}, {843, 2246}}},
          {"gl_t8", {{47, 0}, {45, 2}, {45, 2}, {45, 2}, {4, 1999}}},
      };
  WorkloadCache cache;
  for (const auto& [point, rows] : expected) {
    const auto scenarios = ScenarioRegistry::ablations(400, 31).match(
        "ablation_intertask/" + point + "/");
    ASSERT_EQ(scenarios.size(), rows.size()) << point;
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const ScenarioResult result = run_scenario(scenarios[i], false, &cache);
      ASSERT_TRUE(result.ok) << result.error;
      EXPECT_EQ((LoadCounts{result.report.init_loads,
                            result.report.intertask_prefetches}),
                rows[i])
          << scenarios[i].name;
    }
  }
}

TEST(AblationCatalogue, HybridCancelledLoadsAtTheEightTilePoints) {
  // The loads the run-time prefetch module cancels because their
  // configuration is resident: only the hybrid plans any to cancel.
  WorkloadCache cache;
  for (const auto& [point, cancelled] :
       {std::pair<const char*, long>{"fig6/tiles8/", 924},
        std::pair<const char*, long>{"fig7/tiles8/", 354}}) {
    for (const Scenario& s : ScenarioRegistry::builtin(400, 17).match(point)) {
      const ScenarioResult result = run_scenario(s, false, &cache);
      ASSERT_TRUE(result.ok) << result.error;
      EXPECT_EQ(result.report.cancelled_loads,
                s.sim.policy.name == policy_names::hybrid ? cancelled : 0)
          << s.name;
    }
  }
}

TEST(AblationCatalogue, LatencySweepShrinksTheCriticalSet) {
  // Smaller latencies hide more loads inside the schedule, so fewer of the
  // multimedia set's 33 DRHW subtasks stay critical.
  const std::vector<int> expected = {9, 7, 6, 6, 6};
  WorkloadCache cache;
  std::vector<int> critical;
  for (const Scenario& s :
       ScenarioRegistry::ablations().match("ablation_latency/")) {
    if (s.sim.policy.name != policy_names::hybrid) continue;
    int count = 0, drhw = 0;
    for (const auto& per_task : cache.multimedia(s)->prepared)
      for (const PreparedScenario& prepared : per_task) {
        count += static_cast<int>(prepared.hybrid.critical.size());
        drhw += static_cast<int>(prepared.graph->drhw_count());
      }
    EXPECT_EQ(drhw, 33) << s.name;
    critical.push_back(count);
  }
  EXPECT_EQ(critical, expected);
}

// --- priority-function ablation --------------------------------------------

enum class Priority { alap_weight, exec_time, topo_order, reverse_topo };

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

/// Overhead left after prefetching, summed over `graphs` (no reuse, like
/// Table 1): the optimal order, then one priority plan over every DRHW
/// load per priority, heaviest first.
struct PriorityRow {
  time_us optimal = 0;
  std::vector<time_us> by_priority = std::vector<time_us>(4, 0);
};

PriorityRow priority_row(const std::vector<const SubtaskGraph*>& graphs) {
  const PlatformConfig platform = virtex2_platform(8);
  PriorityRow row;
  for (const SubtaskGraph* g : graphs) {
    const auto placement = list_schedule(*g, platform.tiles);
    std::vector<bool> needs(g->size(), false);
    for (std::size_t s = 0; s < g->size(); ++s)
      needs[s] = placement.on_drhw(static_cast<SubtaskId>(s));
    row.optimal +=
        optimal_prefetch(*g, placement, platform, needs).eval.makespan -
        placement.ideal_makespan;
    for (int p = 0; p < 4; ++p) {
      LoadPlan plan = on_demand_all(*g, placement);
      plan.policy = LoadPolicy::priority;
      order_by_weight(plan.loads, make_priority(*g, static_cast<Priority>(p)));
      row.by_priority[static_cast<std::size_t>(p)] +=
          evaluate(*g, placement, platform, plan).makespan -
          placement.ideal_makespan;
    }
  }
  return row;
}

TEST(PriorityAblation, AlapWeightTracksTheOptimalOrder) {
  // Columns: optimal, then ALAP weight (the paper), execution time,
  // topological order, reverse topological order; overhead in us.
  std::vector<std::pair<std::string, PriorityRow>> rows;
  ConfigSpace configs;
  for (const auto& task : make_multimedia_taskset(configs)) {
    std::vector<const SubtaskGraph*> graphs;
    for (const auto& g : task.scenarios) graphs.push_back(&g);
    rows.emplace_back(task.name, priority_row(graphs));
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
  rows.emplace_back("random x20", priority_row(refs));

  const std::vector<std::pair<std::string, std::vector<time_us>>> expected = {
      {"pattern_rec", {4000, 4000, 4000, 4000, 4000}},
      {"jpeg_dec", {4000, 4000, 4000, 4000, 4000}},
      {"parallel_jpeg", {4000, 4000, 12000, 4000, 24000}},
      {"mpeg_enc", {18000, 18000, 30000, 18000, 54000}},
      {"random x20", {247050, 259867, 531194, 334619, 645318}},
  };
  ASSERT_EQ(rows.size(), expected.size());
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const auto& [name, row] = rows[r];
    EXPECT_EQ(name, expected[r].first);
    std::vector<time_us> cells = {row.optimal};
    cells.insert(cells.end(), row.by_priority.begin(), row.by_priority.end());
    EXPECT_EQ(cells, expected[r].second) << name;
    // The optimum bounds the ALAP weight, which bounds every naive
    // priority.
    EXPECT_LE(row.optimal, row.by_priority[0]) << name;
    for (std::size_t p = 1; p < 4; ++p)
      EXPECT_LE(row.by_priority[0], row.by_priority[p]) << name << " " << p;
  }
}

}  // namespace
}  // namespace drhw
