// Tests for the event-driven prefetch evaluator — the timing engine of the
// whole library. Includes the Figure 3 example of the paper.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "fixtures.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "platform/platform.hpp"
#include "prefetch/evaluator.hpp"
#include "schedule/list_scheduler.hpp"
#include "schedule_checks.hpp"

namespace drhw {
namespace {

using testing::expect_valid_schedule;
using testing::make_fork_join_graph;
using testing::weight_priority_plan;

/// The Figure 3 example: 1 -> {2, 3} -> 4 on three tiles, 4 ms loads.
struct Fig3 {
  SubtaskGraph graph;
  Placement placement;
  PlatformConfig platform = virtex2_platform(3);

  Fig3() {
    graph.set_name("fig3");
    const auto s1 =
        graph.add_subtask({"ex1", ms(10), Resource::drhw, k_no_config, 0});
    const auto s2 =
        graph.add_subtask({"ex2", ms(8), Resource::drhw, k_no_config, 0});
    const auto s3 =
        graph.add_subtask({"ex3", ms(9), Resource::drhw, k_no_config, 0});
    const auto s4 =
        graph.add_subtask({"ex4", ms(7), Resource::drhw, k_no_config, 0});
    graph.add_edge(s1, s2);
    graph.add_edge(s1, s3);
    graph.add_edge(s2, s4);
    graph.add_edge(s3, s4);
    graph.finalize();
    placement = list_schedule(graph, 3);
  }
};

TEST(Evaluator, NoLoadsReproducesIdealSchedule) {
  Fig3 f;
  const LoadPlan none{LoadPolicy::explicit_order, {}};
  const auto r = evaluate(f.graph, f.placement, f.platform, none);
  EXPECT_EQ(r.makespan, f.placement.ideal_makespan);
  EXPECT_EQ(r.makespan, ms(26));  // Fig 3a
  EXPECT_EQ(r.loads, 0);
  EXPECT_EQ(r.last_load_end, k_no_time);
  expect_valid_schedule(f.graph, f.placement, f.platform, none, r);
}

TEST(Evaluator, OnDemandMatchesFig3b) {
  Fig3 f;
  const auto plan = on_demand_all(f.graph, f.placement);
  const auto r = evaluate(f.graph, f.placement, f.platform, plan);
  // Without prefetch every load delays the system: +16 ms.
  EXPECT_EQ(r.makespan, ms(42));
  EXPECT_TRUE(r.delayed_by_load[0]);
  EXPECT_TRUE(r.delayed_by_load[1]);
  EXPECT_TRUE(r.delayed_by_load[2]);
  EXPECT_TRUE(r.delayed_by_load[3]);
  expect_valid_schedule(f.graph, f.placement, f.platform, plan, r);
}

TEST(Evaluator, PrefetchOrderMatchesFig3c) {
  Fig3 f;
  const LoadPlan plan{LoadPolicy::explicit_order, {0, 1, 2, 3}};
  const auto r = evaluate(f.graph, f.placement, f.platform, plan);
  // With prefetch only the first load penalises the system: +4 ms.
  EXPECT_EQ(r.makespan, ms(30));
  EXPECT_TRUE(r.delayed_by_load[0]);
  EXPECT_FALSE(r.delayed_by_load[1]);
  EXPECT_FALSE(r.delayed_by_load[2]);
  EXPECT_FALSE(r.delayed_by_load[3]);
  // The port worked [0,16] back to back.
  EXPECT_EQ(r.load_start[0], 0);
  EXPECT_EQ(r.load_end[3], ms(18));  // L4 waits for tile0 free at 14
  expect_valid_schedule(f.graph, f.placement, f.platform, plan, r);
}

TEST(Evaluator, PriorityPolicyHidesAllButFirst) {
  Fig3 f;
  const LoadPlan plan = weight_priority_plan(f.graph, f.placement);
  const auto r = evaluate(f.graph, f.placement, f.platform, plan);
  EXPECT_EQ(r.makespan, ms(30));
  expect_valid_schedule(f.graph, f.placement, f.platform, plan, r);
}

TEST(Evaluator, ResidentSubtaskNeedsNoLoad) {
  Fig3 f;
  // Subtask 1 (id 0) is reused: its load is left out of the plan.
  LoadPlan plan{LoadPolicy::priority, {1, 2, 3}};
  order_by_weight(plan.loads, subtask_weights(f.graph));
  const auto r = evaluate(f.graph, f.placement, f.platform, plan);
  EXPECT_EQ(r.makespan, f.placement.ideal_makespan);  // zero overhead
  EXPECT_EQ(r.load_start[0], k_no_time);
  expect_valid_schedule(f.graph, f.placement, f.platform, plan, r);
}

TEST(Evaluator, MalformedPlansThrowUnderEveryPolicy) {
  Fig3 f;
  for (const LoadPolicy policy : {LoadPolicy::on_demand, LoadPolicy::priority,
                                  LoadPolicy::explicit_order}) {
    const int label = static_cast<int>(policy);
    EXPECT_NO_THROW(evaluate(f.graph, f.placement, f.platform,
                             LoadPlan{policy, {0, 1, 2, 3}}))
        << label;
    for (const std::vector<SubtaskId>& loads :
         {std::vector<SubtaskId>{0, 1, 2, 2},  // duplicate
          std::vector<SubtaskId>{0, 1, 2, 4},  // past the graph
          std::vector<SubtaskId>{-1, 0, 1}}) {
      EXPECT_THROW(evaluate(f.graph, f.placement, f.platform,
                            LoadPlan{policy, loads}),
                   std::invalid_argument)
          << label;
    }
  }
}

TEST(Evaluator, RejectsLoadForIspSubtask) {
  SubtaskGraph g;
  g.add_subtask({"sw", ms(5), Resource::isp, k_no_config, 0});
  g.finalize();
  const auto p = list_schedule(g, 1, 1);
  const LoadPlan plan{LoadPolicy::on_demand, {0}};
  EXPECT_THROW(evaluate(g, p, virtex2_platform(1), plan),
               std::invalid_argument);
}

TEST(Evaluator, InfeasibleExplicitOrderThrows) {
  // Two subtasks on one tile: the second's load cannot precede the first's
  // (head-of-line deadlock: the port waits for an execution that waits for
  // a load queued behind the head).
  SubtaskGraph g;
  const auto a = g.add_subtask({"a", ms(5), Resource::drhw, k_no_config, 0});
  const auto b = g.add_subtask({"b", ms(5), Resource::drhw, k_no_config, 0});
  g.add_edge(a, b);
  g.finalize();
  const auto p = list_schedule(g, 1);
  const LoadPlan plan{LoadPolicy::explicit_order, {b, a}};
  EXPECT_THROW(evaluate(g, p, virtex2_platform(1), plan),
               std::invalid_argument);
}

TEST(Evaluator, SharedTileLoadWaitsForPreviousExecution) {
  SubtaskGraph g;
  const auto a = g.add_subtask({"a", ms(5), Resource::drhw, k_no_config, 0});
  const auto b = g.add_subtask({"b", ms(5), Resource::drhw, k_no_config, 0});
  g.add_edge(a, b);
  g.finalize();
  const auto p = list_schedule(g, 1);  // both on tile 0
  const LoadPlan plan{LoadPolicy::explicit_order, {a, b}};
  const auto r = evaluate(g, p, virtex2_platform(1), plan);
  // L(a) [0,4], Ex(a) [4,9], L(b) [9,13], Ex(b) [13,18].
  EXPECT_EQ(r.load_start[static_cast<std::size_t>(b)], ms(9));
  EXPECT_EQ(r.makespan, ms(18));
  expect_valid_schedule(g, p, virtex2_platform(1), plan, r);
}

TEST(Evaluator, OnDemandServesEligibleRequestsFifo) {
  // Fork of three: requests arrive together; FIFO must break ties by id.
  Rng rng(2);
  const auto g = make_fork_join_graph(3, 1, ms(10), ms(10), rng);
  const auto p = list_schedule(g, static_cast<int>(g.size()));
  const auto plan = on_demand_all(g, p);
  const auto r = evaluate(g, p, virtex2_platform(8), plan);
  // Branch loads are ordered by subtask id.
  for (std::size_t i = 2; i < 4; ++i)
    EXPECT_LT(r.load_start[i - 1], r.load_start[i]);
  expect_valid_schedule(g, p, virtex2_platform(8), plan, r);
}

TEST(Evaluator, IdealMakespanHelperAgrees) {
  Fig3 f;
  EXPECT_EQ(ideal_makespan(f.graph, f.placement, f.platform),
            f.placement.ideal_makespan);
}

TEST(Evaluator, TileLastExecEndReported) {
  Fig3 f;
  const LoadPlan none{LoadPolicy::explicit_order, {}};
  const auto r = evaluate(f.graph, f.placement, f.platform, none);
  ASSERT_EQ(r.tile_last_exec_end.size(),
            static_cast<std::size_t>(f.placement.tiles_used));
  // Tile 0 runs subtask 0 then subtask 3 (the join): last end == makespan.
  EXPECT_EQ(r.tile_last_exec_end[0], r.makespan);
}

TEST(Evaluator, DeterministicAcrossRuns) {
  Rng rng(21);
  LayeredGraphParams params;
  params.subtasks = 25;
  const auto g = make_layered_graph(params, rng);
  const auto p = list_schedule(g, 4);
  const LoadPlan plan = weight_priority_plan(g, p);
  const auto r1 = evaluate(g, p, virtex2_platform(4), plan);
  const auto r2 = evaluate(g, p, virtex2_platform(4), plan);
  EXPECT_EQ(r1.makespan, r2.makespan);
  EXPECT_EQ(r1.load_order, r2.load_order);
  EXPECT_EQ(r1.exec_start, r2.exec_start);
}

/// Field-by-field equality of two evaluations.
void expect_same_result(const EvalResult& actual, const EvalResult& expected,
                        const std::string& where) {
  EXPECT_EQ(actual.makespan, expected.makespan) << where;
  EXPECT_EQ(actual.exec_start, expected.exec_start) << where;
  EXPECT_EQ(actual.exec_end, expected.exec_end) << where;
  EXPECT_EQ(actual.load_start, expected.load_start) << where;
  EXPECT_EQ(actual.load_end, expected.load_end) << where;
  EXPECT_EQ(actual.delayed_by_load, expected.delayed_by_load) << where;
  EXPECT_EQ(actual.load_order, expected.load_order) << where;
  EXPECT_EQ(actual.last_load_end, expected.last_load_end) << where;
  EXPECT_EQ(actual.tile_last_exec_end, expected.tile_last_exec_end) << where;
  EXPECT_EQ(actual.loads, expected.loads) << where;
}

/// One workspace and one result object carried through a mixed sequence —
/// every port discipline, 1 to 3 ports, graphs growing and shrinking, ISP
/// subtasks, partial (reuse-thinned) plans, and an infeasible explicit
/// order that throws mid-sequence — must reproduce a fresh evaluate()
/// every time: nothing of one evaluation may leak into the next.
TEST(EvalWorkspace, ReusedStorageMatchesFreshEvaluations) {
  EvalWorkspace workspace;
  EvalResult out;
  Rng rng(77);
  int evaluations = 0;
  for (const int subtasks : {25, 3, 40, 8, 1, 30, 12}) {
    LayeredGraphParams params;
    params.subtasks = subtasks;
    params.isp_fraction = subtasks % 2 == 0 ? 0.2 : 0.0;
    const auto g = make_layered_graph(params, rng);
    const int tiles = static_cast<int>(rng.next_int(1, 6));
    const auto p = list_schedule(g, tiles);
    for (int ports = 1; ports <= 3; ++ports) {
      PlatformConfig platform = virtex2_platform(tiles);
      platform.reconfig_ports = ports;
      const LoadPlan on_demand = on_demand_all(g, p);
      const LoadPlan priority = weight_priority_plan(g, p);
      // The port order on-demand served is a feasible explicit order.
      LoadPlan explicit_plan{LoadPolicy::explicit_order,
                             evaluate(g, p, platform, on_demand).load_order};
      // Thinned plans: every third load "resident" (left out).
      LoadPlan thinned = priority;
      for (std::size_t i = thinned.loads.size(); i-- > 0;)
        if (i % 3 == 1)
          thinned.loads.erase(thinned.loads.begin() +
                              static_cast<std::ptrdiff_t>(i));
      const std::vector<const LoadPlan*> plans{&on_demand, &priority,
                                               &explicit_plan, &thinned};
      for (const LoadPlan* plan : plans) {
        workspace.evaluate(g, p, platform, *plan, out);
        expect_same_result(out, evaluate(g, p, platform, *plan),
                           "subtasks " + std::to_string(subtasks) +
                               " ports " + std::to_string(ports) +
                               " policy " +
                               std::to_string(static_cast<int>(plan->policy)));
        ++evaluations;
      }
    }

    // An infeasible explicit order throws out of the workspace, which must
    // stay usable: the next evaluation starts from clean state.
    SubtaskGraph pair;
    const auto a =
        pair.add_subtask({"a", ms(5), Resource::drhw, k_no_config, 0});
    const auto b =
        pair.add_subtask({"b", ms(5), Resource::drhw, k_no_config, 0});
    pair.add_edge(a, b);
    pair.finalize();
    const auto one_tile = list_schedule(pair, 1);
    EXPECT_THROW(workspace.evaluate(pair, one_tile, virtex2_platform(1),
                                    LoadPlan{LoadPolicy::explicit_order,
                                             {b, a}},
                                    out),
                 std::invalid_argument);
    const LoadPlan valid{LoadPolicy::explicit_order, {a, b}};
    workspace.evaluate(pair, one_tile, virtex2_platform(1), valid, out);
    expect_same_result(out,
                       evaluate(pair, one_tile, virtex2_platform(1), valid),
                       "after the throw");
  }
  EXPECT_EQ(evaluations, 7 * 3 * 4);
}

}  // namespace
}  // namespace drhw
