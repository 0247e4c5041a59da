// Tests for the event-driven prefetch evaluator — the timing engine of the
// whole library. Includes the Figure 3 example of the paper.

#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "platform/platform.hpp"
#include "prefetch/evaluator.hpp"
#include "schedule/list_scheduler.hpp"
#include "schedule_checks.hpp"

namespace drhw {
namespace {

using testing::expect_valid_schedule;

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
  LoadPlan none;
  none.needs_load.assign(f.graph.size(), false);
  none.policy = LoadPolicy::explicit_order;
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
  const auto plan = explicit_plan(f.graph, {0, 1, 2, 3});
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
  std::vector<bool> all(f.graph.size(), true);
  LoadPlan plan = priority_plan(f.graph, all);
  const auto r = evaluate(f.graph, f.placement, f.platform, plan);
  EXPECT_EQ(r.makespan, ms(30));
  expect_valid_schedule(f.graph, f.placement, f.platform, plan, r);
}

TEST(Evaluator, ResidentSubtaskNeedsNoLoad) {
  Fig3 f;
  std::vector<bool> resident(f.graph.size(), false);
  resident[0] = true;  // subtask 1 reused
  LoadPlan plan = priority_plan(
      f.graph, loads_excluding(f.graph, f.placement, resident));
  const auto r = evaluate(f.graph, f.placement, f.platform, plan);
  EXPECT_EQ(r.makespan, f.placement.ideal_makespan);  // zero overhead
  EXPECT_EQ(r.load_start[0], k_no_time);
  expect_valid_schedule(f.graph, f.placement, f.platform, plan, r);
}

TEST(Evaluator, ExplicitOrderValidation) {
  Fig3 f;
  LoadPlan plan = explicit_plan(f.graph, {0, 1, 2, 3});
  plan.order = {0, 1, 2};  // missing a load
  EXPECT_THROW(evaluate(f.graph, f.placement, f.platform, plan),
               std::invalid_argument);
  plan.order = {0, 1, 2, 2};  // duplicate
  EXPECT_THROW(evaluate(f.graph, f.placement, f.platform, plan),
               std::invalid_argument);
  plan.order = {0, 1, 2, 3, 3};  // too long
  EXPECT_THROW(evaluate(f.graph, f.placement, f.platform, plan),
               std::invalid_argument);
  LoadPlan bad;
  bad.policy = LoadPolicy::explicit_order;
  bad.needs_load.assign(2, false);  // wrong size
  EXPECT_THROW(evaluate(f.graph, f.placement, f.platform, bad),
               std::invalid_argument);
}

TEST(Evaluator, RejectsLoadForIspSubtask) {
  SubtaskGraph g;
  g.add_subtask({"sw", ms(5), Resource::isp, k_no_config, 0});
  g.finalize();
  const auto p = list_schedule(g, 1, 1);
  LoadPlan plan;
  plan.policy = LoadPolicy::on_demand;
  plan.needs_load = {true};
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
  const auto plan = explicit_plan(g, {b, a});
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
  const auto plan = explicit_plan(g, {a, b});
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
  LoadPlan none;
  none.policy = LoadPolicy::explicit_order;
  none.needs_load.assign(f.graph.size(), false);
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
  std::vector<bool> all(g.size());
  for (std::size_t s = 0; s < g.size(); ++s)
    all[s] = p.on_drhw(static_cast<SubtaskId>(s));
  const LoadPlan plan = priority_plan(g, all);
  const auto r1 = evaluate(g, p, virtex2_platform(4), plan);
  const auto r2 = evaluate(g, p, virtex2_platform(4), plan);
  EXPECT_EQ(r1.makespan, r2.makespan);
  EXPECT_EQ(r1.load_order, r2.load_order);
  EXPECT_EQ(r1.exec_start, r2.exec_start);
}

}  // namespace
}  // namespace drhw
