// Tests for the design-time phase: the critical-subtask selection loop of
// the paper's Figure 4 and its postconditions.

#include <gtest/gtest.h>

#include <algorithm>

#include "apps/multimedia.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "prefetch/bnb.hpp"
#include "prefetch/critical_subtasks.hpp"
#include "prefetch/list_prefetch.hpp"
#include "schedule/list_scheduler.hpp"

namespace drhw {
namespace {

PlatformConfig pf(int tiles) { return virtex2_platform(tiles); }

TEST(CriticalSubtasks, JpegChainHasSingleCriticalHead) {
  ConfigSpace cs;
  const auto task = make_jpeg_decoder(cs);
  const auto& g = task.scenarios[0];
  const auto p = list_schedule(g, 8);
  const auto h = compute_hybrid_schedule(g, p, pf(8));
  EXPECT_EQ(h.critical, std::vector<SubtaskId>{0});
  EXPECT_EQ(h.stored_order.size(), 3u);
  EXPECT_EQ(h.ideal_makespan, ms(81));
}

TEST(CriticalSubtasks, PatternRecHasSingleCriticalHead) {
  ConfigSpace cs;
  const auto task = make_pattern_recognition(cs);
  const auto p = list_schedule(task.scenarios[0], 8);
  const auto h = compute_hybrid_schedule(task.scenarios[0], p, pf(8));
  EXPECT_EQ(h.critical, std::vector<SubtaskId>{0});
}

TEST(CriticalSubtasks, MpegHasTwoCriticalSubtasks) {
  // The MPEG encoder's first two stages are too short to hide both early
  // loads; the CS loop must find {ME, DCT} in every frame scenario.
  ConfigSpace cs;
  const auto task = make_mpeg_encoder(cs);
  for (const auto& g : task.scenarios) {
    const auto p = list_schedule(g, 8);
    const auto h = compute_hybrid_schedule(g, p, pf(8));
    std::vector<SubtaskId> sorted = h.critical;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(sorted, (std::vector<SubtaskId>{0, 1})) << g.name();
    // Initialization order is by descending weight: ME before DCT.
    EXPECT_EQ(h.critical.front(), 0) << g.name();
  }
}

TEST(CriticalSubtasks, StoredScheduleHasZeroPenaltyUnderCsAssumption) {
  // The defining property of the CS subset: with the CS resident and every
  // other DRHW subtask loaded in the stored order, overhead is exactly 0.
  ConfigSpace cs;
  for (const auto& task : make_multimedia_taskset(cs)) {
    for (const auto& g : task.scenarios) {
      const auto p = list_schedule(g, 8);
      const auto h = compute_hybrid_schedule(g, p, pf(8));
      const LoadPlan plan = explicit_plan(g, h.stored_order);
      const auto r = evaluate(g, p, pf(8), plan);
      EXPECT_EQ(r.makespan, h.ideal_makespan) << g.name();
    }
  }
}

TEST(CriticalSubtasks, CriticalOrderedByDescendingWeight) {
  ConfigSpace cs;
  const auto task = make_mpeg_encoder(cs);
  const auto& g = task.scenarios[0];
  const auto p = list_schedule(g, 8);
  const auto h = compute_hybrid_schedule(g, p, pf(8));
  const auto w = subtask_weights(g);
  for (std::size_t i = 1; i < h.critical.size(); ++i)
    EXPECT_GE(w[static_cast<std::size_t>(h.critical[i - 1])],
              w[static_cast<std::size_t>(h.critical[i])]);
}

TEST(CriticalSubtasks, SingleSubtaskTaskIsAlwaysCritical) {
  // A task with one subtask can never hide its own load intra-task.
  SubtaskGraph g("single");
  g.add_subtask({"only", ms(7), Resource::drhw, k_no_config, 0});
  g.finalize();
  const auto p = list_schedule(g, 4);
  const auto h = compute_hybrid_schedule(g, p, pf(4));
  EXPECT_EQ(h.critical, std::vector<SubtaskId>{0});
  EXPECT_TRUE(h.stored_order.empty());
}

TEST(CriticalSubtasks, IspOnlyTaskHasNoCriticals) {
  SubtaskGraph g("software");
  const auto a = g.add_subtask({"a", ms(5), Resource::isp, k_no_config, 0});
  const auto b = g.add_subtask({"b", ms(5), Resource::isp, k_no_config, 0});
  g.add_edge(a, b);
  g.finalize();
  const auto p = list_schedule(g, 1, 1);
  const auto h = compute_hybrid_schedule(g, p, pf(1));
  EXPECT_TRUE(h.critical.empty());
  EXPECT_TRUE(h.stored_order.empty());
  EXPECT_EQ(h.loop_iterations, 1);
}

class CsLoopProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CsLoopProperty, TerminatesWithZeroPenaltyOnRandomGraphs) {
  Rng rng(GetParam());
  LayeredGraphParams params;
  params.subtasks = 6 + static_cast<int>(GetParam() % 10);
  params.min_exec = us(500);
  params.max_exec = ms(15);
  const auto g = make_layered_graph(params, rng);
  const int tiles = 3 + static_cast<int>(GetParam() % 4);
  const auto p = list_schedule(g, tiles);
  const auto h = compute_hybrid_schedule(g, p, pf(tiles));

  // |CS| is bounded by the DRHW subtask count and the loop ran at least once.
  EXPECT_LE(h.critical.size(), g.drhw_count());
  EXPECT_GE(h.loop_iterations, 1);
  EXPECT_EQ(h.loop_iterations,
            static_cast<int>(h.critical.size()) + 1);

  // CS and stored order partition the DRHW subtasks.
  std::vector<char> seen(g.size(), 0);
  for (SubtaskId s : h.critical) seen[static_cast<std::size_t>(s)] += 1;
  for (SubtaskId s : h.stored_order) seen[static_cast<std::size_t>(s)] += 1;
  for (std::size_t s = 0; s < g.size(); ++s)
    EXPECT_EQ(seen[s], p.on_drhw(static_cast<SubtaskId>(s)) ? 1 : 0);

  // Zero-penalty postcondition.
  const LoadPlan plan = explicit_plan(g, h.stored_order);
  const auto r = evaluate(g, p, pf(tiles), plan);
  EXPECT_EQ(r.makespan, h.ideal_makespan);
}

TEST_P(CsLoopProperty, ListHeuristicSchedulerAlsoConverges) {
  Rng rng(GetParam() * 31 + 7);
  LayeredGraphParams params;
  params.subtasks = 20;
  const auto g = make_layered_graph(params, rng);
  const auto p = list_schedule(g, 5);
  HybridDesignOptions options;
  options.bnb_load_threshold = -1;  // below any load count: list heuristic
  const auto h = compute_hybrid_schedule(g, p, pf(5), options);
  const LoadPlan plan = explicit_plan(g, h.stored_order);
  const auto r = evaluate(g, p, pf(5), plan);
  EXPECT_EQ(r.makespan, h.ideal_makespan);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CsLoopProperty,
                         ::testing::Range<std::uint64_t>(1, 16));

class FirstPassProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FirstPassProperty, IsTheSearchOverEveryLoad) {
  // The loop's first pass loads every DRHW subtask with nothing reused, so
  // it is exactly the search the design-time approach's order needs: the
  // B&B up to the load threshold (same order, same node count), the list
  // heuristic above it.
  Rng rng(GetParam() * 7 + 3);
  LayeredGraphParams params;
  params.subtasks = 6 + static_cast<int>(GetParam() % 8);
  params.max_exec = ms(12);
  const auto g = make_layered_graph(params, rng);
  const int tiles = 3 + static_cast<int>(GetParam() % 4);
  const auto p = list_schedule(g, tiles);
  std::vector<bool> all(g.size(), false);
  int loads = 0;
  for (std::size_t s = 0; s < g.size(); ++s) {
    all[s] = p.on_drhw(static_cast<SubtaskId>(s));
    loads += all[s];
  }
  for (int threshold : {loads, loads - 1}) {
    HybridDesignOptions options;
    options.bnb_load_threshold = threshold;
    FirstPass first;
    const auto h = compute_hybrid_schedule(g, p, pf(tiles), options, &first);
    if (threshold >= loads) {
      const BnbResult bnb = optimal_prefetch(g, p, pf(tiles), all);
      EXPECT_EQ(first.order, bnb.order);
      EXPECT_EQ(first.bnb_nodes, bnb.nodes_explored);
      EXPECT_EQ(first.bnb_budget_hits, bnb.proven_optimal ? 0 : 1);
    } else {
      EXPECT_EQ(first.order, list_prefetch(g, p, pf(tiles), all).load_order);
      EXPECT_EQ(first.bnb_nodes, 0u);
      EXPECT_EQ(first.bnb_budget_hits, 0);
    }
    EXPECT_LE(first.bnb_nodes, h.bnb_nodes);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FirstPassProperty,
                         ::testing::Range<std::uint64_t>(1, 13));

TEST(CriticalSubtasks, BnbAndListSchedulersAgreeOnSmallChains) {
  // On chains the heuristic is optimal, so both backends find the same CS.
  Rng rng(77);
  const auto g = make_chain_graph(5, ms(5), ms(9), rng);
  const auto p = list_schedule(g, 5);
  HybridDesignOptions bnb;
  bnb.bnb_load_threshold = static_cast<int>(g.size());  // always the B&B
  HybridDesignOptions list;
  list.bnb_load_threshold = -1;  // always the list heuristic
  const auto h1 = compute_hybrid_schedule(g, p, pf(5), bnb);
  const auto h2 = compute_hybrid_schedule(g, p, pf(5), list);
  EXPECT_EQ(h1.critical, h2.critical);
}

}  // namespace
}  // namespace drhw
