// Cross-module randomized property suite: for random graphs, placements and
// residency patterns, every scheduler must produce valid schedules and the
// documented dominance/monotonicity relations must hold.

#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "hybrid_run.hpp"
#include "prefetch/bnb.hpp"
#include "prefetch/critical_subtasks.hpp"
#include "prefetch/list_prefetch.hpp"
#include "schedule/list_scheduler.hpp"
#include "schedule_checks.hpp"

namespace drhw {
namespace {

using testing::expect_valid_schedule;
using testing::run_hybrid;

struct Scenario {
  SubtaskGraph graph;
  Placement placement;
  PlatformConfig platform;
};

Scenario random_scenario(std::uint64_t seed, int subtasks,
                         double isp_fraction = 0.0) {
  Rng rng(seed);
  LayeredGraphParams params;
  params.subtasks = subtasks;
  params.min_exec = us(300);
  params.max_exec = ms(20);
  params.isp_fraction = isp_fraction;
  Scenario s{make_layered_graph(params, rng), {}, virtex2_platform(1)};
  const int tiles = 2 + static_cast<int>(rng.next_below(5));
  s.platform = virtex2_platform(tiles);
  s.placement = list_schedule(s.graph, tiles, 2);
  return s;
}

class EndToEndProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EndToEndProperty, HybridPipelineInvariants) {
  auto s = random_scenario(GetParam(), 12);
  const auto design =
      compute_hybrid_schedule(s.graph, s.placement, s.platform);

  Rng rng(GetParam() * 977);
  std::vector<bool> resident(s.graph.size(), false);
  for (std::size_t i = 0; i < resident.size(); ++i)
    if (s.placement.on_drhw(static_cast<SubtaskId>(i)))
      resident[i] = rng.next_bool(0.35);

  const auto out =
      run_hybrid(s.graph, s.placement, s.platform, design, resident);

  // The executed schedule is valid, its stored part loading the stored
  // order minus the resident subtasks.
  std::vector<SubtaskId> order = out.init_loads();
  for (SubtaskId id : design.stored_order)
    if (!resident[static_cast<std::size_t>(id)]) order.push_back(id);
  EXPECT_EQ(out.plan.loads, order);
  expect_valid_schedule(s.graph, s.placement, s.platform, out.plan, out.eval);

  // Init + cancelled + executed loads partition the DRHW subtasks not
  // resident... plus resident ones.
  const auto drhw = static_cast<long>(s.graph.drhw_count());
  long resident_count = 0;
  for (std::size_t i = 0; i < resident.size(); ++i)
    if (resident[i] && s.placement.on_drhw(static_cast<SubtaskId>(i)))
      ++resident_count;
  // Identity: every DRHW subtask is exactly one of
  // {resident, init-loaded, schedule-loaded} (eval.loads counts both
  // kinds of load).
  EXPECT_EQ(out.eval.loads + resident_count, drhw);

  // Makespan identity: stored schedule with zero penalty under CS-resident;
  // actual run can only be equal or better than init + ideal.
  EXPECT_LE(out.eval.makespan,
            design.ideal_makespan +
                static_cast<time_us>(design.critical.size()) *
                    s.platform.reconfig_latency);
  EXPECT_GE(out.eval.makespan, design.ideal_makespan);
}

TEST_P(EndToEndProperty, DominanceChain) {
  auto s = random_scenario(GetParam() ^ 0x5555, 9);
  std::vector<bool> needs(s.graph.size(), false);
  for (std::size_t i = 0; i < needs.size(); ++i)
    needs[i] = s.placement.on_drhw(static_cast<SubtaskId>(i));

  const auto bnb = optimal_prefetch(s.graph, s.placement, s.platform, needs);
  const auto list = list_prefetch(s.graph, s.placement, s.platform, needs);
  const auto ondemand = evaluate(s.graph, s.placement, s.platform,
                                 on_demand_all(s.graph, s.placement));

  EXPECT_LE(s.placement.ideal_makespan, bnb.eval.makespan);
  EXPECT_LE(bnb.eval.makespan, list.makespan);
  EXPECT_LE(bnb.eval.makespan, ondemand.makespan);
}

TEST_P(EndToEndProperty, MixedIspDrhwGraphsWork) {
  auto s = random_scenario(GetParam() * 3 + 1, 14, /*isp_fraction=*/0.4);
  const LoadPlan plan = testing::weight_priority_plan(s.graph, s.placement);
  const auto r = evaluate(s.graph, s.placement, s.platform, plan);
  expect_valid_schedule(s.graph, s.placement, s.platform, plan, r);
  // ISP subtasks never load.
  for (std::size_t i = 0; i < s.graph.size(); ++i)
    if (!s.placement.on_drhw(static_cast<SubtaskId>(i))) {
      EXPECT_EQ(r.load_start[i], k_no_time);
    }
}

TEST_P(EndToEndProperty, ExplicitReplayReproducesDynamicPolicies) {
  // Replaying the realized order of a dynamic policy as an explicit plan
  // must give the same makespan (the policies emit non-delay schedules).
  auto s = random_scenario(GetParam() + 404, 11);
  std::vector<bool> needs(s.graph.size(), false);
  for (std::size_t i = 0; i < needs.size(); ++i)
    needs[i] = s.placement.on_drhw(static_cast<SubtaskId>(i));
  const auto dynamic = list_prefetch(s.graph, s.placement, s.platform, needs);
  const LoadPlan replay{LoadPolicy::explicit_order, dynamic.load_order};
  const auto replayed = evaluate(s.graph, s.placement, s.platform, replay);
  EXPECT_EQ(replayed.makespan, dynamic.makespan);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EndToEndProperty,
                         ::testing::Range<std::uint64_t>(1, 26));

}  // namespace
}  // namespace drhw
