// Additional cross-cutting invariants: frame merging vs per-task execution,
// the decision-only hybrid run-time step, and evaluator bookkeeping fields.

#include <gtest/gtest.h>

#include <algorithm>

#include "apps/pocket_gl.hpp"
#include "hybrid_run.hpp"
#include "prefetch/hybrid.hpp"
#include "prefetch/load_plan.hpp"
#include "schedule/list_scheduler.hpp"

namespace drhw {
namespace {

TEST(FrameMerge, MergedIdealEqualsSumOfTaskIdeals) {
  // The frame pipeline is sequential, so the merged graph's ideal makespan
  // must equal the sum of the per-task ideal makespans for every inter-task
  // scenario — the identity the Figure 7 baselines rely on.
  ConfigSpace cs;
  const auto app = make_pocket_gl(cs);
  const auto platform = virtex2_platform(8);
  for (const auto& combo : app.combos) {
    const auto frame = merge_frame(app, combo);
    const auto merged = list_schedule(frame, platform.tiles);
    time_us sum = 0;
    for (std::size_t t = 0; t < app.tasks.size(); ++t) {
      const auto& g = app.tasks[t].scenarios[static_cast<std::size_t>(
          combo.scenario_of_task[t])];
      sum += list_schedule(g, platform.tiles).ideal_makespan;
    }
    EXPECT_EQ(merged.ideal_makespan, sum);
  }
}

TEST(HybridDecide, MatchesRuntimeOutcome) {
  ConfigSpace cs;
  const auto app = make_pocket_gl(cs);
  const auto platform = virtex2_platform(6);
  const auto& g = app.tasks[5].scenarios[0];  // fragment: 3-subtask chain
  const auto placement = list_schedule(g, platform.tiles);
  const auto design = compute_hybrid_schedule(g, placement, platform);

  std::vector<bool> resident(g.size(), false);
  resident[1] = true;  // blend resident
  const auto decision = hybrid_decide(design, resident);
  const auto outcome =
      testing::run_hybrid(g, placement, platform, design, resident);
  EXPECT_EQ(decision.init_loads, outcome.init_loads);
  EXPECT_EQ(decision.cancelled_loads, outcome.cancelled_loads);
  EXPECT_EQ(decision.load_order, outcome.eval.load_order);
}

TEST(HybridDecide, EmptyForFullyResidentTask) {
  ConfigSpace cs;
  const auto app = make_pocket_gl(cs);
  const auto platform = virtex2_platform(6);
  const auto& g = app.tasks[1].scenarios[0];
  const auto placement = list_schedule(g, platform.tiles);
  const auto design = compute_hybrid_schedule(g, placement, platform);
  const std::vector<bool> all(g.size(), true);
  const auto decision = hybrid_decide(design, all);
  EXPECT_TRUE(decision.init_loads.empty());
  EXPECT_TRUE(decision.load_order.empty());
  EXPECT_EQ(decision.cancelled_loads,
            static_cast<int>(design.stored_order.size()));
}

TEST(Evaluator, LoadOrderSortedByStartTime) {
  ConfigSpace cs;
  const auto app = make_pocket_gl(cs);
  const auto platform = virtex2_platform(6);
  const auto frame = merge_frame(app, app.combos[2]);
  const auto placement = list_schedule(frame, platform.tiles);
  const auto plan = on_demand_all(frame, placement);
  const auto r = evaluate(frame, placement, platform, plan);
  for (std::size_t i = 1; i < r.load_order.size(); ++i) {
    const auto prev = static_cast<std::size_t>(r.load_order[i - 1]);
    const auto cur = static_cast<std::size_t>(r.load_order[i]);
    EXPECT_LE(r.load_start[prev], r.load_start[cur]);
  }
}

TEST(Evaluator, LastLoadEndIsMaxLoadEnd) {
  ConfigSpace cs;
  const auto app = make_pocket_gl(cs);
  const auto platform = virtex2_platform(6);
  const auto frame = merge_frame(app, app.combos[0]);
  const auto placement = list_schedule(frame, platform.tiles);
  std::vector<bool> needs(frame.size(), true);
  const LoadPlan plan = priority_plan(frame, needs);
  const auto r = evaluate(frame, placement, platform, plan);
  time_us expected = k_no_time;
  for (std::size_t s = 0; s < frame.size(); ++s)
    if (r.load_end[s] != k_no_time)
      expected = std::max(expected, r.load_end[s]);
  EXPECT_EQ(r.last_load_end, expected);
  EXPECT_LT(r.last_load_end, r.makespan);  // the final idle window exists
}

TEST(CoarseGrain, FactoryValues) {
  const auto cfg = coarse_grain_platform(6);
  EXPECT_EQ(cfg.tiles, 6);
  EXPECT_EQ(cfg.reconfig_latency, us(500));
  const auto custom = coarse_grain_platform(4, us(250));
  EXPECT_EQ(custom.reconfig_latency, us(250));
}

}  // namespace
}  // namespace drhw
