// Tests for the hybrid run-time phase: initialization phase, load
// cancellation, and its end-to-end guarantees.

#include <gtest/gtest.h>

#include "apps/multimedia.hpp"
#include "graph/generators.hpp"
#include "hybrid_run.hpp"
#include "prefetch/hybrid.hpp"
#include "schedule/list_scheduler.hpp"
#include "util/check.hpp"

namespace drhw {
namespace {

using testing::run_hybrid;

struct Prepared {
  SubtaskGraph graph;
  Placement placement;
  HybridSchedule design;
  PlatformConfig platform = virtex2_platform(8);
};

Prepared prepare_jpeg() {
  ConfigSpace cs;
  auto task = make_jpeg_decoder(cs);
  Prepared p{std::move(task.scenarios[0]), {}, {}, virtex2_platform(8)};
  p.placement = list_schedule(p.graph, 8);
  p.design = compute_hybrid_schedule(p.graph, p.placement, p.platform);
  return p;
}

TEST(HybridRuntime, AllCriticalResidentMeansZeroOverhead) {
  const auto p = prepare_jpeg();
  std::vector<bool> resident(p.graph.size(), false);
  for (SubtaskId s : p.design.critical)
    resident[static_cast<std::size_t>(s)] = true;
  const auto out =
      run_hybrid(p.graph, p.placement, p.platform, p.design, resident);
  EXPECT_TRUE(out.init_loads.empty());
  EXPECT_EQ(out.init_duration, 0);
  EXPECT_EQ(out.span, p.design.ideal_makespan);
  EXPECT_EQ(out.cancelled_loads, 0);
}

TEST(HybridRuntime, NothingResidentPaysExactlyInitPhase) {
  const auto p = prepare_jpeg();
  const std::vector<bool> resident(p.graph.size(), false);
  const auto out =
      run_hybrid(p.graph, p.placement, p.platform, p.design, resident);
  EXPECT_EQ(out.init_loads.size(), p.design.critical.size());
  EXPECT_EQ(out.init_duration,
            static_cast<time_us>(p.design.critical.size()) * ms(4));
  // The stored schedule itself hides everything, so the only overhead is
  // the initialization phase.
  EXPECT_EQ(out.span,
            p.design.ideal_makespan + out.init_duration);
}

TEST(HybridRuntime, InitPhaseOverlapsLoadsAcrossReconfigurationPorts) {
  // The initialization loads dispatch onto the earliest-free port in the
  // pre-decided order: with one port the phase is the serial sum, with P
  // ports it is ceil(n / P) * latency (uniform bitstreams), and the
  // per-load completion times interleave accordingly. A chain whose
  // executions are much shorter than the 4 ms load makes every subtask
  // critical, so the init phase has several loads to overlap.
  Rng rng(3);
  const SubtaskGraph graph = make_chain_graph(4, ms(1), ms(2), rng);
  Prepared p{graph, {}, {}, virtex2_platform(8)};
  p.placement = list_schedule(p.graph, 8);
  p.design = compute_hybrid_schedule(p.graph, p.placement, p.platform);
  const std::vector<bool> resident(p.graph.size(), false);
  const auto serial =
      run_hybrid(p.graph, p.placement, p.platform, p.design, resident);
  const auto n = static_cast<time_us>(serial.init_loads.size());
  ASSERT_GE(n, 2);
  EXPECT_EQ(serial.init_duration, n * ms(4));
  ASSERT_EQ(serial.init_load_ends.size(), static_cast<std::size_t>(n));
  EXPECT_EQ(serial.init_load_ends.front(), ms(4));
  EXPECT_EQ(serial.init_load_ends.back(), n * ms(4));

  PlatformConfig two_ports = p.platform;
  two_ports.reconfig_ports = 2;
  const auto parallel =
      run_hybrid(p.graph, p.placement, two_ports, p.design, resident);
  EXPECT_EQ(parallel.init_loads, serial.init_loads);
  EXPECT_EQ(parallel.init_duration, (n + 1) / 2 * ms(4));
  // First two loads start together on the two ports.
  ASSERT_GE(parallel.init_load_ends.size(), 2u);
  EXPECT_EQ(parallel.init_load_ends[0], ms(4));
  EXPECT_EQ(parallel.init_load_ends[1], ms(4));
  EXPECT_LT(parallel.span, serial.span);
}

TEST(HybridRuntime, ResidentNonCriticalLoadIsCancelled) {
  const auto p = prepare_jpeg();
  std::vector<bool> resident(p.graph.size(), false);
  ASSERT_FALSE(p.design.stored_order.empty());
  const SubtaskId cancelled = p.design.stored_order[1];
  resident[static_cast<std::size_t>(cancelled)] = true;
  const auto out =
      run_hybrid(p.graph, p.placement, p.platform, p.design, resident);
  EXPECT_EQ(out.cancelled_loads, 1);
  EXPECT_EQ(out.eval.load_start[static_cast<std::size_t>(cancelled)],
            k_no_time);
  // Cancelling never hurts: still ideal + init.
  EXPECT_EQ(out.span,
            p.design.ideal_makespan + out.init_duration);
}

TEST(HybridRuntime, CancellationPreservesRelativeOrder) {
  const auto p = prepare_jpeg();
  std::vector<bool> resident(p.graph.size(), false);
  resident[static_cast<std::size_t>(p.design.stored_order[0])] = true;
  const auto out =
      run_hybrid(p.graph, p.placement, p.platform, p.design, resident);
  // Remaining loads appear in the stored order.
  std::vector<SubtaskId> expected;
  for (SubtaskId s : p.design.stored_order)
    if (!resident[static_cast<std::size_t>(s)]) expected.push_back(s);
  EXPECT_EQ(out.eval.load_order, expected);
}

TEST(HybridRuntime, InitOrderFollowsDesignOrder) {
  ConfigSpace cs;
  auto task = make_mpeg_encoder(cs);
  const auto& g = task.scenarios[0];
  const auto placement = list_schedule(g, 8);
  const auto platform = virtex2_platform(8);
  const auto design = compute_hybrid_schedule(g, placement, platform);
  ASSERT_EQ(design.critical.size(), 2u);
  const std::vector<bool> resident(g.size(), false);
  const auto out = run_hybrid(g, placement, platform, design, resident);
  EXPECT_EQ(out.init_loads, design.critical);
}

class HybridMonotonicity : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HybridMonotonicity, MoreResidencyNeverHurts) {
  Rng rng(GetParam());
  LayeredGraphParams params;
  params.subtasks = 10;
  const auto g = make_layered_graph(params, rng);
  const auto placement = list_schedule(g, 4);
  const auto platform = virtex2_platform(4);
  const auto design = compute_hybrid_schedule(g, placement, platform);

  std::vector<bool> some(g.size(), false);
  for (std::size_t s = 0; s < g.size(); ++s)
    if (placement.on_drhw(static_cast<SubtaskId>(s)) && rng.next_bool(0.4))
      some[s] = true;
  std::vector<bool> more = some;
  for (std::size_t s = 0; s < g.size(); ++s)
    if (placement.on_drhw(static_cast<SubtaskId>(s)) && rng.next_bool(0.5))
      more[s] = true;

  const auto base = run_hybrid(g, placement, platform, design, some);
  const auto better = run_hybrid(g, placement, platform, design, more);
  EXPECT_LE(better.span, base.span);
}

TEST_P(HybridMonotonicity, TotalNeverWorseThanInitPlusIdeal) {
  Rng rng(GetParam() * 13 + 5);
  LayeredGraphParams params;
  params.subtasks = 12;
  const auto g = make_layered_graph(params, rng);
  const auto placement = list_schedule(g, 5);
  const auto platform = virtex2_platform(5);
  const auto design = compute_hybrid_schedule(g, placement, platform);
  const std::vector<bool> resident(g.size(), false);
  const auto out = run_hybrid(g, placement, platform, design, resident);
  // Stored schedule has zero penalty by construction, so the whole
  // instance costs exactly the initialization phase.
  EXPECT_EQ(out.span, design.ideal_makespan + out.init_duration);
}

INSTANTIATE_TEST_SUITE_P(Seeds, HybridMonotonicity,
                         ::testing::Range<std::uint64_t>(1, 13));

TEST(HybridRuntime, RejectsWrongResidentSize) {
  const auto p = prepare_jpeg();
  const std::vector<bool> tiny(1, false);
  EXPECT_THROW(hybrid_decide(p.design, tiny), InternalError);
}

}  // namespace
}  // namespace drhw
