// Tests for the platform-model extensions: ICN communication latencies,
// heterogeneous per-bitstream load times, and multi-port reconfiguration
// controllers. The defaults (ideal ICN, uniform latency, one port) must
// keep the paper's semantics bit-for-bit.

#include <gtest/gtest.h>

#include "fixtures.hpp"
#include "graph/generators.hpp"
#include "hybrid_run.hpp"
#include "platform/platform.hpp"
#include "prefetch/bnb.hpp"
#include "prefetch/critical_subtasks.hpp"
#include "prefetch/load_plan.hpp"
#include "schedule/list_scheduler.hpp"
#include "schedule_checks.hpp"

namespace drhw {
namespace {

using testing::coarse_grain_platform;
using testing::expect_valid_schedule;

SubtaskGraph chain(int length, time_us exec) {
  SubtaskGraph g("chain");
  SubtaskId prev = k_no_subtask;
  for (int i = 0; i < length; ++i) {
    const auto id = g.add_subtask(
        {"c" + std::to_string(i), exec, Resource::drhw, k_no_config, 0});
    if (prev != k_no_subtask) g.add_edge(prev, id);
    prev = id;
  }
  g.finalize();
  return g;
}

TEST(Icn, LatencyGeometry) {
  PlatformConfig pf = virtex2_platform(9);
  pf.icn.mesh_width = 3;  // 3x3 mesh
  pf.icn.hop_latency = us(100);
  pf.icn.isp_bridge_latency = us(250);
  // Same unit: free.
  EXPECT_EQ(icn_comm_latency(pf, 4, false, 4, false), 0);
  // Tile 0 (0,0) -> tile 8 (2,2): 4 hops.
  EXPECT_EQ(icn_comm_latency(pf, 0, false, 8, false), us(400));
  // Tile 1 (1,0) -> tile 7 (1,2): 2 hops.
  EXPECT_EQ(icn_comm_latency(pf, 1, false, 7, false), us(200));
  // ISP traffic pays the bridge.
  EXPECT_EQ(icn_comm_latency(pf, 0, true, 5, false), us(250));
  EXPECT_EQ(icn_comm_latency(pf, 5, false, 0, true), us(250));
}

TEST(Icn, IdealInterconnectIsFree) {
  const PlatformConfig pf = virtex2_platform(8);  // mesh_width = 0
  EXPECT_EQ(icn_comm_latency(pf, 0, false, 7, false), 0);
}

TEST(Icn, CommunicationDelaysSuccessors) {
  const auto g = chain(2, ms(10));
  PlatformConfig pf = virtex2_platform(4);
  pf.icn.mesh_width = 2;
  pf.icn.hop_latency = us(500);
  const auto p = list_schedule_icn(g, pf);
  const LoadPlan none{LoadPolicy::explicit_order, {}};
  const auto r = evaluate(g, p, pf, none);
  // Both subtasks on different tiles: the second waits for the message.
  const time_us hops = icn_comm_latency(
      pf, p.tile_of[0], false, p.tile_of[1], false);
  EXPECT_EQ(r.exec_start[1], r.exec_end[0] + hops);
  EXPECT_EQ(r.makespan, p.ideal_makespan);  // scheduler and evaluator agree
}

TEST(Icn, SchedulerPrefersNearbyTiles) {
  // With expensive hops, packing a chain onto one tile beats spreading it.
  const auto g = chain(3, ms(2));
  PlatformConfig pf = virtex2_platform(9);
  pf.icn.mesh_width = 3;
  pf.icn.hop_latency = ms(5);  // prohibitively expensive
  const auto p = list_schedule_icn(g, pf);
  // All three end up on the same tile: communication is free there.
  EXPECT_EQ(p.tiles_used, 1);
  EXPECT_EQ(p.ideal_makespan, ms(6));
}

TEST(Icn, EvaluatorMatchesSchedulerUnderIcn) {
  for (std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    Rng rng(seed);
    LayeredGraphParams params;
    params.subtasks = 12;
    const auto g = make_layered_graph(params, rng);
    PlatformConfig pf = virtex2_platform(4);
    pf.icn.mesh_width = 2;
    pf.icn.hop_latency = us(300);
    const auto p = list_schedule_icn(g, pf);
    EXPECT_EQ(ideal_makespan(g, p, pf), p.ideal_makespan) << "seed " << seed;
  }
}

TEST(Icn, HybridFlowStillConvergesWithComm) {
  Rng rng(11);
  LayeredGraphParams params;
  params.subtasks = 10;
  const auto g = make_layered_graph(params, rng);
  PlatformConfig pf = virtex2_platform(4);
  pf.icn.mesh_width = 2;
  pf.icn.hop_latency = us(200);
  const auto p = list_schedule_icn(g, pf);
  const auto design = compute_hybrid_schedule(g, p, pf);
  const LoadPlan plan{LoadPolicy::explicit_order, design.stored_order};
  const auto r = evaluate(g, p, pf, plan);
  EXPECT_EQ(r.makespan, design.ideal_makespan);
}

TEST(LoadTime, PerSubtaskOverrideUsed) {
  auto g = chain(2, ms(10));
  g.subtask_mutable(1).load_time = ms(1);  // small bitstream
  const auto pf = virtex2_platform(2);
  const auto p = list_schedule(g, 2);
  const LoadPlan plan{LoadPolicy::explicit_order, {0, 1}};
  const auto r = evaluate(g, p, pf, plan);
  EXPECT_EQ(r.load_end[0] - r.load_start[0], ms(4));  // platform default
  EXPECT_EQ(r.load_end[1] - r.load_start[1], ms(1));  // override
}

TEST(LoadTime, HeterogeneousInitPhase) {
  SubtaskGraph g("two_heads");
  const auto a = g.add_subtask({"a", ms(2), Resource::drhw, k_no_config, 0,
                                ms(6)});
  const auto b = g.add_subtask({"b", ms(2), Resource::drhw, k_no_config, 0,
                                ms(1)});
  g.add_edge(a, b);
  g.finalize();
  const auto pf = virtex2_platform(2);
  const auto p = list_schedule(g, 2);
  const auto design = compute_hybrid_schedule(g, p, pf);
  const std::vector<bool> cold(g.size(), false);
  const auto out = testing::run_hybrid(g, p, pf, design, cold);
  time_us expected = 0;
  for (SubtaskId s : out.init_loads)
    expected += g.subtask(s).load_time;
  EXPECT_EQ(out.init_duration, expected);
}

TEST(LoadTime, CoarseGrainReducesCriticality) {
  // The Section 4 motivation: with much faster reconfiguration, fewer
  // subtasks are critical.
  SubtaskGraph g("fine");
  SubtaskId prev = k_no_subtask;
  for (int i = 0; i < 4; ++i) {
    const auto id = g.add_subtask(
        {"s" + std::to_string(i), ms(2), Resource::drhw, k_no_config, 0});
    if (prev != k_no_subtask) g.add_edge(prev, id);
    prev = id;
  }
  g.finalize();
  const auto fine = virtex2_platform(4);             // 4 ms loads
  const auto coarse = coarse_grain_platform(4);      // 0.5 ms loads
  const auto p = list_schedule(g, 4);
  const auto design_fine = compute_hybrid_schedule(g, p, fine);
  const auto design_coarse = compute_hybrid_schedule(g, p, coarse);
  EXPECT_GT(design_fine.critical.size(), design_coarse.critical.size());
  EXPECT_EQ(design_coarse.critical.size(), 1u);  // only the head remains
}

TEST(MultiPort, TwoPortsLoadInParallel) {
  // Fork of two: with one port the branch loads serialise; with two they
  // run concurrently.
  SubtaskGraph g("fork");
  const auto a = g.add_subtask({"a", ms(1), Resource::drhw, k_no_config, 0});
  const auto b = g.add_subtask({"b", ms(10), Resource::drhw, k_no_config, 0});
  const auto c = g.add_subtask({"c", ms(10), Resource::drhw, k_no_config, 0});
  g.add_edge(a, b);
  g.add_edge(a, c);
  g.finalize();
  const auto p = list_schedule(g, 3);

  PlatformConfig one = virtex2_platform(3);
  PlatformConfig two = virtex2_platform(3);
  two.reconfig_ports = 2;
  PlatformConfig three = virtex2_platform(3);
  three.reconfig_ports = 3;

  const LoadPlan plan = testing::weight_priority_plan(g, p);
  const auto r1 = evaluate(g, p, one, plan);
  const auto r2 = evaluate(g, p, two, plan);
  EXPECT_LT(r2.makespan, r1.makespan);
  // With three ports all loads start together (a's load occupies one port,
  // so b and c need the remaining two).
  const auto r3 = evaluate(g, p, three, plan);
  EXPECT_EQ(r3.load_start[static_cast<std::size_t>(b)],
            r3.load_start[static_cast<std::size_t>(c)]);
  EXPECT_EQ(r3.load_start[static_cast<std::size_t>(b)], 0);
  expect_valid_schedule(g, p, two, plan, r2);
  expect_valid_schedule(g, p, three, plan, r3);
}

TEST(MultiPort, ExtraPortsNeverHurt) {
  for (std::uint64_t seed : {3u, 7u, 9u}) {
    Rng rng(seed);
    LayeredGraphParams params;
    params.subtasks = 10;
    const auto g = make_layered_graph(params, rng);
    const auto p = list_schedule(g, 4);
    const LoadPlan plan = testing::weight_priority_plan(g, p);
    time_us prev = std::numeric_limits<time_us>::max();
    for (int ports = 1; ports <= 4; ++ports) {
      PlatformConfig pf = virtex2_platform(4);
      pf.reconfig_ports = ports;
      const auto r = evaluate(g, p, pf, plan);
      EXPECT_LE(r.makespan, prev) << "ports " << ports;
      prev = r.makespan;
    }
  }
}

TEST(MultiPort, ValidationRejectsZeroPorts) {
  PlatformConfig pf = virtex2_platform(4);
  pf.reconfig_ports = 0;
  EXPECT_THROW(pf.validate(), std::invalid_argument);
}

TEST(Icn, ValidationRejectsNegativeLatency) {
  PlatformConfig pf = virtex2_platform(4);
  pf.icn.hop_latency = -1;
  EXPECT_THROW(pf.validate(), std::invalid_argument);
}

}  // namespace
}  // namespace drhw
