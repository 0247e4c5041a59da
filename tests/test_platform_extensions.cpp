// Tests for the platform-model extensions: heterogeneous per-bitstream load
// times and multi-port reconfiguration controllers. The defaults (uniform
// latency, one port) must keep the paper's semantics bit-for-bit.

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
  for (SubtaskId s : out.init_loads())
    expected += g.subtask(s).load_time;
  EXPECT_EQ(out.init_phase_end(), expected);
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

}  // namespace
}  // namespace drhw
