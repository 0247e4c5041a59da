// Tests for the design-time list scheduler and Placement validation.

#include <gtest/gtest.h>

#include "fixtures.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "schedule/list_scheduler.hpp"

namespace drhw {
namespace {

using testing::make_fork_join_graph;

SubtaskGraph chain4() {
  SubtaskGraph g("chain4");
  SubtaskId prev = k_no_subtask;
  for (time_us e : {ms(18), ms(16), ms(26), ms(21)}) {
    const auto id = g.add_subtask({"s", e, Resource::drhw, k_no_config, 0});
    if (prev != k_no_subtask) g.add_edge(prev, id);
    prev = id;
  }
  g.finalize();
  return g;
}

TEST(ListScheduler, ChainSpreadsAcrossIdleTiles) {
  const auto g = chain4();
  const auto p = list_schedule(g, 4);
  EXPECT_EQ(p.tiles_used, 4);
  // Each subtask gets its own tile: prefetch needs the previous execution to
  // overlap the next load, which is impossible when the chain is packed.
  for (std::size_t s = 0; s < g.size(); ++s)
    EXPECT_EQ(p.tile_of[s], static_cast<TileId>(s));
  EXPECT_EQ(p.ideal_makespan, ms(81));
}

TEST(ListScheduler, SingleTileSerialises) {
  const auto g = chain4();
  const auto p = list_schedule(g, 1);
  EXPECT_EQ(p.tiles_used, 1);
  EXPECT_EQ(p.tile_sequence[0].size(), 4u);
  EXPECT_EQ(p.ideal_makespan, ms(81));  // a chain is serial anyway
}

TEST(ListScheduler, ParallelGraphOnOneTileSerialises) {
  Rng rng(1);
  const auto g = make_fork_join_graph(3, 1, ms(10), ms(10), rng);
  const auto one = list_schedule(g, 1);
  EXPECT_EQ(one.ideal_makespan, g.total_exec_time());
  const auto many = list_schedule(g, 8);
  EXPECT_EQ(many.ideal_makespan, critical_path_length(g));
  EXPECT_LT(many.ideal_makespan, one.ideal_makespan);
}

TEST(ListScheduler, MatchesAsapWithEnoughTiles) {
  // With one tile per subtask, list scheduling reaches the ASAP schedule.
  for (std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    Rng rng(seed);
    LayeredGraphParams params;
    params.subtasks = 20;
    const auto g = make_layered_graph(params, rng);
    const auto p = list_schedule(g, static_cast<int>(g.size()));
    EXPECT_EQ(p.ideal_makespan, critical_path_length(g)) << "seed " << seed;
  }
}

TEST(ListScheduler, RespectsPrecedence) {
  Rng rng(11);
  LayeredGraphParams params;
  params.subtasks = 40;
  const auto g = make_layered_graph(params, rng);
  for (int tiles : {2, 4, 8}) {
    const auto p = list_schedule(g, tiles);
    for (std::size_t v = 0; v < g.size(); ++v)
      for (SubtaskId s : g.successors(static_cast<SubtaskId>(v)))
        EXPECT_GE(p.ideal_start[static_cast<std::size_t>(s)], p.ideal_end[v]);
  }
}

TEST(ListScheduler, UnitExclusivity) {
  Rng rng(13);
  LayeredGraphParams params;
  params.subtasks = 30;
  const auto g = make_layered_graph(params, rng);
  const auto p = list_schedule(g, 3);
  for (const auto& seq : p.tile_sequence)
    for (std::size_t i = 1; i < seq.size(); ++i)
      EXPECT_GE(p.ideal_start[static_cast<std::size_t>(seq[i])],
                p.ideal_end[static_cast<std::size_t>(seq[i - 1])]);
}

TEST(ListScheduler, IspSubtasksGoToIsps) {
  SubtaskGraph g;
  const auto a = g.add_subtask({"hw", ms(5), Resource::drhw, k_no_config, 0});
  const auto b = g.add_subtask({"sw", ms(5), Resource::isp, k_no_config, 0});
  g.add_edge(a, b);
  g.finalize();
  const auto p = list_schedule(g, 2, 1);
  EXPECT_EQ(p.tile_of[static_cast<std::size_t>(a)], 0);
  EXPECT_EQ(p.isp_of[static_cast<std::size_t>(a)], k_no_tile);
  EXPECT_EQ(p.tile_of[static_cast<std::size_t>(b)], k_no_tile);
  EXPECT_EQ(p.isp_of[static_cast<std::size_t>(b)], 0);
  EXPECT_EQ(p.isps_used, 1);
}

TEST(ListScheduler, ThrowsWithoutRequiredUnits) {
  SubtaskGraph g;
  g.add_subtask({"sw", ms(5), Resource::isp, k_no_config, 0});
  g.finalize();
  EXPECT_THROW(list_schedule(g, 4, 0), std::invalid_argument);

  SubtaskGraph h;
  h.add_subtask({"hw", ms(5), Resource::drhw, k_no_config, 0});
  h.finalize();
  EXPECT_THROW(list_schedule(h, 0, 1), std::invalid_argument);
}

TEST(Placement, ValidateCatchesTampering) {
  const auto g = chain4();
  auto p = list_schedule(g, 4);
  p.validate(g);  // sanity
  auto broken = p;
  broken.tile_of[0] = 2;  // now inconsistent with tile_sequence
  EXPECT_THROW(broken.validate(g), std::invalid_argument);

  auto missing = p;
  missing.tile_sequence[0].clear();  // subtask 0 no longer placed
  EXPECT_THROW(missing.validate(g), std::invalid_argument);
}

TEST(Placement, ValidateRejectsAnEmptyVirtualTile) {
  // Every virtual tile claims a physical tile at binding, so a hole in the
  // range would hold a tile that executes nothing.
  SubtaskGraph g;
  const auto a = g.add_subtask({"a", ms(1), Resource::drhw, k_no_config, 0});
  const auto b = g.add_subtask({"b", ms(1), Resource::drhw, k_no_config, 0});
  g.finalize();
  Placement p;
  p.tiles_used = 3;
  p.tile_of = {0, 2};
  p.isp_of = {k_no_tile, k_no_tile};
  p.tile_sequence = {{a}, {}, {b}};
  p.position_of = {0, 0};
  p.ideal_start = {0, 0};
  p.ideal_end = {ms(1), ms(1)};
  EXPECT_THROW(p.validate(g), std::invalid_argument);

  p.tiles_used = 2;
  p.tile_of = {0, 1};
  p.tile_sequence = {{a}, {b}};
  EXPECT_NO_THROW(p.validate(g));
}

TEST(Placement, ValidateCatchesOrderCycle) {
  // Unit order b-before-a conflicts with edge a -> b.
  SubtaskGraph g;
  const auto a = g.add_subtask({"a", ms(1), Resource::drhw, k_no_config, 0});
  const auto b = g.add_subtask({"b", ms(1), Resource::drhw, k_no_config, 0});
  g.add_edge(a, b);
  g.finalize();
  Placement p;
  p.tiles_used = 1;
  p.tile_of = {0, 0};
  p.isp_of = {k_no_tile, k_no_tile};
  p.tile_sequence = {{b, a}};
  p.position_of = {1, 0};
  p.ideal_start = {0, 0};
  p.ideal_end = {ms(1), ms(1)};
  EXPECT_THROW(p.validate(g), std::invalid_argument);
}

TEST(Placement, PrevOnUnit) {
  const auto g = chain4();
  const auto packed = list_schedule(g, 1);
  EXPECT_EQ(packed.prev_on_unit(packed.tile_sequence[0][0]), k_no_subtask);
  EXPECT_EQ(packed.prev_on_unit(packed.tile_sequence[0][2]),
            packed.tile_sequence[0][1]);
}

}  // namespace
}  // namespace drhw
