// Tests for the configuration store and the reuse/replacement modules.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>

#include "apps/multimedia.hpp"
#include "graph/algorithms.hpp"
#include "util/check.hpp"
#include "reuse/config_store.hpp"
#include "reuse/reuse_module.hpp"
#include "schedule/list_scheduler.hpp"
#include "util/rng.hpp"

namespace drhw {
namespace {

TEST(ConfigStore, StartsEmpty) {
  ConfigStore store(4);
  EXPECT_EQ(store.tiles(), 4);
  for (int t = 0; t < 4; ++t) EXPECT_EQ(store.config_on(t), k_no_config);
  EXPECT_FALSE(store.holds(3));
}

TEST(ConfigStore, RecordAndFind) {
  ConfigStore store(3);
  store.record_load(1, 42, ms(10), 5.0);
  EXPECT_EQ(store.config_on(1), 42);
  ASSERT_TRUE(store.find(42).has_value());
  EXPECT_EQ(*store.find(42), 1);
  EXPECT_EQ(store.last_used(1), ms(10));
  EXPECT_DOUBLE_EQ(store.value_of(1), 5.0);
}

TEST(ConfigStore, LoadOverwrites) {
  ConfigStore store(2);
  store.record_load(0, 7, ms(1), 1.0);
  store.record_load(0, 8, ms(2), 2.0);
  EXPECT_EQ(store.config_on(0), 8);
  EXPECT_FALSE(store.holds(7));
}

TEST(ConfigStore, UseUpdatesRecencyMonotonically) {
  ConfigStore store(1);
  store.record_load(0, 1, ms(5), 1.0);
  store.record_use(0, ms(9));
  EXPECT_EQ(store.last_used(0), ms(9));
  // The per-tile timeline is an invariant, not a suggestion: a stale event
  // indicates a simulator accounting bug and must fail loudly.
  EXPECT_THROW(store.record_use(0, ms(2)), InternalError);
  EXPECT_THROW(store.record_load(0, 2, ms(2), 1.0), InternalError);
  EXPECT_EQ(store.last_used(0), ms(9));
  store.record_use(0, ms(9));  // equal timestamps are legal (zero-width events)
  EXPECT_EQ(store.last_used(0), ms(9));
}

TEST(ConfigStore, ClearForgetsEverything) {
  ConfigStore store(2);
  store.record_load(0, 1, ms(1), 1.0);
  store.clear();
  EXPECT_FALSE(store.holds(1));
}

TEST(ConfigStore, RejectsBadArguments) {
  EXPECT_THROW(ConfigStore(0), std::invalid_argument);
  ConfigStore store(2);
  EXPECT_THROW(store.config_on(5), std::invalid_argument);
  EXPECT_THROW(store.record_load(-1, 1, 0, 0.0), std::invalid_argument);
}

TEST(ConfigStore, RelocateCopiesConfigAndValueLeavingACachedSource) {
  ConfigStore store(3);
  store.record_load(0, 7, ms(2), 4.5);
  store.relocate(0, 2, ms(10));
  // Destination carries the configuration and its replacement value; the
  // source keeps the (reusable) cached copy with its old recency.
  EXPECT_EQ(store.config_on(2), 7);
  EXPECT_DOUBLE_EQ(store.value_of(2), 4.5);
  EXPECT_EQ(store.last_used(2), ms(10));
  EXPECT_EQ(store.config_on(0), 7);
  EXPECT_EQ(store.last_used(0), ms(2));
}

TEST(ConfigStore, RelocateEnforcesInvariants) {
  ConfigStore store(3);
  // Empty source: nothing to copy.
  EXPECT_THROW(store.relocate(0, 1, ms(1)), InternalError);
  store.record_load(0, 7, ms(2), 1.0);
  EXPECT_THROW(store.relocate(0, 0, ms(3)), InternalError);
  // Destination timeline stays monotone.
  store.record_load(1, 8, ms(9), 1.0);
  EXPECT_THROW(store.relocate(0, 1, ms(5)), InternalError);
}

TEST(ConfigStore, RejectsNegativeConfigIds) {
  ConfigStore store(2);
  EXPECT_THROW(store.record_load(0, -2, ms(1), 1.0), std::invalid_argument);
  store.record_load(0, 3, ms(1), 1.0);
  store.record_load(0, k_no_config, ms(2), 1.0);  // empties the tile
  EXPECT_FALSE(store.holds(3));
  EXPECT_FALSE(store.holds(k_no_config));
}

/// holds() reads a resident count and find() skips its scan when that
/// count is 0; both must agree, after every mutation, with a brute-force
/// scan of config_on(): the same answer and the lowest tile.
TEST(ConfigStore, ResidentIndexAgreesWithABruteForceScan) {
  constexpr int k_configs = 6;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    ConfigStore store(static_cast<int>(rng.next_int(1, 6)));
    time_us now = 0;
    for (int step = 0; step < 400; ++step) {
      now += static_cast<time_us>(rng.next_below(3));
      const auto tile = [&] {
        return static_cast<PhysTileId>(rng.next_below(
            static_cast<std::uint64_t>(store.tiles())));
      };
      switch (rng.next_below(20)) {
        case 0:
          store.clear();
          break;
        case 1:
          store.reset(static_cast<int>(rng.next_int(1, 6)));
          now = 0;  // fresh tiles: their timelines restart
          break;
        case 2:
        case 3:
        case 4: {
          const PhysTileId from = tile(), to = tile();
          if (from != to && store.config_on(from) != k_no_config)
            store.relocate(from, to, now);
          break;
        }
        case 5:
        case 6:
          store.record_use(tile(), now);
          break;
        default:
          store.record_load(
              tile(), static_cast<ConfigId>(rng.next_int(-1, k_configs - 1)),
              now, 1.0);
      }
      for (ConfigId c = -1; c <= k_configs; ++c) {
        std::optional<PhysTileId> lowest;
        for (PhysTileId t = 0; t < store.tiles() && !lowest; ++t)
          if (c != k_no_config && store.config_on(t) == c) lowest = t;
        ASSERT_EQ(store.holds(c), lowest.has_value())
            << "seed " << seed << " step " << step << " config " << c;
        ASSERT_EQ(store.find(c), lowest)
            << "seed " << seed << " step " << step << " config " << c;
      }
    }
  }
}

struct BindFixture : ::testing::Test {
  void SetUp() override {
    ConfigSpace cs;
    task = make_jpeg_decoder(cs);
    graph = &task.scenarios[0];
    placement = list_schedule(*graph, 4);
    weights = subtask_weights(*graph);
  }
  BenchmarkTask task;
  const SubtaskGraph* graph = nullptr;
  Placement placement;
  std::vector<time_us> weights;
  Rng rng{1};
};

TEST_F(BindFixture, ColdStoreBindsEmptyTilesNoReuse) {
  ConfigStore store(6);
  const auto b = bind_tiles(*graph, placement, store, ReplacementPolicy::lru,
                            weights, rng);
  EXPECT_EQ(b.reused_subtasks, 0);
  ASSERT_EQ(b.phys_of_tile.size(), 4u);
  std::set<PhysTileId> distinct(b.phys_of_tile.begin(), b.phys_of_tile.end());
  EXPECT_EQ(distinct.size(), 4u) << "no double-claimed physical tile";
  for (bool r : b.resident) EXPECT_FALSE(r);
}

TEST_F(BindFixture, MatchesResidentFirstSubtask) {
  ConfigStore store(6);
  // Park subtask 2's config on physical tile 5.
  store.record_load(5, graph->subtask(2).config, ms(1), 1.0);
  const auto b = bind_tiles(*graph, placement, store, ReplacementPolicy::lru,
                            weights, rng);
  EXPECT_EQ(b.reused_subtasks, 1);
  EXPECT_TRUE(b.resident[2]);
  // Subtask 2 sits alone on virtual tile 2 (chain spread on 4 tiles).
  EXPECT_EQ(b.phys_of_tile[static_cast<std::size_t>(placement.tile_of[2])],
            5);
}

TEST_F(BindFixture, OnlyFirstPositionSubtaskCanBeReused) {
  // Pack the chain onto one tile: only the first subtask may match.
  const auto packed = list_schedule(*graph, 1);
  ConfigStore store(2);
  store.record_load(0, graph->subtask(packed.tile_sequence[0][1]).config,
                    ms(1), 1.0);
  const auto b = bind_tiles(*graph, packed, store, ReplacementPolicy::lru,
                            weights, rng);
  EXPECT_EQ(b.reused_subtasks, 0) << "second-position config is dead";
}

TEST_F(BindFixture, LruEvictsOldest) {
  ConfigStore store(4);
  for (int t = 0; t < 4; ++t)
    store.record_load(t, 100 + t, ms(10 + t), 1.0);  // tile 0 oldest
  SubtaskGraph g("one");
  g.add_subtask({"x", ms(5), Resource::drhw, 999, 0});
  g.finalize();
  const auto p = list_schedule(g, 1);
  const auto w = subtask_weights(g);
  const auto b =
      bind_tiles(g, p, store, ReplacementPolicy::lru, w, rng);
  EXPECT_EQ(b.phys_of_tile[0], 0);
}

TEST_F(BindFixture, WeightAwareEvictsLowestValue) {
  ConfigStore store(3);
  store.record_load(0, 100, ms(1), 9.0);
  store.record_load(1, 101, ms(2), 1.0);  // lowest value
  store.record_load(2, 102, ms(3), 5.0);
  SubtaskGraph g("one");
  g.add_subtask({"x", ms(5), Resource::drhw, 999, 0});
  g.finalize();
  const auto p = list_schedule(g, 1);
  const auto w = subtask_weights(g);
  const auto b =
      bind_tiles(g, p, store, ReplacementPolicy::weight_aware, w, rng);
  EXPECT_EQ(b.phys_of_tile[0], 1);
}

TEST_F(BindFixture, OracleEvictsFarthestNextUse) {
  ConfigStore store(3);
  store.record_load(0, 100, ms(1), 1.0);
  store.record_load(1, 101, ms(1), 1.0);
  store.record_load(2, 102, ms(1), 1.0);
  SubtaskGraph g("one");
  g.add_subtask({"x", ms(5), Resource::drhw, 999, 0});
  g.finalize();
  const auto p = list_schedule(g, 1);
  const auto w = subtask_weights(g);
  const auto next_use = [](ConfigId c) -> long {
    if (c == 100) return 1;
    if (c == 101) return 7;  // farthest: the right victim
    return 3;
  };
  const auto b = bind_tiles(g, p, store, ReplacementPolicy::oracle, w, rng,
                            next_use);
  EXPECT_EQ(b.phys_of_tile[0], 1);
}

TEST_F(BindFixture, OracleWithoutNextUseThrows) {
  ConfigStore store(1);
  store.record_load(0, 100, ms(1), 1.0);
  SubtaskGraph g("one");
  g.add_subtask({"x", ms(5), Resource::drhw, 999, 0});
  g.finalize();
  const auto p = list_schedule(g, 1);
  const auto w = subtask_weights(g);
  EXPECT_THROW(
      bind_tiles(g, p, store, ReplacementPolicy::oracle, w, rng),
      InternalError);
}

TEST_F(BindFixture, EmptyTilesPreferredOverEvictions) {
  ConfigStore store(6);
  store.record_load(0, 100, ms(1), 1.0);  // one occupied tile
  const auto b = bind_tiles(*graph, placement, store, ReplacementPolicy::lru,
                            weights, rng);
  for (PhysTileId t : b.phys_of_tile) EXPECT_NE(t, 0);
}

TEST_F(BindFixture, ThrowsWhenPlacementTooWide) {
  ConfigStore store(2);  // placement needs 4
  EXPECT_THROW(bind_tiles(*graph, placement, store, ReplacementPolicy::lru,
                          weights, rng),
               std::invalid_argument);
}

TEST_F(BindFixture, RandomPolicyStaysInRange) {
  ConfigStore store(5);
  for (int t = 0; t < 5; ++t) store.record_load(t, 100 + t, ms(1), 1.0);
  const auto b = bind_tiles(*graph, placement, store,
                            ReplacementPolicy::random_tile, weights, rng);
  std::set<PhysTileId> distinct(b.phys_of_tile.begin(), b.phys_of_tile.end());
  EXPECT_EQ(distinct.size(), 4u);
  for (PhysTileId t : b.phys_of_tile) {
    EXPECT_GE(t, 0);
    EXPECT_LT(t, 5);
  }
}

TEST_F(BindFixture, FirstSubtaskConfigsAreTheReusableSet) {
  std::vector<ConfigId> wanted;
  first_subtask_configs_into(*graph, placement, wanted);
  // One entry per virtual tile, in tile order.
  EXPECT_EQ(wanted.size(), static_cast<std::size_t>(placement.tiles_used));
  for (std::size_t v = 0; v < placement.tile_sequence.size(); ++v) {
    const ConfigId config =
        graph->subtask(placement.tile_sequence[v].front()).config;
    EXPECT_NE(std::find(wanted.begin(), wanted.end(), config), wanted.end());
  }
}

TEST(ReplacementPolicy, Names) {
  EXPECT_STREQ(to_string(ReplacementPolicy::lru), "lru");
  EXPECT_STREQ(to_string(ReplacementPolicy::weight_aware), "weight");
  EXPECT_STREQ(to_string(ReplacementPolicy::critical_first),
               "critical-first");
  EXPECT_STREQ(to_string(ReplacementPolicy::random_tile), "random");
  EXPECT_STREQ(to_string(ReplacementPolicy::oracle), "oracle");
}

}  // namespace
}  // namespace drhw
