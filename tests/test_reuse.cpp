// Tests for the configuration store and the reuse/replacement modules.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/multimedia.hpp"
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
  EXPECT_TRUE(store.holds(42));
  EXPECT_FALSE(store.holds(41));
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

/// holds() reads a resident count, and bind_tiles() skips its reuse scan
/// when that count is 0; it must agree, after every mutation, with a
/// brute-force scan of config_on().
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
        case 1:
          store = ConfigStore(static_cast<int>(rng.next_int(1, 6)));
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
        bool held = false;
        for (PhysTileId t = 0; t < store.tiles(); ++t)
          held = held || (c != k_no_config && store.config_on(t) == c);
        ASSERT_EQ(store.holds(c), held)
            << "seed " << seed << " step " << step << " config " << c;
      }
    }
  }
}

/// bind_tiles() over every tile of `store`, the sequential rig's call.
Binding bind_all(const SubtaskGraph& graph, const Placement& placement,
                 const ConfigStore& store, ReplacementPolicy policy, Rng& rng,
                 const NextUseRank& next_use = nullptr) {
  std::vector<PhysTileId> every(static_cast<std::size_t>(store.tiles()));
  std::iota(every.begin(), every.end(), 0);
  Binding binding;
  bind_tiles(graph, placement, store, every, policy, rng, next_use, binding);
  return binding;
}

struct BindFixture : ::testing::Test {
  void SetUp() override {
    ConfigSpace cs;
    task = make_jpeg_decoder(cs);
    graph = &task.scenarios[0];
    placement = list_schedule(*graph, 4);
  }
  BenchmarkTask task;
  const SubtaskGraph* graph = nullptr;
  Placement placement;
  Rng rng{1};
};

TEST_F(BindFixture, ColdStoreBindsEmptyTilesNoReuse) {
  ConfigStore store(6);
  const auto b =
      bind_all(*graph, placement, store, ReplacementPolicy::lru, rng);
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
  const auto b =
      bind_all(*graph, placement, store, ReplacementPolicy::lru, rng);
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
  const auto b = bind_all(*graph, packed, store, ReplacementPolicy::lru, rng);
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
  const auto b = bind_all(g, p, store, ReplacementPolicy::lru, rng);
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
  const auto b = bind_all(g, p, store, ReplacementPolicy::weight_aware, rng);
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
  const auto next_use = [](ConfigId c) -> long {
    if (c == 100) return 1;
    if (c == 101) return 7;  // farthest: the right victim
    return 3;
  };
  const auto b =
      bind_all(g, p, store, ReplacementPolicy::oracle, rng, next_use);
  EXPECT_EQ(b.phys_of_tile[0], 1);
}

TEST_F(BindFixture, OracleWithoutNextUseThrows) {
  ConfigStore store(1);
  store.record_load(0, 100, ms(1), 1.0);
  SubtaskGraph g("one");
  g.add_subtask({"x", ms(5), Resource::drhw, 999, 0});
  g.finalize();
  const auto p = list_schedule(g, 1);
  EXPECT_THROW(bind_all(g, p, store, ReplacementPolicy::oracle, rng),
               InternalError);
}

TEST_F(BindFixture, EmptyTilesPreferredOverEvictions) {
  ConfigStore store(6);
  store.record_load(0, 100, ms(1), 1.0);  // one occupied tile
  const auto b =
      bind_all(*graph, placement, store, ReplacementPolicy::lru, rng);
  for (PhysTileId t : b.phys_of_tile) EXPECT_NE(t, 0);
}

TEST_F(BindFixture, ThrowsWhenPlacementTooWide) {
  ConfigStore store(2);  // placement needs 4
  EXPECT_THROW(
      bind_all(*graph, placement, store, ReplacementPolicy::lru, rng),
      std::invalid_argument);
}

TEST_F(BindFixture, RandomPolicyStaysInRange) {
  ConfigStore store(5);
  for (int t = 0; t < 5; ++t) store.record_load(t, 100 + t, ms(1), 1.0);
  const auto b =
      bind_all(*graph, placement, store, ReplacementPolicy::random_tile, rng);
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

// --- binding over candidate lists vs the per-admission view ----------------

/// The binder as the online kernel used to drive it, kept as the
/// differential oracle: a fresh ConfigStore view of the candidates (view
/// tile i holds candidate i's configuration, recency and value), bound over
/// every view tile with a find-the-lowest-holder reuse match and full
/// rescans, then mapped back to physical tiles.
Binding bind_through_view(const SubtaskGraph& graph,
                          const Placement& placement, const ConfigStore& store,
                          const std::vector<PhysTileId>& candidates,
                          ReplacementPolicy policy, Rng& rng,
                          const NextUseRank& next_use) {
  ConfigStore view(static_cast<int>(candidates.size()));
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const PhysTileId p = candidates[i];
    if (store.config_on(p) != k_no_config)
      view.record_load(static_cast<PhysTileId>(i), store.config_on(p),
                       store.last_used(p), store.value_of(p));
  }
  const auto find = [&](ConfigId config) -> std::optional<PhysTileId> {
    if (!view.holds(config)) return std::nullopt;
    for (PhysTileId t = 0; t < view.tiles(); ++t)
      if (view.config_on(t) == config) return t;
    return std::nullopt;
  };

  Binding binding;
  binding.phys_of_tile.assign(static_cast<std::size_t>(placement.tiles_used),
                              k_no_phys_tile);
  binding.resident.assign(graph.size(), false);
  std::vector<char> claimed(static_cast<std::size_t>(view.tiles()), 0);
  for (int v = 0; v < placement.tiles_used; ++v) {
    const SubtaskId first =
        placement.tile_sequence[static_cast<std::size_t>(v)].front();
    if (const auto tile = find(graph.subtask(first).config);
        tile && !claimed[static_cast<std::size_t>(*tile)]) {
      claimed[static_cast<std::size_t>(*tile)] = 1;
      binding.phys_of_tile[static_cast<std::size_t>(v)] = *tile;
      binding.resident[static_cast<std::size_t>(first)] = true;
      ++binding.reused_subtasks;
    }
  }
  for (int v = 0; v < placement.tiles_used; ++v) {
    auto& slot = binding.phys_of_tile[static_cast<std::size_t>(v)];
    if (slot != k_no_phys_tile) continue;
    PhysTileId victim = k_no_phys_tile;
    for (int t = 0; t < view.tiles(); ++t) {
      if (claimed[static_cast<std::size_t>(t)] ||
          view.config_on(t) != k_no_config)
        continue;
      victim = t;
      break;
    }
    if (victim == k_no_phys_tile) {
      switch (policy) {
        case ReplacementPolicy::lru: {
          time_us oldest = std::numeric_limits<time_us>::max();
          for (int t = 0; t < view.tiles(); ++t)
            if (!claimed[static_cast<std::size_t>(t)] &&
                view.last_used(t) < oldest) {
              oldest = view.last_used(t);
              victim = t;
            }
          break;
        }
        case ReplacementPolicy::weight_aware:
        case ReplacementPolicy::critical_first: {
          double lowest = std::numeric_limits<double>::max();
          time_us oldest = std::numeric_limits<time_us>::max();
          for (int t = 0; t < view.tiles(); ++t) {
            if (claimed[static_cast<std::size_t>(t)]) continue;
            const double value = view.value_of(t);
            const time_us used = view.last_used(t);
            if (value < lowest || (value == lowest && used < oldest)) {
              lowest = value;
              oldest = used;
              victim = t;
            }
          }
          break;
        }
        case ReplacementPolicy::random_tile: {
          std::vector<PhysTileId> unclaimed;
          for (int t = 0; t < view.tiles(); ++t)
            if (!claimed[static_cast<std::size_t>(t)]) unclaimed.push_back(t);
          victim = unclaimed[rng.pick_index(unclaimed)];
          break;
        }
        case ReplacementPolicy::oracle: {
          long farthest = -1;
          time_us oldest = std::numeric_limits<time_us>::max();
          for (int t = 0; t < view.tiles(); ++t) {
            if (claimed[static_cast<std::size_t>(t)]) continue;
            const long rank = next_use(view.config_on(t));
            const time_us used = view.last_used(t);
            if (rank > farthest || (rank == farthest && used < oldest)) {
              farthest = rank;
              oldest = used;
              victim = t;
            }
          }
          break;
        }
      }
    }
    claimed[static_cast<std::size_t>(victim)] = 1;
    slot = victim;
  }
  for (PhysTileId& tile : binding.phys_of_tile)
    tile = candidates[static_cast<std::size_t>(tile)];
  return binding;
}

/// Random stores with duplicated configurations, empty tiles and ties in
/// recency and value, random ascending candidate subsets, every policy:
/// binding over the subset must pick exactly what the view path picked.
/// One Binding is reused across every case, as the kernels reuse theirs.
TEST(BindTiles, CandidateSubsetsBindLikeTheViewOfTheSubset) {
  // Fixed oracle rank with ties, defined for k_no_config too.
  const NextUseRank next_use = [](ConfigId c) -> long {
    return c < 0 ? 2 : (c * 7 + 3) % 4;
  };
  Binding reused;
  int reuse_hits = 0, evictions = 0;
  for (std::uint64_t seed = 1; seed <= 400; ++seed) {
    Rng rng(seed);
    const int tiles = static_cast<int>(rng.next_int(1, 16));
    ConfigStore store(tiles);
    for (PhysTileId t = 0; t < tiles; ++t) {
      const auto config = static_cast<ConfigId>(rng.next_int(-1, 4));
      if (config == k_no_config && rng.next_bool(0.5)) continue;
      store.record_load(t, config, ms(rng.next_int(0, 3)),
                        static_cast<double>(rng.next_int(0, 2)));
      if (rng.next_bool(0.3)) store.record_use(t, ms(rng.next_int(3, 4)));
    }
    std::vector<PhysTileId> candidates;
    for (PhysTileId t = 0; t < tiles; ++t)
      if (rng.next_bool(0.6)) candidates.push_back(t);
    if (candidates.empty())
      candidates.push_back(static_cast<PhysTileId>(rng.next_int(0, tiles - 1)));

    SubtaskGraph graph("bind");
    const int subtasks = static_cast<int>(rng.next_int(1, 8));
    for (int s = 0; s < subtasks; ++s)
      graph.add_subtask({"s" + std::to_string(s), ms(rng.next_int(1, 5)),
                         Resource::drhw,
                         static_cast<ConfigId>(rng.next_int(0, 6)), 0});
    for (int s = 1; s < subtasks; ++s)
      if (rng.next_bool(0.3))
        graph.add_edge(static_cast<SubtaskId>(rng.next_int(0, s - 1)), s);
    graph.finalize();
    const Placement placement = list_schedule(
        graph,
        static_cast<int>(rng.next_int(
            1, static_cast<std::int64_t>(candidates.size()))));

    for (const ReplacementPolicy policy : k_replacement_policies) {
      Rng expected_rng(seed * 31 + 7), actual_rng(seed * 31 + 7);
      const Binding expected = bind_through_view(
          graph, placement, store, candidates, policy, expected_rng, next_use);
      bind_tiles(graph, placement, store, candidates, policy, actual_rng,
                 next_use, reused);
      const std::string where = "seed " + std::to_string(seed) + " policy " +
                                to_string(policy);
      ASSERT_EQ(reused.phys_of_tile, expected.phys_of_tile) << where;
      ASSERT_EQ(reused.resident, expected.resident) << where;
      ASSERT_EQ(reused.reused_subtasks, expected.reused_subtasks) << where;
      ASSERT_EQ(actual_rng.next_below(1u << 30),
                expected_rng.next_below(1u << 30))
          << where << ": different draw counts";
      reuse_hits += reused.reused_subtasks;
      for (const PhysTileId t : reused.phys_of_tile)
        evictions += store.config_on(t) != k_no_config;
    }
  }
  // The generator must reach both the reuse match and the victim scans.
  EXPECT_GT(reuse_hits, 100);
  EXPECT_GT(evictions, 500);
}

TEST(ReplacementPolicy, Names) {
  EXPECT_STREQ(to_string(ReplacementPolicy::lru), "lru");
  EXPECT_STREQ(to_string(ReplacementPolicy::weight_aware), "weight");
  EXPECT_STREQ(to_string(ReplacementPolicy::critical_first),
               "critical-first");
  EXPECT_STREQ(to_string(ReplacementPolicy::random_tile), "random");
  EXPECT_STREQ(to_string(ReplacementPolicy::oracle), "oracle");
  for (const ReplacementPolicy policy : k_replacement_policies)
    EXPECT_EQ(replacement_from_string(to_string(policy)), policy)
        << to_string(policy);
  EXPECT_THROW(replacement_from_string("bogus"), std::invalid_argument);
}

}  // namespace
}  // namespace drhw
