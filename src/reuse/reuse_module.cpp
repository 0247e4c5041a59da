#include "reuse/reuse_module.hpp"

#include <limits>
#include <stdexcept>

#include "util/check.hpp"

namespace drhw {

void bind_tiles(const SubtaskGraph& graph, const Placement& placement,
                const ConfigStore& store,
                const std::vector<PhysTileId>& candidates,
                ReplacementPolicy policy, Rng& rng,
                const NextUseRank& next_use, Binding& binding) {
  const std::size_t count = candidates.size();
  if (static_cast<std::size_t>(placement.tiles_used) > count)
    throw std::invalid_argument("placement needs more tiles than available");

  binding.reused_subtasks = 0;
  binding.phys_of_tile.assign(static_cast<std::size_t>(placement.tiles_used),
                              k_no_phys_tile);
  binding.resident.assign(graph.size(), false);
  std::vector<char>& claimed = binding.claimed;
  claimed.assign(count, 0);

  // Phase 1 — reuse matching: a virtual tile whose first subtask's
  // configuration is resident binds to the lowest candidate holding it.
  for (int v = 0; v < placement.tiles_used; ++v) {
    const SubtaskId first =
        placement.tile_sequence[static_cast<std::size_t>(v)].front();
    const ConfigId config = graph.subtask(first).config;
    if (!store.holds(config)) continue;  // O(1): resident nowhere
    for (std::size_t i = 0; i < count; ++i) {
      if (store.config_on(candidates[i]) != config) continue;
      if (!claimed[i]) {
        claimed[i] = 1;
        binding.phys_of_tile[static_cast<std::size_t>(v)] = candidates[i];
        binding.resident[static_cast<std::size_t>(first)] = true;
        ++binding.reused_subtasks;
      }
      break;
    }
  }

  // Phase 2 — replacement: bind the rest, preferring empty tiles, then the
  // policy's victim among the unclaimed. Emptiness does not change while
  // binding and claims only accumulate, so the first unclaimed empty
  // candidate never moves left: one cursor walks the list once.
  std::size_t empty_from = 0;
  for (int v = 0; v < placement.tiles_used; ++v) {
    auto& slot = binding.phys_of_tile[static_cast<std::size_t>(v)];
    if (slot != k_no_phys_tile) continue;

    std::size_t victim = count;
    // Empty tiles first (no information is lost by using them).
    for (; empty_from < count; ++empty_from) {
      if (claimed[empty_from] ||
          store.config_on(candidates[empty_from]) != k_no_config)
        continue;
      victim = empty_from++;
      break;
    }
    if (victim == count) {
      switch (policy) {
        case ReplacementPolicy::lru: {
          time_us oldest = std::numeric_limits<time_us>::max();
          for (std::size_t i = 0; i < count; ++i) {
            if (claimed[i]) continue;
            const time_us used = store.last_used(candidates[i]);
            if (used < oldest) {
              oldest = used;
              victim = i;
            }
          }
          break;
        }
        case ReplacementPolicy::weight_aware:
        case ReplacementPolicy::critical_first: {
          double lowest = std::numeric_limits<double>::max();
          time_us oldest = std::numeric_limits<time_us>::max();
          for (std::size_t i = 0; i < count; ++i) {
            if (claimed[i]) continue;
            const double value = store.value_of(candidates[i]);
            const time_us used = store.last_used(candidates[i]);
            if (value < lowest || (value == lowest && used < oldest)) {
              lowest = value;
              oldest = used;
              victim = i;
            }
          }
          break;
        }
        case ReplacementPolicy::random_tile: {
          std::vector<std::size_t>& unclaimed = binding.unclaimed;
          unclaimed.clear();
          for (std::size_t i = 0; i < count; ++i)
            if (!claimed[i]) unclaimed.push_back(i);
          DRHW_CHECK(!unclaimed.empty());
          victim = unclaimed[rng.pick_index(unclaimed)];
          break;
        }
        case ReplacementPolicy::oracle: {
          DRHW_CHECK_MSG(next_use != nullptr,
                         "oracle policy needs next-use information");
          long farthest = -1;
          time_us oldest = std::numeric_limits<time_us>::max();
          for (std::size_t i = 0; i < count; ++i) {
            if (claimed[i]) continue;
            const long rank = next_use(store.config_on(candidates[i]));
            const time_us used = store.last_used(candidates[i]);
            if (rank > farthest || (rank == farthest && used < oldest)) {
              farthest = rank;
              oldest = used;
              victim = i;
            }
          }
          break;
        }
      }
    }
    DRHW_CHECK_MSG(victim != count, "no victim tile available");
    claimed[victim] = 1;
    slot = candidates[victim];
  }
}

void first_subtask_configs_into(const SubtaskGraph& graph,
                                const Placement& placement,
                                std::vector<ConfigId>& out) {
  out.clear();
  for (const auto& seq : placement.tile_sequence) {
    const ConfigId config = graph.subtask(seq.front()).config;
    if (config != k_no_config) out.push_back(config);
  }
}

const char* to_string(ReplacementPolicy policy) {
  switch (policy) {
    case ReplacementPolicy::lru:
      return "lru";
    case ReplacementPolicy::weight_aware:
      return "weight";
    case ReplacementPolicy::critical_first:
      return "critical-first";
    case ReplacementPolicy::random_tile:
      return "random";
    case ReplacementPolicy::oracle:
      return "oracle";
  }
  return "?";
}

}  // namespace drhw
