#include "reuse/reuse_module.hpp"

#include <limits>
#include <stdexcept>

#include "util/check.hpp"

namespace drhw {

Binding bind_tiles(const SubtaskGraph& graph, const Placement& placement,
                   const ConfigStore& store, ReplacementPolicy policy,
                   const std::vector<time_us>& values, Rng& rng,
                   const NextUseRank& next_use) {
  Binding binding;
  bind_tiles(graph, placement, store, policy, values, rng, next_use, binding);
  return binding;
}

void bind_tiles(const SubtaskGraph& graph, const Placement& placement,
                const ConfigStore& store, ReplacementPolicy policy,
                const std::vector<time_us>& values, Rng& rng,
                const NextUseRank& next_use, Binding& binding) {
  if (placement.tiles_occupied() > store.tiles())
    throw std::invalid_argument("placement needs more tiles than available");
  DRHW_CHECK(values.size() == graph.size());

  binding.reused_subtasks = 0;
  binding.phys_of_tile.assign(static_cast<std::size_t>(placement.tiles_used),
                              k_no_phys_tile);
  binding.resident.assign(graph.size(), false);

  std::vector<char> claimed(static_cast<std::size_t>(store.tiles()), 0);

  // Phase 1 — reuse matching: a virtual tile whose first subtask's
  // configuration is resident binds to that physical tile. ICN-aware
  // placements may contain empty virtual tiles (a mesh position no subtask
  // was assigned to); they execute nothing and stay unbound.
  for (int v = 0; v < placement.tiles_used; ++v) {
    const auto& seq = placement.tile_sequence[static_cast<std::size_t>(v)];
    if (seq.empty()) continue;
    const SubtaskId first = seq.front();
    const ConfigId config = graph.subtask(first).config;
    if (const auto tile = store.find(config);
        tile && !claimed[static_cast<std::size_t>(*tile)]) {
      claimed[static_cast<std::size_t>(*tile)] = 1;
      binding.phys_of_tile[static_cast<std::size_t>(v)] = *tile;
      binding.resident[static_cast<std::size_t>(first)] = true;
      ++binding.reused_subtasks;
    }
  }

  // Phase 2 — replacement: bind the rest, preferring empty tiles, then the
  // policy's victim among the unclaimed.
  for (int v = 0; v < placement.tiles_used; ++v) {
    if (placement.tile_sequence[static_cast<std::size_t>(v)].empty())
      continue;  // unbound by design, see phase 1
    auto& slot = binding.phys_of_tile[static_cast<std::size_t>(v)];
    if (slot != k_no_phys_tile) continue;

    PhysTileId victim = k_no_phys_tile;
    // Empty tiles first (no information is lost by using them).
    for (int t = 0; t < store.tiles(); ++t) {
      const auto idx = static_cast<std::size_t>(t);
      if (claimed[idx] || store.config_on(t) != k_no_config) continue;
      victim = t;
      break;
    }
    if (victim == k_no_phys_tile) {
      switch (policy) {
        case ReplacementPolicy::lru: {
          time_us oldest = std::numeric_limits<time_us>::max();
          for (int t = 0; t < store.tiles(); ++t) {
            if (claimed[static_cast<std::size_t>(t)]) continue;
            if (store.last_used(t) < oldest) {
              oldest = store.last_used(t);
              victim = t;
            }
          }
          break;
        }
        case ReplacementPolicy::weight_aware:
        case ReplacementPolicy::critical_first: {
          double lowest = std::numeric_limits<double>::max();
          time_us oldest = std::numeric_limits<time_us>::max();
          for (int t = 0; t < store.tiles(); ++t) {
            if (claimed[static_cast<std::size_t>(t)]) continue;
            const double value = store.value_of(t);
            const time_us used = store.last_used(t);
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
          for (int t = 0; t < store.tiles(); ++t)
            if (!claimed[static_cast<std::size_t>(t)]) unclaimed.push_back(t);
          DRHW_CHECK(!unclaimed.empty());
          victim = unclaimed[rng.pick_index(unclaimed)];
          break;
        }
        case ReplacementPolicy::oracle: {
          DRHW_CHECK_MSG(next_use != nullptr,
                         "oracle policy needs next-use information");
          long farthest = -1;
          time_us oldest = std::numeric_limits<time_us>::max();
          for (int t = 0; t < store.tiles(); ++t) {
            if (claimed[static_cast<std::size_t>(t)]) continue;
            const long rank = next_use(store.config_on(t));
            const time_us used = store.last_used(t);
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
    DRHW_CHECK_MSG(victim != k_no_phys_tile, "no victim tile available");
    claimed[static_cast<std::size_t>(victim)] = 1;
    slot = victim;
  }
}

void first_subtask_configs_into(const SubtaskGraph& graph,
                                const Placement& placement,
                                std::vector<ConfigId>& out) {
  out.clear();
  for (const auto& seq : placement.tile_sequence) {
    if (seq.empty()) continue;
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
