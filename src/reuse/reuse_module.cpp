#include "reuse/reuse_module.hpp"

#include <cstddef>
#include <stdexcept>

#include "util/check.hpp"

namespace drhw {

namespace {

/// Keeps the `wanted` (>= 1) best unclaimed candidates of `binding` — all
/// occupied — in binding.victims, best first. `make(i)` fills candidate
/// i's key; `better` is the policy's strict order on it. Candidates arrive
/// in ascending position and a newcomer only passes strictly worse ones,
/// so equal keys stay in position order: ties go to the lowest tile.
template <class Make, class Better>
void keep_best(const std::vector<PhysTileId>& candidates, std::size_t wanted,
               Binding& binding, Make make, Better better) {
  std::vector<Binding::Victim>& victims = binding.victims;
  victims.clear();
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    if (binding.claimed[i]) continue;
    Binding::Victim victim = make(i);
    victim.position = i;
    std::size_t at = victims.size();  // the newcomer's slot, moving up
    if (at == wanted) {
      if (!better(victim, victims[at - 1])) continue;
      --at;  // it takes the worst kept victim's slot
    } else {
      victims.emplace_back();
    }
    for (; at > 0 && better(victim, victims[at - 1]); --at)
      victims[at] = victims[at - 1];
    victims[at] = victim;
  }
}

/// Ranks the victims of one bind by the replacement policy's key.
void rank_victims(const ConfigStore& store,
                  const std::vector<PhysTileId>& candidates,
                  ReplacementPolicy policy, const NextUseRank& next_use,
                  std::size_t wanted, Binding& binding) {
  const auto used = [&](std::size_t i) {
    Binding::Victim victim;
    victim.last_used = store.last_used(candidates[i]);
    return victim;
  };
  switch (policy) {
    case ReplacementPolicy::lru:
      keep_best(candidates, wanted, binding, used,
                [](const Binding::Victim& a, const Binding::Victim& b) {
                  return a.last_used < b.last_used;
                });
      return;
    case ReplacementPolicy::weight_aware:
    case ReplacementPolicy::critical_first:
      keep_best(
          candidates, wanted, binding,
          [&](std::size_t i) {
            Binding::Victim victim = used(i);
            victim.value = store.value_of(candidates[i]);
            return victim;
          },
          [](const Binding::Victim& a, const Binding::Victim& b) {
            return a.value < b.value ||
                   (a.value == b.value && a.last_used < b.last_used);
          });
      return;
    case ReplacementPolicy::oracle:
      DRHW_CHECK_MSG(next_use != nullptr,
                     "oracle policy needs next-use information");
      keep_best(
          candidates, wanted, binding,
          [&](std::size_t i) {
            Binding::Victim victim = used(i);
            victim.next_use = next_use(binding.configs[i]);
            return victim;
          },
          [](const Binding::Victim& a, const Binding::Victim& b) {
            return a.next_use > b.next_use ||
                   (a.next_use == b.next_use && a.last_used < b.last_used);
          });
      return;
    case ReplacementPolicy::random_tile:
      return;  // bind_tiles() draws each of its victims instead
  }
}

}  // namespace

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
  std::vector<ConfigId>& configs = binding.configs;
  configs.resize(count);
  std::vector<Binding::Holder>& holders = binding.holders;
  const std::uint64_t bind = ++binding.binds;
  for (std::size_t i = 0; i < count; ++i) {
    const ConfigId config = store.config_on(candidates[i]);
    configs[i] = config;
    if (config == k_no_config) continue;
    const auto c = static_cast<std::size_t>(config);
    if (c >= holders.size()) holders.resize(c + 1);
    if (holders[c].bind != bind) holders[c] = Binding::Holder{bind, i};
  }

  // Phase 1 — reuse matching: a virtual tile whose first subtask's
  // configuration is resident binds to the lowest candidate holding it,
  // unless an earlier virtual tile claimed that candidate.
  for (int v = 0; v < placement.tiles_used; ++v) {
    const SubtaskId first =
        placement.tile_sequence[static_cast<std::size_t>(v)].front();
    const ConfigId config = graph.subtask(first).config;
    if (config < 0 || static_cast<std::size_t>(config) >= holders.size() ||
        holders[static_cast<std::size_t>(config)].bind != bind)
      continue;  // no candidate holds it
    const std::size_t i = holders[static_cast<std::size_t>(config)].position;
    if (claimed[i]) continue;
    claimed[i] = 1;
    binding.phys_of_tile[static_cast<std::size_t>(v)] = candidates[i];
    binding.resident[static_cast<std::size_t>(first)] = true;
    ++binding.reused_subtasks;
  }

  // Phase 2 — replacement: bind the rest, preferring empty tiles, then the
  // policy's victims among the unclaimed. Emptiness does not change while
  // binding and claims only accumulate, so the first unclaimed empty
  // candidate never moves left: one cursor walks the list once. Once the
  // empty candidates run out, every unclaimed candidate is occupied and
  // the rest of the bind only claims victims, so the ranked policies rank
  // them once and take the `unbound` best in order.
  std::size_t empty_from = 0;
  int unbound = placement.tiles_used - binding.reused_subtasks;
  bool ranked = false;
  std::size_t next_victim = 0;
  for (int v = 0; v < placement.tiles_used; ++v) {
    auto& slot = binding.phys_of_tile[static_cast<std::size_t>(v)];
    if (slot != k_no_phys_tile) continue;

    std::size_t victim = count;
    // Empty tiles first (no information is lost by using them).
    for (; empty_from < count; ++empty_from) {
      if (claimed[empty_from] || configs[empty_from] != k_no_config) continue;
      victim = empty_from++;
      break;
    }
    if (victim == count && policy == ReplacementPolicy::random_tile) {
      std::vector<std::size_t>& unclaimed = binding.unclaimed;
      unclaimed.clear();
      for (std::size_t i = 0; i < count; ++i)
        if (!claimed[i]) unclaimed.push_back(i);
      DRHW_CHECK(!unclaimed.empty());
      victim = unclaimed[rng.pick_index(unclaimed)];
    } else if (victim == count) {
      if (!ranked) {
        rank_victims(store, candidates, policy, next_use,
                     static_cast<std::size_t>(unbound), binding);
        ranked = true;
      }
      if (next_victim < binding.victims.size())
        victim = binding.victims[next_victim++].position;
    }
    DRHW_CHECK_MSG(victim != count, "no victim tile available");
    claimed[victim] = 1;
    slot = candidates[victim];
    --unbound;
  }
}

void bind_without_reuse(const SubtaskGraph& graph, const Placement& placement,
                        const std::vector<PhysTileId>& candidates,
                        Binding& out) {
  if (static_cast<std::size_t>(placement.tiles_used) > candidates.size())
    throw std::invalid_argument("placement needs more tiles than available");
  out.phys_of_tile.assign(candidates.begin(),
                          candidates.begin() + placement.tiles_used);
  out.resident.assign(graph.size(), false);
  out.reused_subtasks = 0;
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

ReplacementPolicy replacement_from_string(const std::string& text) {
  for (ReplacementPolicy policy : k_replacement_policies)
    if (text == to_string(policy)) return policy;
  throw std::invalid_argument("unknown replacement policy '" + text + "'");
}

}  // namespace drhw
