#pragma once

/// \file reuse_module.hpp
/// The reuse and replacement modules of the paper's Figure 2.
///
/// Before a task instance starts, the run-time flow (a) identifies which
/// subtasks can be *reused* because their configuration is still resident,
/// and (b) decides onto which physical tile every other virtual tile of the
/// placement is mapped, choosing eviction victims so as to maximise future
/// reuse (ref. [6]).
///
/// Tiles are identical, so a virtual tile may bind to any physical tile.
/// Only the *first* subtask executed on a virtual tile can be reused: any
/// later subtask on the same tile is necessarily preceded by a load that
/// overwrites whatever was resident.

#include <functional>
#include <vector>

#include "graph/subtask_graph.hpp"
#include "reuse/config_store.hpp"
#include "schedule/placement.hpp"
#include "util/rng.hpp"

namespace drhw {

/// Victim-selection policy of the replacement module.
enum class ReplacementPolicy {
  lru,           ///< evict the least recently used configuration
  weight_aware,  ///< evict the lowest-value (ALAP weight) configuration
  /// Like weight_aware, but critical subtasks (whose reload can never be
  /// hidden intra-task) carry a large value bonus, so the pool pins them.
  /// Approximates a reuse-maximising replacement module (paper ref. [6]).
  critical_first,
  random_tile,   ///< evict a uniformly random tile (baseline)
  oracle,        ///< evict the configuration whose next use is farthest away
};

/// Result of binding one placement onto the physical tile pool.
struct Binding {
  /// Physical tile for each virtual tile of the placement.
  std::vector<PhysTileId> phys_of_tile;
  /// Per subtask: configuration already resident on its bound tile.
  std::vector<bool> resident;
  int reused_subtasks = 0;
};

/// Extra knowledge for the oracle policy: rank of the next use of a
/// configuration (lower = needed sooner); return a large value for "never".
using NextUseRank = std::function<long(ConfigId)>;

/// Binds the placement's virtual tiles to physical tiles.
///
/// Phase 1 matches virtual tiles whose first subtask's configuration is
/// already resident (reuse). Phase 2 assigns the remaining virtual tiles,
/// choosing victims per `policy`; empty tiles are always preferred over
/// evictions. The store itself is not modified — loads are recorded by the
/// caller as the schedule executes.
///
/// \param values per-subtask replacement value (ALAP weights).
/// \param next_use only consulted when policy == oracle (may be null
///        otherwise).
/// \throws std::invalid_argument when the placement needs more tiles than
///         the store has.
Binding bind_tiles(const SubtaskGraph& graph, const Placement& placement,
                   const ConfigStore& store, ReplacementPolicy policy,
                   const std::vector<time_us>& values, Rng& rng,
                   const NextUseRank& next_use = nullptr);

/// bind_tiles() into caller-owned storage: `out`'s vectors are re-assigned
/// (keeping their capacity), so a caller binding many instances — the
/// online kernel admits one per arrival — reuses one Binding as scratch
/// instead of allocating three vectors per admission.
void bind_tiles(const SubtaskGraph& graph, const Placement& placement,
                const ConfigStore& store, ReplacementPolicy policy,
                const std::vector<time_us>& values, Rng& rng,
                const NextUseRank& next_use, Binding& out);

/// The configurations bind_tiles() can reuse for this placement: the
/// first-subtask configuration of every virtual tile (only the first
/// subtask on a tile can be reused — every later one is preceded by an
/// overwriting load). Used by the pool layer's placement-aware
/// contiguous block selection so admission lands where reuse is richest.
/// Written into caller-owned storage (cleared first).
void first_subtask_configs_into(const SubtaskGraph& graph,
                                const Placement& placement,
                                std::vector<ConfigId>& out);

/// Human-readable policy name (benchmark tables).
const char* to_string(ReplacementPolicy policy);

}  // namespace drhw
