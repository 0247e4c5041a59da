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

#include <cstdint>
#include <functional>
#include <string>
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

/// Every replacement policy, in declaration order: the one list the
/// command-line parser and the replacement ablation enumerate.
inline constexpr ReplacementPolicy k_replacement_policies[] = {
    ReplacementPolicy::lru, ReplacementPolicy::weight_aware,
    ReplacementPolicy::critical_first, ReplacementPolicy::random_tile,
    ReplacementPolicy::oracle};

/// Result of binding one placement onto the physical tile pool. Callers
/// binding one instance after another keep one Binding: bind_tiles()
/// re-assigns every vector, keeping its capacity, so a bind allocates
/// nothing once the widest placement and candidate list have been seen.
struct Binding {
  /// Physical tile for each virtual tile of the placement.
  std::vector<PhysTileId> phys_of_tile;
  /// Per subtask: configuration already resident on its bound tile.
  std::vector<bool> resident;
  int reused_subtasks = 0;

  /// One occupied candidate as the replacement policy ranks it: the
  /// fields the policy does not read stay zero.
  struct Victim {
    long next_use = 0;   ///< oracle: rank of the next use (farthest first)
    double value = 0.0;  ///< weight_aware / critical_first (lowest first)
    time_us last_used = 0;     ///< every ranked policy (oldest first)
    std::size_t position = 0;  ///< candidate position (lowest first)
  };

  /// Lowest candidate holding one configuration, valid while `bind`
  /// equals the Binding's `binds`.
  struct Holder {
    std::uint64_t bind = 0;
    std::size_t position = 0;
  };

  // Scratch of bind_tiles(), indexed by candidate position.
  std::vector<ConfigId> configs;         ///< each candidate's configuration
  std::vector<char> claimed;             ///< candidate already bound
  std::vector<std::size_t> unclaimed;    ///< random_tile's draw set
  std::vector<Victim> victims;           ///< ranked victims, best first
  /// Indexed by configuration id: stamped per bind, so it is never cleared.
  std::vector<Holder> holders;
  std::uint64_t binds = 0;  ///< bind_tiles() calls so far: the live stamp
};

/// Extra knowledge for the oracle policy: rank of the next use of a
/// configuration (lower = needed sooner); return a large value for "never".
using NextUseRank = std::function<long(ConfigId)>;

/// Binds the placement's virtual tiles to the `candidates` — an ascending
/// list of distinct physical tiles of `store` — writing the result into
/// `out`. The sequential rig offers every tile of its store; the online
/// kernel offers the tiles its pool hands out for the instance
/// (TilePoolManager::offer_into()), and the store's other tiles are never
/// read.
///
/// Phase 1 matches virtual tiles whose first subtask's configuration is
/// already resident (reuse): such a tile binds to the lowest candidate
/// holding that configuration, if no earlier virtual tile claimed it.
/// Phase 2 assigns the remaining virtual tiles, the first unclaimed empty
/// candidate first; once none is left it evicts the policy's victims among
/// the unclaimed candidates. Binding does not change the store, so their
/// order is fixed for the whole bind: they are ranked once, by the
/// policy's key with the candidate position as the last tie-break (so ties
/// go to the lowest tile), and taken best first — lru by (last_used,
/// position), weight_aware and critical_first by (value, last_used,
/// position), oracle by next-use rank descending, then (last_used,
/// position). random_tile draws each victim over the unclaimed candidates
/// in ascending order. The store itself is not modified — loads are
/// recorded by the caller as the schedule executes.
///
/// \param next_use only consulted when policy == oracle (may be null
///        otherwise).
/// \throws std::invalid_argument when the placement needs more tiles than
///         there are candidates.
void bind_tiles(const SubtaskGraph& graph, const Placement& placement,
                const ConfigStore& store,
                const std::vector<PhysTileId>& candidates,
                ReplacementPolicy policy, Rng& rng,
                const NextUseRank& next_use, Binding& out);

/// The bind of a policy without reuse: virtual tile v takes candidate v,
/// and nothing is resident. Candidates and exception as bind_tiles().
void bind_without_reuse(const SubtaskGraph& graph, const Placement& placement,
                        const std::vector<PhysTileId>& candidates,
                        Binding& out);

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

/// The policy whose to_string() is `text`; std::invalid_argument otherwise.
ReplacementPolicy replacement_from_string(const std::string& text);

}  // namespace drhw
