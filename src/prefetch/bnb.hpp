#pragma once

/// \file bnb.hpp
/// Design-time optimal prefetch scheduling via branch & bound over load
/// orders (the paper's Section 5: "we apply a branch&bound algorithm that
/// always finds the optimal solution").
///
/// Only the load *order* needs exploring: starting a load earlier never
/// delays anything (a load occupies its tile only between the previous
/// execution on that tile and the subtask's own execution, and freeing the
/// port earlier is monotonically better), so non-delay schedules are optimal
/// and each order induces exactly one non-delay schedule.
///
/// The bound at a search node is the makespan of its prefix with every
/// other configuration taken as resident. It is computed incrementally
/// (prefetch/prefix_timing.hpp): appending a load dispatches it after the
/// prefix and re-times only the subtasks after it in a topological order;
/// backtracking pops the level. This is exact, not an approximation,
/// because of the search's `must_precede` rule: load L may only be chosen
/// after every load that precedes (in the combined relation of graph edges
/// and unit orders) the subtask executed before L on its tile. A load not yet
/// chosen therefore never feeds the tile release of an earlier prefix load
/// (if it did, it would have had to come first), so appending it at the end
/// moves only itself and its downstream cone, never an earlier dispatch. The
/// returned `eval` is still a full evaluate() of the best order.

#include <cstdint>
#include <vector>

#include "platform/platform.hpp"
#include "prefetch/evaluator.hpp"

namespace drhw {

/// Result of an optimal (or best-found) prefetch scheduling run.
struct BnbResult {
  std::vector<SubtaskId> order;  ///< best load order found
  EvalResult eval;               ///< its evaluation
  bool proven_optimal = true;    ///< false if the node budget was exhausted
  std::uint64_t nodes_explored = 0;
};

struct BnbOptions {
  /// Search-node budget; the search returns the best order found so far
  /// (proven_optimal = false) when exceeded. 0 means unlimited.
  std::uint64_t node_limit = 2'000'000;
};

/// Finds the load order minimising the makespan for `needs_load`.
/// Orders are enumerated as linear extensions of the induced precedence
/// (load b cannot precede load a when b's tile is still owed an execution
/// that transitively depends on a), so every explored order is feasible.
BnbResult optimal_prefetch(const SubtaskGraph& graph,
                           const Placement& placement,
                           const PlatformConfig& platform,
                           const std::vector<bool>& needs_load,
                           const BnbOptions& options = {});

}  // namespace drhw
