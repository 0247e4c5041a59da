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
/// (prefetch/prefix_timing.hpp) from a gate table: a load's dispatch waits
/// for its gate, the execution before it on its tile, and the timing is
/// max-plus, so each gate's end is the maximum of its no-load end and, per
/// prefix load that reaches it, the load's end plus the longest path
/// between them. Appending a load dispatches it after the prefix and raises
/// the ends of the gates it reaches; backtracking pops the level. This is
/// exact, not an approximation, because of the search's `must_precede`
/// rule, read from the same table: load L may only be chosen after every
/// load whose subtask reaches L's gate (over graph edges and unit orders).
/// A load not yet chosen therefore never feeds the gate of an earlier
/// prefix load (if it did, it would have had to come first), so appending
/// it at the end never moves an earlier dispatch. The returned `eval` is
/// still a full evaluate() of the best order.
///
/// The loads available at a node (unchosen, every must-precede load chosen)
/// are kept as a bitset over the weight-ordered loads, as many 64-bit words
/// as there are loads, and updated as loads are chosen and released; a node
/// walks it in that order.
///
/// The same rule makes a child's makespan computable exactly in O(ports)
/// before the child is built (PrefixTiming::makespan_after), and the search
/// prices every candidate that way first. A child whose makespan is >= the
/// incumbent's is counted as a node (with the same budget check) and
/// skipped without being timed. A search that extends every candidate and
/// prunes on entry would have done exactly that with it and nothing else:
/// such a leaf does not replace the incumbent (that takes a strict `<`), and
/// such an interior node returns before expanding. Node counts, the
/// returned order, `proven_optimal` and the budget fallback are therefore
/// identical to that search's; only the children entered are timed.
///
/// A second bound prunes an entered interior node before it expands:
/// PrefixTiming::completion_bound(), the prefix's makespan raised by a
/// port-capacity term over the loads not yet chosen. Those loads dispatch
/// after the prefix's last dispatch, so with their load times summed over
/// every leading set of them by tail (execution plus the longest chain
/// after it, longest first), the ports cannot finish the set before its
/// work spread over the j earliest-starting ports, for the best j; its last
/// load then still runs its tail. The node is pruned when that bound is
/// >= the incumbent's makespan, the same rule as for a child's makespan.
///
/// Why no order moves with it. The incumbent is replaced only on a strict
/// improvement, so the search returns the first optimal leaf in
/// depth-first candidate order. The bound is admissible: no completion of
/// the node has a smaller makespan. A node it prunes therefore has only
/// leaves >= the incumbent of that moment, none of which could have
/// replaced it. The search makes the same incumbent updates in the same
/// order and returns the same leaf, only after fewer nodes. This holds
/// while the node budget is not reached (no built-in search reaches it).
/// A search that runs out of budget stops at a different point than it
/// would without the bound, so its best-found order can differ.

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
