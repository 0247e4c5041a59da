#pragma once

/// \file prefix_timing.hpp
/// Incremental timing of a growing explicit load order: the bound the
/// branch & bound (prefetch/bnb.hpp) evaluates at every search node.
///
/// The state answers "what is the makespan of evaluate() on an explicit_order
/// LoadPlan whose loads are the prefix" without re-running the event-driven
/// evaluator, and without re-timing the subtasks either.
///
/// A *gate* is an execution some load's dispatch waits for: the subtask
/// executed before a DRHW subtask on its tile (Placement::prev_on_unit).
/// Explicit-order head-of-line dispatch starts the load of L at
/// max(previous dispatch, end of L's gate, earliest port free time) on the
/// earliest-free port (lowest index on ties, earliest_free() in
/// sim/port_set.hpp). So the dispatch needs the gates' execution ends and
/// nothing else of the schedule, and the makespan needs one number per load.
///
/// Why a table of path lengths gives those ends exactly: the timing is
/// max-plus linear. Each execution ends at its start plus its execution time,
/// and it starts at the maximum of its own load end (0 when it is resident),
/// the end of the previous execution on its unit, and every graph
/// predecessor's end. Unrolled, an execution end is the maximum, over its
/// inputs, of the input plus the longest path from that input to it. The
/// inputs are the time origin, which contributes the execution's end in the
/// no-load schedule, and the load end of every prefix load, which
/// contributes that end plus the longest path from it to the execution's end
/// (over graph edges and unit chains, the load's own execution included).
/// Max distributes over the inputs, so the contributions superpose. The
/// constructor therefore stores, per DRHW subtask L, the gates L reaches with
/// the longest path to each, and tail(L), L's execution plus the longest
/// chain after it. A level then holds:
///  * the end of every gate;
///  * the ports' free times and the last dispatch start;
///  * the makespan.
/// Level 0 is the no-load schedule. extend(L) copies the level, dispatches
/// L, raises gate_end[g] to load_end(L) + path(L, g) for every gate g L
/// reaches, and the makespan to load_end(L) + tail(L): O(gates + ports),
/// with no pass over the subtasks. undo() pops the level.
/// makespan_after(L) prices a child without creating its level: the same
/// dispatch start, plus L's load time, plus tail(L).
///
/// Exactness contract: L must not be, or reach, the gate of any prefix load,
/// so that appending L never moves an earlier dispatch (which would change
/// an input already folded into the table). The branch & bound's
/// `must_precede` rule guarantees it, and it reads that rule from the same
/// table (gate_of(), for_each_gate_reached(); see bnb.hpp). Under that
/// contract the makespan equals the evaluator's for the same explicit order
/// exactly, and makespan_after(L) is exact rather than a bound.

#include <cstddef>
#include <vector>

#include "platform/platform.hpp"
#include "schedule/placement.hpp"

namespace drhw {

class PrefixTiming {
 public:
  /// gate_of() of a subtask whose dispatch waits for no execution.
  static constexpr std::size_t k_no_gate = static_cast<std::size_t>(-1);

  /// The ports are free at the instance start, as in evaluate().
  PrefixTiming(const SubtaskGraph& graph, const Placement& placement,
               const PlatformConfig& platform);

  /// Appends the load of DRHW subtask `load` to the order (see the
  /// exactness contract above).
  void extend(SubtaskId load);
  /// Removes the most recently appended load.
  void undo();
  /// The makespan() that extend(load) would produce, in O(ports) and
  /// without changing the state (same contract as extend()).
  time_us makespan_after(SubtaskId load) const;

  /// Makespan of the current prefix, the other subtasks' configurations
  /// taken as resident.
  time_us makespan() const { return level(depth())[makespan_slot()]; }
  /// The loads appended so far, in order.
  const std::vector<SubtaskId>& prefix() const { return prefix_; }
  std::size_t depth() const { return prefix_.size(); }

  std::size_t gate_count() const { return gates_; }
  /// The gate the dispatch of subtask `s`'s load waits for, or k_no_gate.
  std::size_t gate_of(SubtaskId s) const {
    return gate_of_[static_cast<std::size_t>(s)];
  }
  /// Calls `visit(gate)` for every gate DRHW subtask `s` reaches (its own,
  /// when it is one), by ascending gate index.
  template <class Visit>
  void for_each_gate_reached(SubtaskId s, Visit visit) const {
    const auto i = static_cast<std::size_t>(s);
    for (std::size_t k = reach_begin_[i]; k < reach_begin_[i + 1]; ++k)
      visit(reach_[k].gate);
  }

 private:
  /// One entry of the gate table: a gate and the longest path from the
  /// owning subtask's load end to the gate's execution end.
  struct GatePath {
    std::size_t gate = 0;
    time_us length = 0;
  };

  // A level is one flat slice of levels_: the gate ends, then the ports'
  // free times, then the last dispatch start and the makespan.
  std::size_t ports_slot() const { return gates_; }
  std::size_t last_dispatch_slot() const { return gates_ + ports_; }
  std::size_t makespan_slot() const { return gates_ + ports_ + 1; }
  const time_us* level(std::size_t d) const {
    return levels_.data() + d * stride_;
  }

  /// When extend() would dispatch the load of subtask `idx` on `port` of
  /// `level`.
  time_us dispatch_start(const time_us* level, std::size_t idx,
                         std::size_t port) const;

  std::size_t gates_ = 0;
  std::size_t ports_ = 0;
  std::size_t stride_ = 0;  ///< time_us values per level

  std::vector<bool> on_drhw_;
  std::vector<time_us> load_time_;
  /// Per subtask: its execution time plus the longest chain of executions
  /// after it over graph edges and the unit chain.
  std::vector<time_us> tail_;
  std::vector<std::size_t> gate_of_;  ///< per subtask, or k_no_gate
  /// The gate table, CSR by subtask (DRHW subtasks only).
  std::vector<std::size_t> reach_begin_;
  std::vector<GatePath> reach_;

  std::vector<char> loaded_;  ///< per subtask: in the prefix
  std::vector<SubtaskId> prefix_;
  std::vector<time_us> levels_;  ///< level d times the first d loads
};

}  // namespace drhw
