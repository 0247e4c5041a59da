#pragma once

/// \file prefix_timing.hpp
/// Incremental timing of a growing explicit load order: the bound the
/// branch & bound (prefetch/bnb.hpp) evaluates at every search node.
///
/// The state answers "what is the makespan of evaluate() on an explicit_order
/// LoadPlan whose loads are the prefix" without re-running the event-driven
/// evaluator. It keeps one timing level
/// per prefix length:
///  * level 0 is the no-load schedule, computed over a topological order of
///    the combined precedence relation (graph edges plus the per-unit
///    execution chains);
///  * extend(L) copies the current level, dispatches L at
///    max(previous dispatch, end of the previous subtask on L's tile,
///    earliest port free time) on the earliest-free port (lowest index on
///    ties, PortSet::earliest), then recomputes the execution end of L and of
///    every subtask after it in the topological order;
///  * undo() pops the level;
///  * makespan_after(L) prices a child without creating its level: the
///    dispatch start extend(L) would use, plus L's load time, plus L's
///    precomputed tail (its execution and the longest chain after it).
///
/// Exactness contract: L must not be, or precede in the combined relation,
/// the subtask executed before any prefix load on that load's tile, so that
/// appending L never moves an earlier dispatch. The branch & bound's
/// `must_precede` rule guarantees it (see bnb.hpp). Under that contract the
/// makespan equals the evaluator's for the same explicit order exactly.
/// It also makes makespan_after(L) exact rather than a bound: the timing is
/// max-plus, so appending L only raises L's downstream cone, and each
/// subtask there then ends at the later of its old end and L's load end
/// plus a fixed chain length. The new makespan is therefore max(makespan(),
/// load end of L + tail of L), the value makespan() reports after extend(L).

#include <cstddef>
#include <vector>

#include "platform/platform.hpp"
#include "schedule/placement.hpp"
#include "sim/port_set.hpp"

namespace drhw {

class PrefixTiming {
 public:
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
  time_us makespan() const { return levels_[prefix_.size()].makespan; }
  /// The loads appended so far, in order.
  const std::vector<SubtaskId>& prefix() const { return prefix_; }
  std::size_t depth() const { return prefix_.size(); }
  /// The topological order of the combined precedence relation the timing
  /// is computed over.
  const std::vector<SubtaskId>& topo_order() const { return topo_; }

 private:
  struct Level {
    std::vector<time_us> exec_end;  ///< per subtask
    PortSet ports;
    time_us last_dispatch = 0;
    time_us makespan = 0;
  };

  /// Recomputes level.exec_end from topological position `from` onward.
  void recompute(Level& level, std::size_t from) const;
  /// When extend() would dispatch the load of subtask `idx` on `port` of
  /// `level`.
  time_us dispatch_start(const Level& level, std::size_t idx,
                         std::size_t port) const;

  std::vector<SubtaskId> topo_;
  std::vector<std::size_t> topo_pos_;  ///< per subtask: index into topo_
  std::vector<SubtaskId> prev_;        ///< per subtask: prev_on_unit
  std::vector<bool> on_drhw_;
  std::vector<time_us> exec_time_;
  std::vector<time_us> load_time_;
  /// Graph predecessors with their ICN edge latency, CSR by subtask.
  std::vector<std::size_t> pred_begin_;
  std::vector<SubtaskId> pred_;
  std::vector<time_us> pred_comm_;
  /// Per subtask: its execution time plus the longest chain after it over
  /// graph edges (with their ICN latency) and the unit chain.
  std::vector<time_us> tail_;

  /// Per subtask: load completion while in the prefix, else k_no_time.
  std::vector<time_us> load_end_;
  std::vector<SubtaskId> prefix_;
  std::vector<Level> levels_;  ///< levels_[d] times the first d loads
};

}  // namespace drhw
