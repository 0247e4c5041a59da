#pragma once

/// \file placement.hpp
/// The "initial subtask schedule that neglects the reconfiguration latency"
/// (paper, Section 3): an assignment of every subtask to a virtual tile (or
/// ISP) together with a fixed execution order per unit and the ideal start
/// and end times the design-time scheduler computed.
///
/// The prefetch schedulers never reorder executions; they only decide when
/// configurations are pushed through the reconfiguration port.

#include <vector>

#include "graph/subtask_graph.hpp"
#include "util/ids.hpp"
#include "util/time.hpp"

namespace drhw {

/// Assignment + per-unit execution order + ideal (reconfiguration-free)
/// timing for one subtask graph.
struct Placement {
  int tiles_used = 0;  ///< number of virtual DRHW tiles, none empty
  int isps_used = 0;   ///< number of ISP units actually used

  /// Per subtask: virtual tile (DRHW subtasks) or k_no_tile (ISP subtasks).
  std::vector<TileId> tile_of;
  /// Per subtask: ISP unit (ISP subtasks) or k_no_tile (DRHW subtasks).
  std::vector<TileId> isp_of;
  /// Execution order on each virtual tile.
  std::vector<std::vector<SubtaskId>> tile_sequence;
  /// Execution order on each ISP unit.
  std::vector<std::vector<SubtaskId>> isp_sequence;
  /// Per subtask: its index within its unit's sequence.
  std::vector<int> position_of;

  /// Ideal timing (no reconfiguration overhead), as scheduled at design time.
  std::vector<time_us> ideal_start;
  std::vector<time_us> ideal_end;
  time_us ideal_makespan = 0;

  /// The subtask executed immediately before `s` on the same unit, or
  /// k_no_subtask if `s` is first on its unit.
  SubtaskId prev_on_unit(SubtaskId s) const;

  /// True when `s` is mapped to a DRHW tile.
  bool on_drhw(SubtaskId s) const {
    return tile_of[static_cast<std::size_t>(s)] != k_no_tile;
  }

  /// Consistency check against the graph: every subtask appears exactly once
  /// on a unit of its resource kind, positions match sequences, no virtual
  /// tile is empty (each one claims a physical tile), and the combined
  /// precedence relation (graph edges + unit orders) is acyclic.
  /// Throws std::invalid_argument on violations.
  void validate(const SubtaskGraph& graph) const;
};

}  // namespace drhw
